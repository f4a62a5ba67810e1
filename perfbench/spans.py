"""Per-layer tracing for the traced benchmark run.

`Tracer.install` wraps the public functions of the seven hmols modules
from outside the package, wherever a module bound them: in the defining
module and in every hmols module that imported them by name, so calls
between layers are caught.  Spans (name, start, end, parent span, op id)
stay in memory until `write`; self time is computed from the span tree.
Functions called millions of times (field arithmetic, class lookups,
cached constructors) only count calls.

Tracer bookkeeping that must run inside a span (content hashes of
verified designs) is itself a span named `trace.*`, and its time is taken
out of every enclosing span's busy and self time.

Untraced runs never construct a Tracer, so they run the package as is.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import sys
import time
from collections import Counter

# functions recorded as spans, by hmols module
SPANNED = {
    "cli": ["run"],
    "formats": ["design_dumps", "design_loads", "grid_dumps", "grid_loads",
                "cert_dumps", "cert_loads"],
    "designs": ["verify_design", "verify_hmols", "htd_to_hmols", "hmols_to_htd"],
    "cyclotomic": ["template", "allowed_cosets", "verify_rdm", "match_columns",
                   "verify_uvectors", "assemble_rdf", "td_projection",
                   "search_uvectors", "develop_rdf", "expand_td_to_htd"],
    "gf": ["cyclotomy_new"],
    "compose": ["td_product", "diag_product", "wilson_compose",
                "itd_truncate_compose", "itd_from_marked", "validate_mark"],
    "planner": ["plan_hmols", "validate_plan", "execute_plan"],
}
# functions that only count calls
COUNTED = {"gf": ["field_new", "primitive_root", "class_of"]}
COUNTED_METHODS = {("gf", "FieldSpec"): ["add", "sub", "mul", "inv"]}
SPANNED_STATIC = {("designs", "BlockDesign"): ["new"]}

VERIFIERS = ("designs.verify_design", "designs.verify_hmols")
COMPOSITIONS = ("compose.td_product", "compose.diag_product",
                "compose.wilson_compose", "compose.itd_truncate_compose",
                "compose.itd_from_marked")
BOOKKEEPING = "trace.hash"

# (metric name, unit) in report order; `layer_metrics` fills every one
METRICS = (
    [("cli.run.calls", "count"), ("cli.run.self_s", "s")]
    + [(f"formats.{f}.busy_s", "s") for f in SPANNED["formats"]]
    + [("formats.bytes_out", "B"), ("formats.bytes_in", "B")]
    + [("designs.verify_design.calls", "count"), ("designs.verify_design.busy_s", "s"),
       ("designs.verify_hmols.calls", "count"), ("designs.verify_hmols.busy_s", "s"),
       ("designs.htd_to_hmols.self_s", "s"), ("designs.hmols_to_htd.self_s", "s"),
       ("designs.BlockDesign.new.calls", "count"),
       ("designs.BlockDesign.new.busy_s", "s"),
       ("designs.pairs_counted", "pairs-computed"), ("designs.pairs_per_s", "1/s"),
       ("designs.violations", "count"), ("designs.verify_invalid.busy_s", "s"),
       ("designs.verify.distinct_ratio", "ratio")]
    + [(f"cyclotomic.{f}.{st}", u) for f in ("template", "allowed_cosets", "verify_rdm")
       for st, u in (("calls", "count"), ("busy_s", "s"))]
    + [(f"cyclotomic.{f}.busy_s", "s") for f in
       ("match_columns", "verify_uvectors", "assemble_rdf", "td_projection")]
    + [(f"cyclotomic.{f}.self_s", "s") for f in
       ("search_uvectors", "develop_rdf", "expand_td_to_htd")]
    + [(f"gf.{f}.calls", "count") for f in COUNTED["gf"]]
    + [("gf.cyclotomy_new.calls", "count"), ("gf.cyclotomy_new.busy_s", "s")]
    + [(f"gf.FieldSpec.{m}.calls", "count") for m in COUNTED_METHODS[("gf", "FieldSpec")]]
    + [(f"{f}.self_s", "s") for f in COMPOSITIONS]
    + [("compose.validate_mark.busy_s", "s"), ("compose.blocks_out", "count")]
    + [("planner.plan_hmols.busy_s", "s"), ("planner.validate_plan.busy_s", "s"),
       ("planner.execute_plan.calls", "count"), ("planner.execute_plan.self_s", "s"),
       ("planner.verify_per_node", "ratio")]
    + [("trace.overhead_ratio", "ratio")]
)


def _hmols_modules():
    return [m for name, m in list(sys.modules.items())
            if (name == "hmols" or name.startswith("hmols.")) and m is not None]


class Tracer:
    """Span recorder; install() wraps, uninstall() restores."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index, op id]
        self.stack = []
        self.op = None
        self.counts = Counter()
        self.bytes_out = 0
        self.bytes_in = 0
        self.blocks_out = 0
        self.verified = {}   # span index -> (content hash, pairs, violations)
        self._undo = []

    # -- spans ----------------------------------------------------------------

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else -1,
                           self.op])
        self.stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def _spanned(self, name, fn):
        tracer = self
        hook = _HOOKS.get(name)

        def wrapper(*args, **kwargs):
            key = hook.before(tracer, args) if hook else None
            idx = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if hook:
                hook.after(tracer, idx, key, args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation -----------------------------------------------------------

    def _rebind(self, original, replacement):
        """Replace original wherever an hmols module binds it by name."""
        for mod in _hmols_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    def install(self) -> None:
        mods = {name: importlib.import_module(f"hmols.{name}") for name in SPANNED}
        for modname, names in SPANNED.items():
            for f in names:
                fn = getattr(mods[modname], f)
                self._rebind(fn, self._spanned(f"{modname}.{f}", fn))
        for modname, names in COUNTED.items():
            for f in names:
                fn = getattr(mods[modname], f)
                self._rebind(fn, self._counted(f"{modname}.{f}.calls", fn))
        for (modname, cls), names in COUNTED_METHODS.items():
            klass = getattr(mods[modname], cls)
            for m in names:
                fn = vars(klass)[m]
                setattr(klass, m, self._counted(f"{modname}.{cls}.{m}.calls", fn))
                self._undo.append((klass, m, fn))
        for (modname, cls), names in SPANNED_STATIC.items():
            klass = getattr(mods[modname], cls)
            for m in names:
                raw = vars(klass)[m]
                wrapped = self._spanned(f"{modname}.{cls}.{m}", raw.__func__)
                setattr(klass, m, staticmethod(wrapped))
                self._undo.append((klass, m, raw))

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._undo):
            setattr(obj, attr, original)
        self._undo.clear()

    # -- results ------------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")

    def layer_metrics(self) -> dict:
        spans = self.spans
        n = len(spans)
        dur = [s[2] - s[1] for s in spans]
        child = [0.0] * n
        overhead = [0.0] * n
        for i, (name, _, _, parent, _) in enumerate(spans):
            if parent >= 0:
                child[parent] += dur[i]
            if name == BOOKKEEPING:
                p = parent
                while p >= 0:
                    overhead[p] += dur[i]
                    p = spans[p][3]

        def ancestors(i):
            p = spans[i][3]
            while p >= 0:
                yield p
                p = spans[p][3]

        calls, busy, self_s = Counter(), Counter(), Counter()
        for i, (name, _, _, _, _) in enumerate(spans):
            calls[name] += 1
            self_s[name] += dur[i] - child[i]
            if all(spans[a][0] != name for a in ancestors(i)):
                busy[name] += dur[i] - overhead[i]

        out = {"cli.run.calls": calls["cli.run"], "cli.run.self_s": self_s["cli.run"]}
        for f in SPANNED["formats"]:
            out[f"formats.{f}.busy_s"] = busy[f"formats.{f}"]
        out["formats.bytes_out"] = self.bytes_out
        out["formats.bytes_in"] = self.bytes_in
        for f in ("verify_design", "verify_hmols"):
            out[f"designs.{f}.calls"] = calls[f"designs.{f}"]
            out[f"designs.{f}.busy_s"] = busy[f"designs.{f}"]
        for f in ("htd_to_hmols", "hmols_to_htd"):
            out[f"designs.{f}.self_s"] = self_s[f"designs.{f}"]
        out["designs.BlockDesign.new.calls"] = calls["designs.BlockDesign.new"]
        out["designs.BlockDesign.new.busy_s"] = busy["designs.BlockDesign.new"]
        pairs = sum(p for _, p, _ in self.verified.values())
        verify_busy = sum(busy[v] for v in VERIFIERS)
        out["designs.pairs_counted"] = pairs
        out["designs.pairs_per_s"] = pairs / verify_busy if verify_busy else 0.0
        out["designs.violations"] = sum(v for _, _, v in self.verified.values())
        out["designs.verify_invalid.busy_s"] = sum(
            dur[i] for i, (_, _, v) in self.verified.items() if v)
        hashes = {h for h, _, _ in self.verified.values()}
        out["designs.verify.distinct_ratio"] = \
            len(hashes) / len(self.verified) if self.verified else 0.0
        for f in ("template", "allowed_cosets", "verify_rdm"):
            out[f"cyclotomic.{f}.calls"] = calls[f"cyclotomic.{f}"]
            out[f"cyclotomic.{f}.busy_s"] = busy[f"cyclotomic.{f}"]
        for f in ("match_columns", "verify_uvectors", "assemble_rdf", "td_projection"):
            out[f"cyclotomic.{f}.busy_s"] = busy[f"cyclotomic.{f}"]
        for f in ("search_uvectors", "develop_rdf", "expand_td_to_htd"):
            out[f"cyclotomic.{f}.self_s"] = self_s[f"cyclotomic.{f}"]
        for f in COUNTED["gf"]:
            out[f"gf.{f}.calls"] = self.counts[f"gf.{f}.calls"]
        for m in COUNTED_METHODS[("gf", "FieldSpec")]:
            out[f"gf.FieldSpec.{m}.calls"] = self.counts[f"gf.FieldSpec.{m}.calls"]
        out["gf.cyclotomy_new.calls"] = calls["gf.cyclotomy_new"]
        out["gf.cyclotomy_new.busy_s"] = busy["gf.cyclotomy_new"]
        for f in COMPOSITIONS:
            out[f"{f}.self_s"] = self_s[f]
        out["compose.validate_mark.busy_s"] = busy["compose.validate_mark"]
        out["compose.blocks_out"] = self.blocks_out
        out["planner.plan_hmols.busy_s"] = busy["planner.plan_hmols"]
        out["planner.validate_plan.busy_s"] = busy["planner.validate_plan"]
        out["planner.execute_plan.calls"] = calls["planner.execute_plan"]
        out["planner.execute_plan.self_s"] = self_s["planner.execute_plan"]
        in_exec = sum(1 for i in range(n) if spans[i][0] == "designs.verify_design"
                      and any(spans[a][0] == "planner.execute_plan" for a in ancestors(i)))
        nodes = calls["planner.execute_plan"]
        out["planner.verify_per_node"] = in_exec / nodes if nodes else 0.0
        return out


# ---------------------------------------------------------------------------
# per-function hooks: byte, block and verification accounting
# ---------------------------------------------------------------------------

class _Hook:
    def before(self, tracer, args):
        return None

    def after(self, tracer, idx, key, args, out):
        pass


class _Dumps(_Hook):
    def after(self, tracer, idx, key, args, out):
        tracer.bytes_out += len(out.encode())


class _Loads(_Hook):
    def before(self, tracer, args):
        tracer.bytes_in += len(args[0].encode())


class _Verify(_Hook):
    """Content hash and computed pair count of the verified object, taken
    in a bookkeeping span before the verifier's own span opens."""

    def before(self, tracer, args):
        obj = args[0]
        idx = tracer._open(BOOKKEEPING)
        try:
            if hasattr(obj, "blocks"):
                arr, k = obj.blocks, obj.k
                pairs = arr.shape[0] * k * (k - 1) // 2
                head = (obj.k, obj.group_size, obj.index, obj.hole_kind, obj.holes)
            else:
                arr, k = obj.squares, obj.k
                pairs = arr.shape[1] * arr.shape[2] * k * (k - 1) // 2
                head = (obj.k, obj.h, obj.n, obj.holes)
            digest = hashlib.blake2b(repr(head).encode() + str(arr.shape).encode())
            digest.update(arr.tobytes())
        finally:
            tracer._close(idx)
        return digest.hexdigest(), pairs

    def after(self, tracer, idx, key, args, out):
        tracer.verified[idx] = (key[0], key[1], len(out.violations))


class _Composed(_Hook):
    def after(self, tracer, idx, key, args, out):
        design = getattr(out, "design", out)  # a MarkedDesign carries its TD
        tracer.blocks_out += len(design.blocks)


_HOOKS = {f"formats.{f}": _Dumps() for f in ("design_dumps", "grid_dumps", "cert_dumps")}
_HOOKS.update({f"formats.{f}": _Loads() for f in ("design_loads", "grid_loads", "cert_loads")})
_HOOKS.update({v: _Verify() for v in VERIFIERS})
_HOOKS.update({c: _Composed() for c in COMPOSITIONS})
