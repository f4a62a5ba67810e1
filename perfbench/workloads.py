"""The benchmark's workloads: `cert-401`, `search-mix` and `plan-exec`.

Each workload builds its inputs from the workload seed in `setup` and
then runs passes over one fixed list of operations.  An operation is what
one user command does: `hmols.cli.run(argv)` in process, or for
`plan-exec` the library calls the `plan` and `execute` handlers make.
Only the operation itself is timed; every output is checked between
operations by `check`, which does not use the package's verifiers.

Why these workloads, and which layers each one loads, is in README.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from hmols import cli
from hmols import designs as dz
from hmols import planner as pl
from hmols.errors import NoPlan
from hmols.fixtures import fixture_text

import check
import speed

HERE = Path(__file__).resolve().parent
BUDGET = 100_000  # passed explicitly to every search, never via HMOLS_BUDGET
EXIT_OK, EXIT_INVALID, EXIT_EXHAUSTED = 0, 1, 3


def reference() -> dict:
    return json.loads((HERE / "reference.json").read_text())


class Pass:
    """Timings and outcomes of one pass over a workload's operations."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.probe = speed.Probe()
        self.windows = []    # (start, end) of each operation
        self.failures = {}   # op number -> cause
        self.searches = 0
        self.found = 0
        self.out_bytes = 0

    @property
    def attempted(self) -> int:
        return len(self.windows)

    @property
    def raw_times(self) -> list[float]:
        return [t1 - t0 for t0, t1 in self.windows]

    @property
    def op_times(self) -> list[float]:
        """Operation times at the reference machine speed (see speed.py)."""
        return [(t1 - t0) * self.probe.scale(t0, t1) for t0, t1 in self.windows]

    def timed(self, fn, *args):
        """Run one operation under the clock; an exception fails the op and
        is returned in place of its result."""
        if self.tracer is not None:
            self.tracer.op = len(self.windows) + 1
        self.probe.maybe()
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:  # a crashing op is a failed op, not a crashed run
            out = exc
        self.windows.append((t0, time.perf_counter()))
        self.probe.maybe()
        if isinstance(out, Exception):
            self.fail(f"{type(out).__name__}: {out}")
        return out

    def fail(self, cause: str, op: int | None = None) -> None:
        """Record a failure of the last operation (or of op number op)."""
        op = op or len(self.windows)
        self.failures.setdefault(op, cause)


def run_cli(argv) -> tuple[int, str]:
    """`hmols <argv>` in process; returns the exit code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run([str(a) for a in argv])
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# cert-401
# ---------------------------------------------------------------------------

class CertWorkload:
    """The paper's example as a user runs it: develop the GF(401)
    certificate, verify, convert, verify the grid, re-check the
    certificate, then verify seeded corrupted copies of both files."""

    name = "cert-401"

    def __init__(self, workdir: Path, seed: int, smoke: bool = False):
        self.wd, self.seed = workdir, seed
        self.spec = reference()["cert-smoke" if smoke else "cert-401"]

    def setup(self) -> None:
        if "file" in self.spec:
            text = (HERE / self.spec["file"]).read_text()
        else:
            text = fixture_text("cert_2_401.json")
        (self.wd / "cert.json").write_text(text)

    def _expect(self, p: Pass, argv, code: int):
        got = p.timed(run_cli, argv)
        if isinstance(got, Exception):
            return None
        if got[0] != code:
            p.fail(f"hmols {' '.join(map(str, argv))} exited {got[0]}, expected {code}")
        return got

    def run_pass(self, p: Pass) -> None:
        wd = self.wd
        for name in ("htd.json", "h.grid", "full.json", "htd_bad.json", "h_bad.grid"):
            (wd / name).unlink(missing_ok=True)
        self._expect(p, ["develop", wd / "cert.json", "--out", wd / "htd.json"], EXIT_OK)
        self._expect(p, ["verify", wd / "htd.json"], EXIT_OK)
        self._expect(p, ["convert", wd / "htd.json", "--to", "hmols",
                         "--out", wd / "h.grid"], EXIT_OK)
        self._expect(p, ["verify", wd / "h.grid"], EXIT_OK)
        p.searches += 1
        got = self._expect(p, ["search", "--verify", wd / "cert.json",
                               "--out", wd / "full.json"], EXIT_OK)
        p.found += bool(got and got[0] == EXIT_OK)
        p.out_bytes += sum((wd / f).stat().st_size
                           for f in ("htd.json", "h.grid", "full.json")
                           if (wd / f).exists())
        checked = self._check_files(p)
        if checked is None:
            return
        for name, count in checked["expected_violations"].items():
            got = self._expect(p, ["--json", "verify", wd / name], EXIT_INVALID)
            if not got or isinstance(got, Exception):
                continue
            reported = len(json.loads(got[1])["violations"])
            if reported != count:
                p.fail(f"verify {name} reports {reported} violations, "
                       f"the checker counts {count}")

    def _check_files(self, p: Pass):
        """Check the pass's files and derive the corrupted copies in a
        child process, so its memory does not count toward peak RSS."""
        missing = [f for f in ("htd.json", "h.grid", "full.json")
                   if not (self.wd / f).exists()]
        if missing:
            p.fail(f"no output files {missing}; corrupted copies skipped")
            return None
        res = subprocess.run(
            [sys.executable, str(HERE / "check.py"), str(self.wd), str(self.seed),
             json.dumps(self.spec)], capture_output=True, text=True, timeout=170)
        if res.returncode != 0:
            p.fail(f"checker failed: {res.stderr.strip()[-300:]}")
            return None
        checked = json.loads(res.stdout.splitlines()[-1])
        for problem in checked["problems"]:
            p.fail(problem, op=1 if "htd.json" in problem else
                   3 if "h.grid" in problem else 5)
        return checked


# ---------------------------------------------------------------------------
# search-mix
# ---------------------------------------------------------------------------

def _primes(lo: int, hi: int, mod: int) -> list[int]:
    return [q for q in range(lo, hi + 1) if pl.is_prime(q) and q % mod == 1]


# (h, d, columns, field orders, search seeds per field order)
SEARCH_FAMILIES = [
    (2, 3, list(range(8)), _primes(97, 400, 4), 2),
    (3, 2, list(range(6)), _primes(13, 200, 3), 2),
    (2, 4, list(range(6)), [401], 12),
]
SMOKE_SEARCH_FAMILIES = [
    (2, 3, list(range(8)), [97, 101], 1),
    (3, 2, list(range(6)), [13, 19], 1),
    (2, 4, list(range(6)), [401], 1),
]


class SearchWorkload:
    """A list of `hmols search h d q --cols ... --seed s --budget B`
    commands over three instance families, each field order searched
    with search seeds 0, 1, ...; the workload seed orders the list.

    The instances do not vary with the workload seed: whether a seeded
    search finds early or runs out of budget swings a command's time
    between milliseconds and half a second, so lists drawn per workload
    seed differ in cost far more than the program does between runs."""

    name = "search-mix"

    def __init__(self, workdir: Path, seed: int, smoke: bool = False):
        self.wd, self.seed = workdir, seed
        self.families = SMOKE_SEARCH_FAMILIES if smoke else SEARCH_FAMILIES

    def setup(self) -> None:
        cmds = [{"h": h, "d": d, "q": q, "cols": cols, "seed": s}
                for h, d, cols, qs, seeds in self.families for q in qs
                for s in range(seeds)]
        random.Random(self.seed).shuffle(cmds)
        self.cmds = cmds
        (self.wd / "commands.json").write_text(json.dumps(cmds, indent=1))

    def run_pass(self, p: Pass) -> None:
        for i, c in enumerate(self.cmds):
            out = self.wd / f"cert_{i}.json"
            out.unlink(missing_ok=True)
            argv = ["search", c["h"], c["d"], c["q"], "--cols", *c["cols"],
                    "--seed", c["seed"], "--budget", BUDGET, "--out", out]
            p.searches += 1
            got = p.timed(run_cli, argv)
            if isinstance(got, Exception):
                continue
            if got[0] == EXIT_EXHAUSTED:
                continue
            if got[0] != EXIT_OK:
                p.fail(f"hmols search exited {got[0]}")
                continue
            if not out.exists():
                p.fail("hmols search exited 0 without writing its certificate")
                continue
            p.found += 1
            p.out_bytes += out.stat().st_size
            problems = check.cert_problems(json.loads(out.read_text()),
                                           c["h"], c["d"], c["q"], c["cols"])
            if problems:
                p.fail(f"certificate {c}: {problems}")


# ---------------------------------------------------------------------------
# plan-exec
# ---------------------------------------------------------------------------

def _prime_powers(lo: int, hi: int) -> list[int]:
    return [q for q in range(lo, hi + 1) if len(pl.factor_prime_powers(q)) == 1]


def build_registry() -> pl.Registry:
    """A truthful registry: every fact is constructible and its recipe
    really constructs.  Field TDs on four groups cover TD(3, n) and
    TD(4, t) queries, the extension fields of order 8..128 included."""
    reg = pl.Registry()
    reg.add(pl.HTD, (4, 2, 4), pl.CONSTRUCTIBLE,
            recipe={"op": "fixture", "name": "hmols_2_4"})
    for q in _prime_powers(3, 128):
        reg.add(pl.TD, (4, q), pl.CONSTRUCTIBLE,
                recipe={"op": "td_from_field", "k": 4, "q": q})
        reg.add(pl.HTD, (3, 1, q), pl.CONSTRUCTIBLE,
                recipe={"op": "unit_hole_htd", "k": 3, "q": q})
    reg.add(pl.ITD, (3, 10, 2), pl.CONSTRUCTIBLE,
            recipe={"op": "marked_product_itd", "k": 3, "q1": 5, "q2": 2})
    reg.add(pl.RECIPE, ("cyclotomic",), pl.CONSTRUCTIBLE)
    return reg


WILSON_M = 4  # layers HTD(3, 2^4) from the fixture; ITD(3, (10; 2)) fills


def wilson_plan(t: int, u: int, reg: pl.Registry) -> pl.PlanTree:
    """Explicit Wilson plan for HTD(3, 2^(4t + u)) with u > 0; the
    truncation child is whatever the planner finds for HTD(3, 2^u)."""
    leaf = pl.PlanTree(goal=(2, WILSON_M, 1),
                       step={"kind": pl.STEP_FIXTURE, "fact": [pl.HTD, [4, 2, 4]]})
    return pl.PlanTree(
        goal=(2, WILSON_M * t + u, 1),
        step={"kind": pl.STEP_WILSON, "m": WILSON_M, "t": t, "u": u,
              "t_fact": [pl.TD, [4, t]], "td_fact": [pl.TD, [4, 8]],
              "itd_fact": [pl.ITD, [3, 10, 2]]},
        children={"layer": leaf, "truncation": pl.plan_hmols(2, 1, u, reg)})


def goal_strata(goals: list[dict], size: int) -> list[list[dict]]:
    """Cut the goals of each plan shape, ordered by n, into runs of about
    `size` neighbours."""
    shapes = {}
    for g in sorted(goals, key=lambda g: g["n"]):
        shapes.setdefault(g["shape"], []).append(g)
    strata = []
    for members in shapes.values():
        cuts = max(1, round(len(members) / size))
        strata += [members[i * len(members) // cuts:(i + 1) * len(members) // cuts]
                   for i in range(cuts)]
    return strata


STRATUM_SIZE = 8


class PlanWorkload:
    """Goals HTD(3, 2^n), n up to 520, planned and executed as `hmols plan`
    and `hmols execute` do, plus explicit Wilson plans with u > 0 for t up
    to 64; the workload seed orders them.

    The goals are the middle goal of every run of STRATUM_SIZE goals with
    the same plan shape, so every plan shape and size band is in the list
    in proportion.  As in search-mix they do not vary with the seed: op
    costs range from milliseconds to over a second, and seeded draws moved
    the latency quantiles between runs more than the program did."""

    name = "plan-exec"

    def __init__(self, workdir: Path, seed: int, smoke: bool = False):
        self.wd, self.seed, self.smoke = workdir, seed, smoke
        self.seen = {}  # op key -> fingerprint of an output already checked

    def setup(self) -> None:
        ref = reference()
        strata = goal_strata(ref["plan_goals"], STRATUM_SIZE)
        by_t = {}
        for w in ref["wilson_plans"]:
            by_t.setdefault(w["t"], []).append(w)
        if self.smoke:
            strata, by_t = strata[:3], dict(list(by_t.items())[:2])
        reg = build_registry()
        self.registry = self.wd / "registry.json"
        self.registry.write_text(reg.to_json())
        ops = [dict(s[len(s) // 2], plan=None) for s in strata]
        for ws in by_t.values():
            w = ws[len(ws) // 2]
            path = self.wd / f"wilson_{w['t']}_{w['u']}.json"
            path.write_text(wilson_plan(w["t"], w["u"], reg).to_json())
            ops.append({"n": WILSON_M * w["t"] + w["u"], "digest": w["digest"],
                        "plan": path})
        random.Random(self.seed).shuffle(ops)
        self.ops = ops

    def _plan(self, n: int, out: Path):
        """`hmols plan 2 1 n --registry ... --out ...`; None when no plan."""
        reg = pl.Registry.from_json(self.registry.read_text())
        try:
            tree = pl.plan_hmols(2, 1, n, reg)
        except NoPlan:
            return None
        out.write_text(tree.to_json())
        return out

    def _execute(self, plan: Path):
        """`hmols execute plan --registry ... --budget B`: the design and
        whether the package's verifier accepts it."""
        reg = pl.Registry.from_json(self.registry.read_text())
        tree = pl.PlanTree.from_json(plan.read_text())
        design = pl.execute_plan(tree, reg, seed=0, budget=BUDGET)
        return design, dz.verify_design(design).valid

    def _goal_op(self, n: int, out: Path):
        plan = self._plan(n, out)
        return None if plan is None else self._execute(plan)

    def _check(self, p: Pass, key, got, n: int, digest: str) -> None:
        """Full check the first time an op's output is seen; later passes
        must reproduce it exactly."""
        design, valid = got
        if not valid:
            p.fail(f"hmols execute reports HTD(3, 2^{n}) invalid")
        blocks = np.asarray(design.blocks, dtype=np.int64)
        weights = np.arange(1, blocks.size + 1, dtype=np.int64).reshape(blocks.shape)
        fingerprint = (blocks.shape, int(blocks.sum()), int((blocks * weights).sum()),
                       design.group_size, design.index, design.holes)
        if self.seen.get(key) == fingerprint:
            return
        problems = check.htd_problems(blocks, 3, 2, n, design.group_size,
                                      design.index, design.holes)
        if not problems and check.design_digest(
                blocks, design.group_size, design.index, design.holes) != digest:
            problems = ["sorted-block digest differs from the reference"]
        if problems:
            p.fail(f"HTD(3, 2^{n}): {problems}")
        else:
            self.seen[key] = fingerprint

    def run_pass(self, p: Pass) -> None:
        for op in self.ops:
            if op["plan"] is None:
                out = self.wd / f"plan_{op['n']}.json"
                out.unlink(missing_ok=True)
                p.searches += 1
                got = p.timed(self._goal_op, op["n"], out)
                if got is None:
                    continue
                if not isinstance(got, Exception):
                    p.found += 1
                    p.out_bytes += out.stat().st_size
            else:
                got = p.timed(self._execute, op["plan"])
            if not isinstance(got, Exception):
                self._check(p, (op["n"], op["plan"]), got, op["n"], op["digest"])
            del got


WORKLOADS = {w.name: w for w in (CertWorkload, SearchWorkload, PlanWorkload)}
