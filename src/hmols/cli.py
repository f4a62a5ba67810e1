"""Command-line surface.

Subcommands cover the whole library: template/cosets inspection, the
projection and expansion constructions, certificate search and
development, verification of grid and design files, format conversion,
compositions, bound calculators, and plan search/execution.

Exit codes: 0 success or valid, 1 invalid-design verdict, 2 usage
error, 3 search exhausted (or nothing found in the requested range).
The HMOLS_BUDGET environment variable sets the default search budget.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
from pathlib import Path

from . import compose as cp
from . import cyclotomic as cy
from . import designs as dz
from . import formats
from . import planner as pl
from .errors import Exhausted, HmolsError, MalformedInput

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2
EXIT_EXHAUSTED = 3


def _budget(args) -> int:
    """The search budget: --budget, else HMOLS_BUDGET, else the default.
    A negative or non-integer value is a usage error naming its source."""
    source, value = "--budget", args.budget
    if value is None:
        source, value = "HMOLS_BUDGET", os.environ.get("HMOLS_BUDGET", cy.DEFAULT_BUDGET)
    try:
        budget = int(value)
        if budget >= 0:
            return budget
    except ValueError:
        pass
    raise ValueError(f"{source} must be a non-negative integer, got {value!r}")


def _print_verdict(report, as_json: bool, label: str) -> int:
    if as_json:
        doc = {"target": label, "valid": report.valid,
               "violations": [[kind, list(w)] for kind, w in report.violations]}
        print(json.dumps(doc, sort_keys=True))
    elif report.valid:
        print(f"{label}: valid")
    else:
        print(f"{label}: INVALID ({len(report.violations)} violations)")
        for kind, witness in report.violations[:20]:
            print(f"  {kind} {witness}")
        if len(report.violations) > 20:
            print(f"  ... and {len(report.violations) - 20} more")
    return EXIT_OK if report.valid else EXIT_INVALID


class _FileBytes(bytearray):
    """A design or grid file's bytes, read into one buffer.  Like the text
    they hold, they answer encode() with their UTF-8 form, themselves, so
    that code which sizes a reader's input as len(text.encode()), as
    perfbench's tracer does, works on them too."""

    def encode(self, encoding="utf-8", errors="strict") -> bytearray:
        return self


def _read(path: str) -> bytearray:
    """A design or grid file's bytes as reading it as text gives them: the
    line ends of a file with a carriage return become newlines, and bytes
    that are not UTF-8 raise as they do there.  The file is read into a
    buffer of its size, so that it is held once."""
    with open(path, "rb") as fh:
        data = _FileBytes(os.fstat(fh.fileno()).st_size)
        del data[fh.readinto(data):]  # the file shrank since its size was taken
        data += fh.read()  # or grew
    if b"\r" in data:
        text = data.decode("utf-8")
        data = _FileBytes(text.replace("\r\n", "\n").replace("\r", "\n").encode())
    return data


def _load_any(path: str):
    data = _read(path)
    if path.endswith(".json"):
        return formats.design_loads(data)
    return formats.grid_loads(data)


def _load_design(path: str) -> dz.BlockDesign:
    """A design file; a grid where a design is expected is a usage error."""
    obj = _load_any(path)
    if not isinstance(obj, dz.BlockDesign):
        raise MalformedInput(f"{path} holds a {type(obj).__name__} grid, "
                             f"not a block design")
    return obj


def _verify_obj(obj):
    if isinstance(obj, dz.LatinSquare):
        return dz.verify_latin(obj)
    if isinstance(obj, dz.HoleyLatinSquareSet):
        return dz.verify_hmols(obj)
    if isinstance(obj, dz.IncompleteMolsSet):
        return dz.verify_imols(obj)
    return dz.verify_design(obj)


def _write_or_print(pieces, out: str | None) -> None:
    """Write byte pieces in order to the file out, or to stdout, one piece
    at a time: the whole output is never joined.  A stdout with no binary
    buffer under it (a StringIO, say) takes the pieces decoded."""
    if out:
        with open(out, "wb") as fh:
            fh.writelines(pieces)
        return
    buffer = getattr(sys.stdout, "buffer", None)
    if buffer is None:
        sys.stdout.writelines(p.decode() for p in pieces)
    else:
        sys.stdout.flush()  # what was printed before comes first
        buffer.writelines(pieces)


# -- subcommand handlers -----------------------------------------------------


def _cmd_template(args) -> int:
    t = cy.template(args.h, args.d)
    for row in t.entries:
        print(" ".join(str(int(x)) for x in row))
    return EXIT_OK


def _cmd_project(args) -> int:
    td = cy.td_projection(args.h, args.d, args.k, cols=args.cols)
    _write_or_print(formats._design_pieces(td), args.out)
    return EXIT_OK


def _cmd_cosets(args) -> int:
    t = cy.template(args.h, args.d)
    cols = args.cols if args.cols else list(range(min(args.k or t.size, t.size)))
    table = cy.allowed_cosets(t, cols)
    for i, j in itertools.combinations(range(t.h), 2):
        for r, s in itertools.combinations(range(len(cols)), 2):
            allowed = table.allowed[i, j, r, s]
            classes = ",".join(str(c) for c in range(t.lam) if allowed[c])
            print(f"blocks {i + 1},{j + 1} cols {cols[r]},{cols[s]}: {classes}")
    return EXIT_OK


def _solution_from_cert(cert):
    """Rebuild a validated solution; recovers the column assignment by the
    complete matching search when the certificate omits it."""
    if cert.get("col_selection") is None:
        t = cy.template(cert["h"], cert["d"])
        assign = cy.match_columns(t, cert["u_vectors"], cert["q"])
        positions = [p for p in range(t.size)
                     if cert["u_vectors"][0][p] is not None]
        u = [[vec[p] for p in positions] for vec in cert["u_vectors"]]
    else:
        assign, u = cert["col_selection"], cert["u_vectors"]
    return cy.verify_uvectors(cert["h"], cert["d"], assign, cert["q"], u,
                              omega=cert.get("omega"), seed=cert.get("seed"))


def _cmd_search(args) -> int:
    if args.verify:
        sol = _solution_from_cert(formats.cert_loads(Path(args.verify).read_text()))
        rep = cy.verify_rdm(cy.assemble_rdf(sol))
        if not rep.valid:
            return _print_verdict(rep, args.json, "certificate")
        _write_or_print([formats.cert_dumps(sol.to_cert()).encode()], args.out)
        print(f"certificate valid: columns {list(sol.col_selection)}",
              file=sys.stderr)
        return EXIT_OK
    if None in (args.h, args.d, args.q) or not args.cols:
        print("error: search needs h d q --cols ... (or --verify CERT)",
              file=sys.stderr)
        return EXIT_USAGE
    sol = cy.search_uvectors(args.h, args.d, args.cols, args.q,
                             seed=args.seed, budget=_budget(args))
    _write_or_print([formats.cert_dumps(sol.to_cert()).encode()], args.out)
    return EXIT_OK


def _cmd_develop(args) -> int:
    sol = _solution_from_cert(formats.cert_loads(Path(args.cert).read_text()))
    htd = cy.develop_rdf(cy.assemble_rdf(sol))
    rep = dz.verify_design(htd)
    label = f"HTD({htd.k},{htd.hole_size}^{htd.hole_count})"
    if args.out and rep.valid:
        _write_or_print(formats._design_pieces(htd), args.out)
    return _print_verdict(rep, args.json, label)


def _cmd_expand(args) -> int:
    td = _load_design(args.tdfile)
    htd = cy.expand_td_to_htd(td, args.q, seed=args.seed, budget=_budget(args))
    _write_or_print(formats._design_pieces(htd), args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    obj = _load_any(args.file)
    return _print_verdict(_verify_obj(obj), args.json, args.file)


def _cmd_convert(args) -> int:
    if args.to == "hmols":
        hm = dz.htd_to_hmols(_load_design(args.file))
        _write_or_print(formats._grid_pieces(hm), args.out)
        return EXIT_OK
    obj = _load_any(args.file)
    if isinstance(obj, dz.HoleyLatinSquareSet):
        out = dz.hmols_to_htd(obj)
    elif isinstance(obj, dz.IncompleteMolsSet):
        out = dz.imols_to_itd(obj)
    else:
        raise MalformedInput("convert --to htd needs a square-set grid")
    _write_or_print(formats._design_pieces(out), args.out)
    return EXIT_OK


# per op: the numbers of ingredient files it takes, and the usage line
_COMPOSE_USAGE = {
    "product": ((2,), "D1 D2"),
    "diag": ((3,), "A B C"),
    "wilson": ((3, 5), "R A B [E F]"),
    "truncate": ((4, 5), "R2 DM DM1 DM2 [DU] [--v V]"),
}


def _cmd_compose(args) -> int:
    counts, usage = _COMPOSE_USAGE[args.op]
    if len(args.ingredients) not in counts:
        raise ValueError(f"usage: hmols compose {args.op} {usage}")
    ds = [_load_design(f) for f in args.ingredients]
    if args.op == "product":
        out = cp.td_product(*ds)
    elif args.op == "diag":
        out = cp.diag_product(*ds)
    elif args.op == "wilson":
        out = cp.wilson_compose(*ds)
    else:
        out = cp.itd_truncate_compose(*ds, v=args.v)
    _write_or_print(formats._design_pieces(out), args.out)
    return EXIT_OK


def _cmd_plan(args) -> int:
    reg = pl.Registry.from_json(Path(args.registry).read_text())
    tree = pl.plan_hmols(args.h, args.k, args.n, reg)
    _write_or_print([tree.to_json().encode()], args.out)
    return EXIT_OK


def _cmd_execute(args) -> int:
    reg = pl.Registry.from_json(Path(args.registry).read_text())
    tree = pl.PlanTree.from_json(Path(args.plan).read_text())
    out = pl.execute_plan(tree, reg, seed=args.seed, budget=_budget(args))
    rep = dz.verify_design(out)
    if args.out and rep.valid:
        _write_or_print(formats._design_pieces(out), args.out)
    return _print_verdict(rep, args.json,
                          f"HTD({out.k},{out.hole_size}^{out.hole_count})")


def _cmd_bound(args) -> int:
    if args.calc == "upper":
        print(pl.naive_upper_bound(args.a, args.b))
    elif args.calc == "lambda":
        print(pl.lambda_hk(args.a, args.b))
    elif args.calc == "asymptotic":
        value = pl.asymptotic_floor(args.a, args.b, args.delta)
        print(f"{value} (asymptotic, not a certificate)")
    elif args.calc == "frobenius":
        x, y = pl.frobenius_split(args.a, args.b, args.c, args.n)
        print(f"{x} {y}")
    else:
        print(pl.find_prime_1modM(args.a, args.b, args.c))
    return EXIT_OK


# -- parser ---------------------------------------------------------------------


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="hmols",
                                 description="holey MOLS and transversal "
                                             "design toolkit")
    ap.add_argument("--json", action="store_true",
                    help="machine-readable verdicts on stdout")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("template", help="print the dot-product template")
    p.add_argument("h", type=int)
    p.add_argument("d", type=int)
    p.set_defaults(fn=_cmd_template)

    p = sub.add_parser("project", help="TD of index h^(d-1) on k groups")
    p.add_argument("h", type=int)
    p.add_argument("d", type=int)
    p.add_argument("k", type=int)
    p.add_argument("--cols", type=int, nargs="*", default=None)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_project)

    p = sub.add_parser("cosets", help="allowed coset table")
    p.add_argument("h", type=int)
    p.add_argument("d", type=int)
    p.add_argument("--cols", type=int, nargs="*", default=None)
    p.add_argument("--k", type=int, default=None)
    p.set_defaults(fn=_cmd_cosets)

    p = sub.add_parser("search", help="search difference vectors over GF(q)")
    p.add_argument("h", type=int, nargs="?")
    p.add_argument("d", type=int, nargs="?")
    p.add_argument("q", type=int, nargs="?")
    p.add_argument("--cols", type=int, nargs="*", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--verify", help="validate a certificate file instead")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_search)

    p = sub.add_parser("develop", help="rebuild and verify an HTD from a certificate")
    p.add_argument("cert")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_develop)

    p = sub.add_parser("expand", help="expand an indexed TD over GF(q)")
    p.add_argument("tdfile")
    p.add_argument("q", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_expand)

    p = sub.add_parser("verify", help="verify a grid or design file")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("convert", help="convert between square sets and designs")
    p.add_argument("file")
    p.add_argument("--to", choices=("hmols", "htd"), required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_convert)

    p = sub.add_parser("compose", help="run a composition on design files")
    p.add_argument("op", choices=("product", "diag", "wilson", "truncate"))
    p.add_argument("ingredients", nargs="+")
    p.add_argument("--v", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_compose)

    p = sub.add_parser("plan", help="search for a construction plan")
    p.add_argument("h", type=int)
    p.add_argument("k", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--registry", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_plan)

    p = sub.add_parser("execute", help="execute a plan against a registry")
    p.add_argument("plan")
    p.add_argument("--registry", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_execute)

    p = sub.add_parser("bound", help="bound calculators")
    p.add_argument("calc", choices=("upper", "asymptotic", "lambda",
                                    "frobenius", "prime"))
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("c", type=int, nargs="?")
    p.add_argument("n", type=int, nargs="?")
    p.add_argument("--delta", type=float, default=2.5)
    p.set_defaults(fn=_cmd_bound)

    return ap


def run(argv) -> int:
    """Dispatch one invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.fn(args)
    except Exhausted as exc:
        print(f"exhausted: {exc}", file=sys.stderr)
        return EXIT_EXHAUSTED
    except (HmolsError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
