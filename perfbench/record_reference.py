"""Record the reference data the benchmark checks against.

    python3 perfbench/record_reference.py

Writes perfbench/reference.json (and the small smoke certificate
perfbench/cert_smoke.json) from the package as it stands: the sorted-block
digest of every design the workloads can produce, and the pool of
plan-exec goals with their plan shapes.  Every design is checked by the
independent checker before its digest is recorded.  Run it again only
when a change is meant to alter which design an input yields, and say so
in CHANGES.md.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from hmols import cyclotomic as cy  # noqa: E402
from hmols import formats  # noqa: E402
from hmols import planner as pl  # noqa: E402
from hmols.errors import NoPlan  # noqa: E402

import check  # noqa: E402
import workloads as wl  # noqa: E402

MAX_N = 520
WILSON_T = wl._prime_powers(3, 64)
SMOKE = {"h": 2, "d": 3, "cols": [0, 1, 2, 3, 5], "q": 37, "seed": 0}


def developed_digest(cert_path: Path, spec: dict) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "htd.json"
        code, _ = wl.run_cli(["develop", cert_path, "--out", out])
        assert code == 0, f"develop {cert_path} exited {code}"
        doc = json.loads(out.read_text())
    blocks = doc["blocks"]
    probs = check.htd_problems(blocks, spec["k"], spec["h"], spec["q"],
                               doc["group_size"], doc["index"], doc["holes"])
    assert not probs, probs
    return check.design_digest(blocks, doc["group_size"], doc["index"], doc["holes"])


def smoke_certificate() -> dict:
    """A small certificate shaped like the GF(401) fixture: vectors at
    template width with blanks, no column selection."""
    s = SMOKE
    sol = cy.search_uvectors(s["h"], s["d"], s["cols"], s["q"], seed=s["seed"])
    width = s["h"] ** s["d"]
    u = [[None] * width for _ in sol.u]
    for i, vec in enumerate(sol.u):
        for c, x in zip(sol.col_selection, vec):
            u[i][c] = x
    return {"h": s["h"], "d": s["d"], "q": s["q"], "omega": sol.omega,
            "col_selection": None, "u_vectors": u, "seed": s["seed"]}


def shape(tree: pl.PlanTree) -> str:
    """Root step kind and the largest extension-field order (0 for none)
    among the TD facts of the tree: digit-loop field arithmetic dominates
    the cost of the plans that build those TDs."""
    def orders(t):
        for role in ("td_fact", "t_fact"):
            if role in t.step:
                q = t.step[role][1][1]
                if pl.factor_prime_powers(q)[0][1] > 1:
                    yield q
        for sub in t.children.values():
            yield from orders(sub)
    return f"{tree.step['kind']}/{max(orders(tree), default=0)}"


def design_record(design, n: int) -> str:
    probs = check.htd_problems(design.blocks, 3, 2, n, design.group_size,
                               design.index, design.holes)
    assert not probs, (n, probs)
    return check.design_digest(design.blocks, design.group_size, design.index,
                               design.holes)


def main() -> None:
    ref = {}
    spec = {"k": 11, "h": 2, "q": 401, "d": 4}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cert.json"
        path.write_text(wl.fixture_text("cert_2_401.json"))
        spec["digest"] = developed_digest(path, spec)
    ref["cert-401"] = spec

    smoke_path = HERE / "cert_smoke.json"
    smoke_path.write_text(formats.cert_dumps(smoke_certificate()))
    spec = {"file": smoke_path.name, "k": len(SMOKE["cols"]), "h": SMOKE["h"],
            "q": SMOKE["q"], "d": SMOKE["d"]}
    spec["digest"] = developed_digest(smoke_path, spec)
    ref["cert-smoke"] = spec

    reg = wl.build_registry()
    goals = []
    for n in range(2, MAX_N + 1):
        try:
            tree = pl.plan_hmols(2, 1, n, reg)
        except NoPlan:
            continue
        design = pl.execute_plan(tree, reg, seed=0, budget=wl.BUDGET)
        goals.append({"n": n, "shape": shape(tree), "digest": design_record(design, n)})
        print(f"goal {n} {goals[-1]['shape']}", file=sys.stderr)
    ref["plan_goals"] = goals

    wilson = []
    for t in WILSON_T:
        for u in range(1, t):
            try:
                tree = wl.wilson_plan(t, u, reg)
            except NoPlan:
                continue
            design = pl.execute_plan(tree, reg, seed=0, budget=wl.BUDGET)
            wilson.append({"t": t, "u": u,
                           "digest": design_record(design, wl.WILSON_M * t + u)})
        print(f"wilson t={t}: {sum(w['t'] == t for w in wilson)} plans", file=sys.stderr)
    ref["wilson_plans"] = wilson
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
