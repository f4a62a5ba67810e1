"""Effective number theory and bound planning.

The planner chains the compose and cyclotomic constructions into plan
trees over a registry of known facts.  Registry facts are explicit (a
design exists, with fixture, constructible-recipe, or external-table
provenance); external-table facts participate in plan arithmetic but
are never executed, so every executed plan is certificate-backed.

Plan search is a bounded deterministic depth-first search: step kinds
are tried in a fixed order and candidates in ascending order, so the
first (lexicographically smallest) complete plan wins.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import compose as cp
from . import cyclotomic as cy
from . import designs as dz
from . import gf
from .errors import (
    BudgetExceeded,
    IngredientFailure,
    NoGuarantee,
    NoneInInterval,
    NoPlan,
)

# ---------------------------------------------------------------------------
# number theory
# ---------------------------------------------------------------------------


def factor_prime_powers(h: int) -> list[tuple[int, int]]:
    """Prime-power factorization of h >= 1; the list length is omega(h)."""
    if h < 1:
        raise ValueError(f"cannot factor {h}")
    return gf.factorize(h) if h > 1 else []


def lambda_hk(h: int, k: int) -> int:
    """The index prod q_i^(d_i - 1) over the prime-power factors q_i of h,
    with d_i the least integer such that q_i^d_i >= k; exact integer
    arithmetic throughout."""
    if h < 2 or k < 2:
        raise ValueError("need h >= 2 and k >= 2")
    lam = 1
    for p, e in factor_prime_powers(h):
        q_i = p**e
        d = 1
        while q_i**d < k:
            d += 1
        lam *= q_i ** (d - 1)
    return lam


def frobenius_split(a: int, b: int, big_c: int, n: int) -> tuple[int, int]:
    """Write n = a*x + b*y with x >= big_c and y > a*x, scanning the b
    consecutive values x = big_c+1 .. big_c+b for the congruence class.

    Guaranteed for n > a(b+1)(b+big_c); the scan still runs below that
    bound and returns any success, raising NoGuarantee otherwise.
    """
    if min(a, b, big_c, n) < 1:
        raise ValueError("all arguments must be positive")
    if math.gcd(a, b) != 1:
        raise ValueError(f"gcd({a},{b}) != 1")
    for x in range(big_c + 1, big_c + b + 1):
        if (n - a * x) % b == 0:
            y = (n - a * x) // b
            if y > a * x:
                return x, y
    raise NoGuarantee(f"scan failed; n = {n} is not above the bound "
                      f"{a * (b + 1) * (b + big_c)}")


_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for all 64-bit inputs."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def find_prime_1modM(m: int, lo: int, hi: int) -> int:
    """Smallest prime p in (lo, hi] with p = 1 mod m."""
    if m < 1 or lo >= hi:
        raise ValueError("need m >= 1 and lo < hi")
    start = lo + 1
    first = start + (-(start - 1)) % m
    for p in range(first, hi + 1, m):
        if is_prime(p):
            return p
    raise NoneInInterval(f"no prime = 1 mod {m} in ({lo}, {hi}]")


def naive_upper_bound(h: int, n: int) -> int:
    """n - 2, the elementary ceiling on the number of holey squares."""
    if n < 3 or h < 1:
        raise ValueError("need n >= 3 and h >= 1")
    return n - 2


def asymptotic_floor(h: int, n: int, delta: float) -> int:
    """floor((log n)^(1/delta)); an asymptotic calculator only, not a
    certificate, and never admissible as a registry fact."""
    if n < 3:
        raise ValueError("need n >= 3")
    if not delta > 2:
        raise ValueError("the bound requires delta > 2")
    return int(math.log(n) ** (1.0 / delta))


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

FIXTURE = "fixture"
CONSTRUCTIBLE = "constructible"
EXTERNAL = "external-table"

# fact kinds; the *-atleast kinds state the fact for every n >= the bound
TD = "TD"                 # (k, n)
HTD = "HTD"               # (k, h, n)
ITD = "ITD"               # (k, n, h)
TD_ATLEAST = "TD-atleast"     # (k, n_min)
HTD_ATLEAST = "HTD-atleast"   # (k, h, n_min)
RECIPE = "recipe"         # (name,)


@dataclass
class Registry:
    """Facts (kind, params) -> provenance, plus runtime-attached designs
    for fixture facts.  Attached designs are never serialized."""

    facts: dict = field(default_factory=dict)
    designs: dict = field(default_factory=dict)

    def add(self, kind: str, params, source: str, recipe: dict | None = None,
            citation: str | None = None) -> None:
        prov = {"source": source}
        if recipe is not None:
            prov["recipe"] = recipe
        if citation is not None:
            prov["citation"] = citation
        self.facts[(kind, tuple(params))] = prov

    def attach_design(self, kind: str, params, design) -> None:
        self.designs[(kind, tuple(params))] = design

    # -- queries; wider designs imply narrower ones by group restriction ---

    def _match(self, kind: str, pred):
        hits = [key for key in self.facts if key[0] == kind and pred(key[1])]
        return sorted(hits)

    def find_td(self, k: int, n: int):
        exact = self._match(TD, lambda p: p[0] >= k and p[1] == n)
        ranged = self._match(TD_ATLEAST, lambda p: p[0] >= k and p[1] <= n)
        return exact + ranged

    def find_htd(self, k: int, h: int, n: int):
        exact = self._match(HTD, lambda p: p[0] >= k and p[1] == h and p[2] == n)
        ranged = self._match(HTD_ATLEAST,
                             lambda p: p[0] >= k and p[1] == h and p[2] <= n)
        return exact + ranged

    def find_itd(self, k: int, n: int, h: int):
        return self._match(ITD, lambda p: p[0] >= k and p[1] == n and p[2] == h)

    def has_recipe(self, name: str) -> bool:
        return (RECIPE, (name,)) in self.facts

    def itd_hole_sizes(self, k: int, h: int):
        """Group sizes n of known ITD(k', (n; h)) facts with k' >= k."""
        return sorted({p[1] for kind, p in self.facts if kind == ITD
                       and p[0] >= k and p[2] == h})

    def to_json(self) -> str:
        rows = [{"kind": kind, "params": list(params), "provenance": prov}
                for (kind, params), prov in sorted(self.facts.items())]
        return json.dumps(rows, sort_keys=True, indent=1) + "\n"

    @staticmethod
    def from_json(text: str) -> "Registry":
        reg = Registry()
        for row in json.loads(text):
            reg.facts[(row["kind"], tuple(row["params"]))] = row["provenance"]
        return reg


# ---------------------------------------------------------------------------
# plan trees
# ---------------------------------------------------------------------------

STEP_FIXTURE = "fixture"
STEP_TRIVIAL = "trivial"
STEP_CYCLOTOMIC = "cyclotomic"
STEP_DIAG = "diag-product"
STEP_WILSON = "wilson"


@dataclass
class PlanTree:
    """goal = (h, n, k): k holey squares of type h^n; children hold the
    holey sub-goals, leaf requirements reference registry facts."""

    goal: tuple
    step: dict
    children: dict = field(default_factory=dict)

    def to_doc(self):
        return {"goal": list(self.goal), "step": self.step,
                "children": {role: sub.to_doc()
                             for role, sub in sorted(self.children.items())}}

    def to_json(self) -> str:
        return json.dumps(self.to_doc(), sort_keys=True, indent=1) + "\n"

    @staticmethod
    def from_doc(doc) -> "PlanTree":
        return PlanTree(goal=tuple(doc["goal"]), step=doc["step"],
                        children={role: PlanTree.from_doc(sub)
                                  for role, sub in doc["children"].items()})

    @staticmethod
    def from_json(text: str) -> "PlanTree":
        return PlanTree.from_doc(json.loads(text))


def _fact_key(doc):
    return (doc[0], tuple(doc[1]))


def validate_plan(tree: PlanTree, reg: Registry) -> None:
    """Re-check every arithmetic identity and registry membership; raises
    NoPlan with the offending node on failure."""
    h, n, k = tree.goal
    kind = tree.step["kind"]
    if kind == STEP_FIXTURE:
        key = _fact_key(tree.step["fact"])
        if key not in reg.facts:
            raise NoPlan(f"fixture fact {key} missing from the registry")
        fk, params = key
        if fk == HTD:
            if not (params[0] >= k + 2 and params[1] == h and params[2] == n):
                raise NoPlan(f"fact {key} does not supply HTD({k + 2},{h}^{n})")
        elif fk == HTD_ATLEAST:
            if not (params[0] >= k + 2 and params[1] == h and params[2] <= n):
                raise NoPlan(f"range fact {key} does not cover n = {n}")
        else:
            raise NoPlan(f"fact {key} is not a holey-design fact")
    elif kind == STEP_TRIVIAL:
        if n != 1:
            raise NoPlan("the trivial step only covers a single hole")
    elif kind == STEP_CYCLOTOMIC:
        q, lam = tree.step["q"], tree.step["lam"]
        if q != n or not is_prime(q):
            raise NoPlan(f"cyclotomic step needs prime q = n, got {q}")
        if lam != lambda_hk(h, k + 2) or (q - 1) % lam != 0:
            raise NoPlan("cyclotomic index inconsistent with the goal")
    elif kind == STEP_DIAG:
        m, n2 = tree.step["m"], tree.step["n2"]
        if m * n2 != n:
            raise NoPlan(f"diag arithmetic broken: {m} * {n2} != {n}")
        if _fact_key(tree.step["unit_fact"]) not in reg.facts or \
                _fact_key(tree.step["td_fact"]) not in reg.facts:
            raise NoPlan("diag ingredient facts missing")
        sub = tree.children["diagonal"]
        if sub.goal != (h, n2, k):
            raise NoPlan("diag child goal mismatch")
        validate_plan(sub, reg)
    elif kind == STEP_WILSON:
        m, t, u = tree.step["m"], tree.step["t"], tree.step["u"]
        if m * t + u != n or not 0 <= u < t:
            raise NoPlan(f"wilson arithmetic broken: {m}*{t}+{u} != {n}")
        for role in ("t_fact", "td_fact", "itd_fact"):
            if _fact_key(tree.step[role]) not in reg.facts:
                raise NoPlan(f"wilson ingredient fact {role} missing")
        layer = tree.children["layer"]
        if layer.goal != (h, m, k):
            raise NoPlan("wilson layer goal mismatch")
        validate_plan(layer, reg)
        if u > 0:
            trunc = tree.children["truncation"]
            if trunc.goal != (h, u, k):
                raise NoPlan("wilson truncation goal mismatch")
            validate_plan(trunc, reg)
    else:
        raise NoPlan(f"unknown step kind {kind!r}")


# ---------------------------------------------------------------------------
# plan search
# ---------------------------------------------------------------------------

DEFAULT_DEPTH = 4
DEFAULT_WIDTH = 10_000


def plan_hmols(h: int, k: int, n: int, reg: Registry,
               depth: int = DEFAULT_DEPTH, width: int = DEFAULT_WIDTH) -> PlanTree:
    """Bounded deterministic search for a plan certifying N(h^n) >= k.

    Steps are tried in the order fixture, trivial, cyclotomic, diagonal
    product, Wilson composition; numeric candidates ascend.  NoPlan is
    advisory: it only means nothing was found within the limits.
    """
    if h < 1 or k < 1 or n < 1:
        raise ValueError("need h, k, n >= 1")
    tree = _search(h, k, n, reg, depth, width)
    if tree is None:
        raise NoPlan(f"no plan for {k} HMOLS of type {h}^{n} within limits")
    validate_plan(tree, reg)
    return tree


def _search(h, k, n, reg, depth, width):
    goal = (h, n, k)
    hits = reg.find_htd(k + 2, h, n)
    if hits:
        return PlanTree(goal=goal, step={"kind": STEP_FIXTURE,
                                         "fact": [hits[0][0], list(hits[0][1])]})
    if n == 1:
        return PlanTree(goal=goal, step={"kind": STEP_TRIVIAL})
    if h >= 2 and reg.has_recipe("cyclotomic") and is_prime(n):
        lam = lambda_hk(h, k + 2)
        if (n - 1) % lam == 0 and n > lam ** ((k + 2) * (k + 1)):
            return PlanTree(goal=goal,
                            step={"kind": STEP_CYCLOTOMIC, "q": n, "lam": lam})
    if depth <= 0:
        return None

    # diagonal product over divisor splits n = m * n2
    tried = 0
    for m in sorted(d for d in range(2, n) if n % d == 0):
        n2 = n // m
        if n2 < 2:
            continue
        tried += 1
        if tried > width:
            break
        unit = reg.find_htd(k + 2, 1, m)
        td = reg.find_td(k + 2, h * n2)
        if not unit or not td:
            continue
        sub = _search(h, k, n2, reg, depth - 1, width)
        if sub is not None:
            step = {"kind": STEP_DIAG, "m": m, "n2": n2,
                    "unit_fact": [unit[0][0], list(unit[0][1])],
                    "td_fact": [td[0][0], list(td[0][1])]}
            return PlanTree(goal=goal, step=step, children={"diagonal": sub})

    # Wilson composition n = m*t + u; m ranges over hole sizes with a
    # known incomplete ingredient
    tried = 0
    for hm_plus in reg.itd_hole_sizes(k + 2, h):
        if (hm_plus - h) % h != 0:
            continue
        m = (hm_plus - h) // h
        if m < 1 or not reg.find_td(k + 2, h * m):
            continue
        t_lo = n // (m + 1) + 1
        t_hi = n // m
        for t in range(t_lo, t_hi + 1):
            u = n - m * t
            if not 0 <= u < t:
                continue
            tried += 1
            if tried > width:
                break
            t_fact = reg.find_td(k + 3, t)
            if not t_fact:
                continue
            layer = _search(h, k, m, reg, depth - 1, width)
            if layer is None:
                continue
            children = {"layer": layer}
            if u > 0:
                trunc = _search(h, k, u, reg, depth - 1, width)
                if trunc is None:
                    continue
                children["truncation"] = trunc
            itd = reg.find_itd(k + 2, h * m + h, h)
            td = reg.find_td(k + 2, h * m)
            step = {"kind": STEP_WILSON, "m": m, "t": t, "u": u,
                    "t_fact": [t_fact[0][0], list(t_fact[0][1])],
                    "td_fact": [td[0][0], list(td[0][1])],
                    "itd_fact": [itd[0][0], list(itd[0][1])]}
            return PlanTree(goal=goal, step=step, children=children)
    return None


# ---------------------------------------------------------------------------
# plan execution
# ---------------------------------------------------------------------------

DEFAULT_EXEC_BLOCKS = 5_000_000


def _estimate_blocks(tree: PlanTree) -> int:
    h, n, k = tree.goal
    return h * h * n * max(n - 1, 0)


def _recipe_design(recipe: dict):
    op = recipe.get("op")
    if op == "td_from_field":
        return dz.td_from_field(recipe["k"], recipe["q"])
    if op == "unit_hole_htd":
        return dz.unit_hole_htd(recipe["k"], recipe["q"])
    if op == "marked_product_itd":
        marked = cp.mark_trivial(dz.td_from_field(recipe["k"], recipe["q2"]))
        return cp.td_product(dz.td_from_field(recipe["k"], recipe["q1"]), marked)
    if op == "subfield_itd":
        return cp.mark_subfield(recipe["k"], recipe["q"], recipe["sub"])
    if op == "fixture":
        from . import fixtures
        if recipe["name"] == "hmols_2_4":
            return dz.hmols_to_htd(fixtures.hmols_pair_2_4())
        if recipe["name"] == "imols_6_2":
            return dz.imols_to_itd(fixtures.imols_pair_6_2())
        raise IngredientFailure(f"unknown fixture {recipe['name']!r}")
    raise IngredientFailure(f"unknown recipe op {op!r}")


def _restrict_to(d, k: int):
    """The first k groups of a design, or of a marked design and its mark."""
    if isinstance(d, cp.MarkedDesign):
        return d if d.design.k == k else cp.MarkedDesign(
            design=_restrict_to(d.design, k), sub_points=d.sub_points[:k],
            sub_blocks=d.sub_blocks)
    return d if d.k == k else dz.restrict_groups(d, list(range(k)))


def _resolve(reg: Registry, keys, k: int, what: str):
    """Materialize the first resolvable fact as a (marked) design on k groups."""
    errors = []
    for key in keys:
        prov = reg.facts[key]
        if key in reg.designs:
            design = reg.designs[key]
            return _restrict_to(design() if callable(design) else design, k)
        if prov["source"] == CONSTRUCTIBLE:
            return _restrict_to(_recipe_design(prov["recipe"]), k)
        errors.append(f"{key} has source {prov['source']!r}")
    raise IngredientFailure(f"cannot materialize {what}: {errors or 'no fact'}")


def _build_td_lambda(h: int, k: int) -> dz.BlockDesign:
    """TD of index lambda(h,k) and group size h: projections of the
    prime-power factors of h, multiplied together."""
    parts = []
    for p, e in factor_prime_powers(h):
        q_i = p**e
        d = 1
        while q_i**d < k:
            d += 1
        parts.append(cy.td_projection(q_i, d, k))
    out = parts[0]
    for nxt in parts[1:]:
        out = cp.td_product(out, nxt)
    return out


def execute_plan(p: PlanTree, reg: Registry, seed: int = 0,
                 budget: int = cy.DEFAULT_BUDGET,
                 max_blocks: int = DEFAULT_EXEC_BLOCKS) -> dz.BlockDesign:
    """Run the plan bottom-up through the compose and cyclotomic builders,
    verifying at every node, and return the goal HTD."""
    validate_plan(p, reg)
    if _estimate_blocks(p) > max_blocks:
        raise BudgetExceeded(f"goal {p.goal} needs about {_estimate_blocks(p)} "
                             f"blocks, over the cap {max_blocks}")
    h, n, k = p.goal
    groups = k + 2
    kind = p.step["kind"]
    try:
        if kind == STEP_FIXTURE:
            d = _resolve(reg, [_fact_key(p.step["fact"])], groups, "fixture HTD")
            rep = dz.verify_design(d)
            if not rep.valid:
                raise IngredientFailure(f"fixture fails verification: "
                                        f"{rep.violations[:3]}")
            return d
        if kind == STEP_TRIVIAL:
            return dz.BlockDesign.new(
                k=groups, group_size=h, index=1,
                blocks=np.empty((0, groups), dtype=np.int32),
                hole_kind=dz.HOLE_UNIFORM, holes=(tuple(range(h)),))
        if kind == STEP_CYCLOTOMIC:
            td = _build_td_lambda(h, groups)
            return cy.expand_td_to_htd(td, p.step["q"], seed=seed, budget=budget)
        if kind == STEP_DIAG:
            a = _resolve(reg, [_fact_key(p.step["unit_fact"])], groups, "unit HTD")
            b = _resolve(reg, [_fact_key(p.step["td_fact"])], groups, "cross TD")
            c = execute_plan(p.children["diagonal"], reg, seed, budget, max_blocks)
            return cp.diag_product(a, b, c)
        if kind == STEP_WILSON:
            u = p.step["u"]
            r = _resolve(reg, [_fact_key(p.step["t_fact"])], groups + 1,
                         "resolvable TD")
            b = _resolve(reg, [_fact_key(p.step["td_fact"])], groups, "cross TD")
            a = execute_plan(p.children["layer"], reg, seed, budget, max_blocks)
            e = f = None
            if u > 0:
                e = _resolve(reg, [_fact_key(p.step["itd_fact"])], groups,
                             "incomplete TD")
                f = execute_plan(p.children["truncation"], reg, seed, budget,
                                 max_blocks)
            return cp.wilson_compose(r, a, b, e, f, u)
    except IngredientFailure:
        raise
    except Exception as exc:
        raise IngredientFailure(f"subtree {p.goal} failed: {exc}") from exc
    raise IngredientFailure(f"unknown step {kind!r}")
