"""Effective number theory and bound planning.

The planner chains the compose and cyclotomic constructions into plan
trees over a registry of known facts.  Registry facts are explicit (a
design exists, with fixture, constructible-recipe, or external-table
provenance); a constructible fact's recipe builds one plain design, and
fixture, external-table and range (*-atleast) facts participate in plan
arithmetic but are never built, so every executed plan is
certificate-backed.  What each step needs, its registry facts and its
children's goals, is stated once (_needs) and read by plan search,
validation and execution alike.

Plan search is a bounded deterministic depth-first search: step kinds
are tried in a fixed order and candidates in ascending order, so the
first (lexicographically smallest) complete plan wins.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

from . import compose as cp
from . import cyclotomic as cy
from . import designs as dz
from . import gf
from .designs import MAX_EXEC_BLOCKS  # estimated goal blocks an execution may build
from .errors import Exhausted, HmolsError, MalformedInput, NoPlan

# ---------------------------------------------------------------------------
# number theory
# ---------------------------------------------------------------------------


# prime-power factorization of h >= 1 as (prime, exponent) pairs, omega(h) of them
factor_prime_powers = gf.factorize


def _lambda_parts(h: int, k: int):
    """(q_i, d_i) for each prime-power factor q_i of h, with d_i the least
    integer such that q_i^d_i >= k."""
    for p, e in factor_prime_powers(h):
        q_i, d = p**e, 1
        while q_i**d < k:
            d += 1
        yield q_i, d


def lambda_hk(h: int, k: int) -> int:
    """The index prod q_i^(d_i - 1) over the prime-power factors q_i of h;
    exact integer arithmetic throughout."""
    if h < 2 or k < 2:
        raise MalformedInput("need h >= 2 and k >= 2")
    return math.prod(q_i ** (d - 1) for q_i, d in _lambda_parts(h, k))


def frobenius_split(a: int, b: int, big_c: int, n: int) -> tuple[int, int]:
    """Write n = a*x + b*y with x >= big_c and y > a*x, scanning the b
    consecutive values x = big_c+1 .. big_c+b for the congruence class.

    Guaranteed for n > a(b+1)(b+big_c); the scan still runs below that
    bound and returns any success, raising MalformedInput otherwise.
    """
    if min(a, b, big_c, n) < 1:
        raise MalformedInput("all arguments must be positive")
    if math.gcd(a, b) != 1:
        raise MalformedInput(f"gcd({a},{b}) != 1")
    for x in range(big_c + 1, big_c + b + 1):
        if (n - a * x) % b == 0:
            y = (n - a * x) // b
            if y > a * x:
                return x, y
    raise MalformedInput(f"scan failed; n = {n} is not above the bound "
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
        raise MalformedInput("need m >= 1 and lo < hi")
    start = lo + 1
    first = start + (-(start - 1)) % m
    for p in range(first, hi + 1, m):
        if is_prime(p):
            return p
    raise Exhausted(f"no prime = 1 mod {m} in ({lo}, {hi}]")


def naive_upper_bound(h: int, n: int) -> int:
    """n - 2, the elementary ceiling on the number of holey squares."""
    if n < 3 or h < 1:
        raise MalformedInput("need n >= 3 and h >= 1")
    return n - 2


def asymptotic_floor(h: int, n: int, delta: float) -> int:
    """floor((log n)^(1/delta)); an asymptotic calculator only, not a
    certificate, and never admissible as a registry fact."""
    if n < 3:
        raise MalformedInput("need n >= 3")
    if not delta > 2:
        raise MalformedInput("the bound requires delta > 2")
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
_ARITY = {TD: 2, HTD: 3, ITD: 3, TD_ATLEAST: 2, HTD_ATLEAST: 3, RECIPE: 1}
_RANGE_OF = {TD: TD_ATLEAST, HTD: HTD_ATLEAST}


def _is_fact_row(row) -> bool:
    """A registry row: a known kind with its number of integer params (one
    name for a recipe) and a provenance naming its source."""
    if not isinstance(row, dict) or not isinstance(row.get("kind"), str) \
            or row["kind"] not in _ARITY:
        return False
    params, prov = row.get("params"), row.get("provenance")
    want = str if row["kind"] == RECIPE else int
    return (isinstance(params, list) and len(params) == _ARITY[row["kind"]]
            and all(type(x) is want for x in params)
            and isinstance(prov, dict) and isinstance(prov.get("source"), str))


@dataclass
class Registry:
    """Facts (kind, params) -> provenance."""

    facts: dict = field(default_factory=dict)

    def add(self, kind: str, params, source: str, recipe: dict | None = None,
            citation: str | None = None) -> None:
        prov = {"source": source}
        if recipe is not None:
            prov["recipe"] = recipe
        if citation is not None:
            prov["citation"] = citation
        self._put({"kind": kind, "params": list(params), "provenance": prov})

    def _put(self, row) -> None:
        """Store a row as from_json reads it; MalformedInput if it would not."""
        if not _is_fact_row(row):
            raise MalformedInput(f"malformed registry fact {row!r:.100}")
        self.facts[(row["kind"], tuple(row["params"]))] = row["provenance"]

    def find(self, kind: str, params):
        """The facts that supply a design of this kind (TD, HTD or ITD) with
        these params (k, ...): first the facts of the kind with k' >= k and
        the other params equal, then the range facts of the kind with
        k' >= k, the middle params equal and the last at most the asked
        one, each sorted.  Wider designs imply narrower ones by group
        restriction."""
        k, rest = params[0], tuple(params[1:])
        exact = sorted(key for key in self.facts if key[0] == kind
                       and key[1][0] >= k and key[1][1:] == rest)
        ranged = sorted(key for key in self.facts if key[0] == _RANGE_OF.get(kind)
                        and key[1][0] >= k and key[1][1:-1] == rest[:-1]
                        and key[1][-1] <= rest[-1])
        return exact + ranged

    def to_json(self) -> str:
        rows = [{"kind": kind, "params": list(params), "provenance": prov}
                for (kind, params), prov in sorted(self.facts.items())]
        return json.dumps(rows, sort_keys=True, indent=1) + "\n"

    @staticmethod
    def from_json(text: str) -> "Registry":
        rows = json.loads(text)
        if not isinstance(rows, list):
            raise MalformedInput("a registry is a JSON list of facts")
        reg = Registry()
        for row in rows:
            reg._put(row)
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
        """Read a plan from its JSON document; every node must be
        {"goal": [h, n, k], "step": {"kind": ...}, "children": {...}}."""
        if not (isinstance(doc, dict) and isinstance(doc.get("goal"), list)
                and len(doc["goal"]) == 3 and all(type(x) is int for x in doc["goal"])
                and isinstance(doc.get("step"), dict)
                and isinstance(doc["step"].get("kind"), str)
                and isinstance(doc.get("children"), dict)):
            raise MalformedInput(f"malformed plan node {doc!r:.100}")
        return PlanTree(goal=tuple(doc["goal"]), step=doc["step"],
                        children={role: PlanTree.from_doc(sub)
                                  for role, sub in doc["children"].items()})

    @staticmethod
    def from_json(text: str) -> "PlanTree":
        try:
            return PlanTree.from_doc(json.loads(text))
        except RecursionError:
            raise MalformedInput("plan nested too deeply to read") from None


def _fact_key(doc):
    return (doc[0], tuple(doc[1]))


def _ints(doc: dict, *names):
    """The named integer fields of a plan step or a recipe, or MalformedInput."""
    values = [doc.get(name) for name in names]
    if any(type(v) is not int for v in values):
        raise MalformedInput(f"fields {names} must be integers, got {values}")
    return values


def _needs(goal, step):
    """What a step needs to build its goal (h, n, k), an HTD(k+2, h^n): the
    (role, kind, params) of each registry fact it names, kind and params
    being the design that fact must supply, and {role: goal} of its
    children.  MalformedInput when the step's arithmetic misses the goal."""
    h, n, k = goal
    kind = step["kind"]
    if kind == STEP_FIXTURE:
        return [("fact", HTD, (k + 2, h, n))], {}
    if kind == STEP_TRIVIAL:
        if n != 1:
            raise MalformedInput("the trivial step only covers a single hole")
        return [], {}
    if kind == STEP_CYCLOTOMIC:
        q, lam = _ints(step, "q", "lam")
        if q != n or not is_prime(q):
            raise MalformedInput(f"cyclotomic step needs prime q = n, got {q}")
        if lam != lambda_hk(h, k + 2) or (q - 1) % lam != 0:
            raise MalformedInput("cyclotomic index inconsistent with the goal")
        return [], {}
    if kind == STEP_DIAG:
        m, n2 = _ints(step, "m", "n2")
        if m * n2 != n:
            raise MalformedInput(f"diag arithmetic broken: {m} * {n2} != {n}")
        return ([("unit_fact", HTD, (k + 2, 1, m)), ("td_fact", TD, (k + 2, h * n2))],
                {"diagonal": (h, n2, k)})
    if kind == STEP_WILSON:
        m, t, u = _ints(step, "m", "t", "u")
        if m * t + u != n or not 0 <= u < t:
            raise MalformedInput(f"wilson arithmetic broken: {m}*{t}+{u} != {n}")
        facts = [("t_fact", TD, (k + 3, t)), ("td_fact", TD, (k + 2, h * m))]
        kids = {"layer": (h, m, k)}
        if u > 0:
            facts.append(("itd_fact", ITD, (k + 2, h * m + h, h)))
            kids["truncation"] = (h, u, k)
        return facts, kids
    raise MalformedInput(f"unknown step kind {kind!r}")


def validate_plan(tree: PlanTree, reg: Registry) -> None:
    """Re-check every node: its arithmetic, that each registry fact it
    names supplies the design its step needs, and its children's goals.
    Raises MalformedInput naming the first offending node."""
    try:
        if min(tree.goal) < 1:
            raise MalformedInput("goal entries must be positive")
        facts, kids = _needs(tree.goal, tree.step)
        for role, kind, params in facts:
            named = _fact_key(tree.step[role])
            if named not in reg.find(kind, params):
                raise MalformedInput(f"{role} {named} does not supply {kind}{params}")
        goals = {role: sub.goal for role, sub in tree.children.items()}
        if goals != kids:
            raise MalformedInput(f"children {goals}, but the step needs {kids}")
    except MalformedInput as exc:
        raise MalformedInput(f"plan node {tree.goal}: {exc}") from None
    except (IndexError, KeyError, TypeError, ValueError) as exc:
        raise MalformedInput(f"plan node {tree.goal}: malformed step "
                             f"{tree.step!r:.100} ({exc!r})") from None
    for sub in tree.children.values():
        validate_plan(sub, reg)


# ---------------------------------------------------------------------------
# plan search
# ---------------------------------------------------------------------------

PLAN_DEPTH = 4      # nested diagonal or Wilson steps below the goal
PLAN_WIDTH = 10_000  # candidate splits tried per step kind and node


def plan_hmols(h: int, k: int, n: int, reg: Registry) -> PlanTree:
    """Bounded deterministic search for a plan certifying N(h^n) >= k.

    Steps are tried in the order fixture, trivial, cyclotomic, diagonal
    product, Wilson composition; numeric candidates ascend.  NoPlan is
    advisory: it only means nothing was found within the limits.
    """
    if h < 1 or k < 1 or n < 1:
        raise MalformedInput("need h, k, n >= 1")
    tree = _search(h, k, n, reg, PLAN_DEPTH)
    if tree is None:
        raise NoPlan(f"no plan for {k} HMOLS of type {h}^{n} within limits")
    validate_plan(tree, reg)
    return tree


def _fill(goal, step, reg, depth):
    """The step completed with the first registry fact for each design it
    needs and a plan for each child, or None when one is missing."""
    facts, kids = _needs(goal, step)
    for role, kind, params in facts:
        hits = reg.find(kind, params)
        if not hits:
            return None
        step[role] = [hits[0][0], list(hits[0][1])]
    children = {}
    for role, (h, n, k) in kids.items():
        children[role] = _search(h, k, n, reg, depth - 1)
        if children[role] is None:
            return None
    return PlanTree(goal=goal, step=step, children=children)


def _divisors(n):
    """The divisors 2 <= d < n of n in ascending order, by trial division
    up to sqrt(n)."""
    small = [d for d in range(2, math.isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def _search(h, k, n, reg, depth):
    goal = (h, n, k)
    tree = _fill(goal, {"kind": STEP_FIXTURE}, reg, depth)
    if tree is not None:
        return tree
    if n == 1:
        return PlanTree(goal=goal, step={"kind": STEP_TRIVIAL})
    if h >= 2 and (RECIPE, ("cyclotomic",)) in reg.facts and is_prime(n):
        lam = lambda_hk(h, k + 2)
        if (n - 1) % lam == 0 and n > lam ** ((k + 2) * (k + 1)):
            return PlanTree(goal=goal,
                            step={"kind": STEP_CYCLOTOMIC, "q": n, "lam": lam})
    if depth <= 0:
        return None

    # diagonal product over divisor splits n = m * n2
    tried = 0
    for m in _divisors(n):
        tried += 1
        if tried > PLAN_WIDTH:
            break
        tree = _fill(goal, {"kind": STEP_DIAG, "m": m, "n2": n // m}, reg, depth)
        if tree is not None:
            return tree

    # Wilson composition n = m*t + u with 0 <= u < t; m ranges over hole
    # sizes with a known incomplete ingredient
    tried = 0
    for hm_plus in sorted({p[1] for kind, p in reg.facts
                           if kind == ITD and p[0] >= k + 2 and p[2] == h}):
        m = (hm_plus - h) // h
        if (hm_plus - h) % h != 0 or m < 1:
            continue
        for t in range(n // (m + 1) + 1, n // m + 1):
            tried += 1
            if tried > PLAN_WIDTH:
                break
            tree = _fill(goal, {"kind": STEP_WILSON, "m": m, "t": t, "u": n - m * t},
                         reg, depth)
            if tree is not None:
                return tree
    return None


# ---------------------------------------------------------------------------
# plan execution
# ---------------------------------------------------------------------------

MAX_RECIPE_ENTRIES = 4 * MAX_EXEC_BLOCKS  # block entries one recipe may build


def _estimate_blocks(tree: PlanTree) -> int:
    h, n, k = tree.goal
    return h * h * n * max(n - 1, 0)


_RECIPE_FIELDS = {"td_from_field": ("k", "q"), "unit_hole_htd": ("k", "q"),
                  "marked_product_itd": ("k", "q1", "q2"),
                  "subfield_itd": ("k", "q", "sub")}


def _recipe_design(recipe: dict) -> dz.BlockDesign:
    """The design a recipe builds.  A recipe is outside input: an unknown
    op or fixture, a missing or non-integer field, and a largest array
    (the square of the product of its orders, of k entries a row) over
    MAX_EXEC_BLOCKS rows or MAX_RECIPE_ENTRIES entries are refused before
    anything is built."""
    op = recipe.get("op")
    if op == "fixture":
        from . import fixtures
        name = recipe.get("name")
        if name == "hmols_2_4":
            return dz.hmols_to_htd(fixtures.hmols_pair_2_4())
        if name == "imols_6_2":
            return dz.imols_to_itd(fixtures.imols_pair_6_2())
        raise MalformedInput(f"unknown fixture {name!r}")
    if not (isinstance(op, str) and op in _RECIPE_FIELDS):
        raise MalformedInput(f"unknown recipe op {op!r}")
    k, *orders = _ints(recipe, *_RECIPE_FIELDS[op])
    rows = math.prod(orders) ** 2  # the blocks, or subfield_itd's search
    if rows > MAX_EXEC_BLOCKS:
        raise MalformedInput(f"recipe {op} would build {rows} rows, "
                             f"over the cap {MAX_EXEC_BLOCKS}")
    if rows * k > MAX_RECIPE_ENTRIES:
        raise MalformedInput(f"recipe {op} would build {rows * k} entries, "
                             f"over the cap {MAX_RECIPE_ENTRIES}")
    if op == "marked_product_itd":
        return cp.product_itd(*(dz.td_from_field(k, q) for q in orders))
    build = {"td_from_field": dz.td_from_field, "unit_hole_htd": dz.unit_hole_htd,
             "subfield_itd": cp.subfield_itd}[op]
    return build(k, *orders)


def _resolve(reg: Registry, key, k: int) -> dz.BlockDesign:
    """Build one constructible registry fact's design on its first k
    groups.  Range, fixture and external-table facts are plan arithmetic
    only."""
    if key[0] in (TD_ATLEAST, HTD_ATLEAST):
        raise MalformedInput(f"range fact {key} is never built")
    source = reg.facts[key]["source"]
    if source != CONSTRUCTIBLE:
        raise MalformedInput(f"cannot materialize {key}: source {source!r}")
    recipe = reg.facts[key].get("recipe")
    if not isinstance(recipe, dict):
        raise MalformedInput(f"constructible fact {key} has no recipe")
    d = _recipe_design(recipe)
    return d if d.k == k else dz.restrict_groups(d, list(range(k)))


def _build_td_lambda(h: int, k: int) -> dz.BlockDesign:
    """TD of index lambda(h,k) and group size h: projections of the
    prime-power factors of h, multiplied together."""
    return functools.reduce(cp.td_product, (cy.td_projection(q_i, d, k)
                                            for q_i, d in _lambda_parts(h, k)))


def execute_plan(p: PlanTree, reg: Registry, seed: int = 0,
                 budget: int = cy.DEFAULT_BUDGET) -> dz.BlockDesign:
    """Validate the plan and check its size once, then run it bottom-up
    through the compose and cyclotomic builders and return the goal HTD.
    A failure keeps its class (MalformedInput, Exhausted) and names the
    subtree that failed; any other exception is a bug and passes through."""
    validate_plan(p, reg)
    if _estimate_blocks(p) > MAX_EXEC_BLOCKS:
        raise MalformedInput(f"goal {p.goal} needs about {_estimate_blocks(p)} "
                             f"blocks, over the cap {MAX_EXEC_BLOCKS}")
    return _execute(p, reg, seed, budget)


def _execute(p: PlanTree, reg: Registry, seed: int, budget: int) -> dz.BlockDesign:
    """Build one validated node from its children's designs and the facts
    its step needs, and check the output against the node's goal.  An
    HmolsError is raised again with its class and the node's goal."""
    h, n, k = p.goal
    facts, kids = _needs(p.goal, p.step)
    built = {role: _execute(p.children[role], reg, seed, budget) for role in kids}
    groups = {role: params[0] for role, _, params in facts}

    def fact(role):
        return _resolve(reg, _fact_key(p.step[role]), groups[role])

    kind = p.step["kind"]
    try:
        if kind == STEP_FIXTURE:
            d = fact("fact")
            dz.verify_design(d).require("fixture")
        elif kind == STEP_TRIVIAL:
            d = dz.BlockDesign.new(k=k + 2, group_size=h, index=1, blocks=[],
                                   hole_kind=dz.HOLE_UNIFORM, holes=[range(h)])
        elif kind == STEP_CYCLOTOMIC:
            d = cy.expand_td_to_htd(_build_td_lambda(h, k + 2), n, seed=seed,
                                    budget=budget)
        elif kind == STEP_DIAG:
            d = cp.diag_product(fact("unit_fact"), fact("td_fact"), built["diagonal"])
        else:
            d = cp.wilson_compose(fact("t_fact"), built["layer"], fact("td_fact"),
                                  fact("itd_fact") if p.step["u"] else None,
                                  built.get("truncation"))
    except HmolsError as exc:
        raise type(exc)(f"subtree {p.goal} failed: {exc}") from exc
    if (d.k, d.hole_size, d.hole_count) != (k + 2, h, n):
        raise MalformedInput(f"subtree {p.goal} built HTD({d.k},{d.hole_size}"
                             f"^{d.hole_count}), not HTD({k + 2},{h}^{n})")
    return d
