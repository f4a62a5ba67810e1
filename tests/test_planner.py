import hashlib
import json
import math
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmols import compose as cp
from hmols import designs as dz
from hmols import planner as pl
from hmols.errors import Exhausted, MalformedInput, NoPlan
from hmols.fixtures import hmols_pair_2_4


def sieve_primes(limit):
    flags = [True] * (limit + 1)
    flags[0] = flags[1] = False
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            for j in range(i * i, limit + 1, i):
                flags[j] = False
    return flags


# -- factorization and lambda --------------------------------------------------

def test_factor_prime_powers():
    assert pl.factor_prime_powers(12) == [(2, 2), (3, 1)]
    assert pl.factor_prime_powers(1) == []
    assert pl.factor_prime_powers(360) == [(2, 3), (3, 2), (5, 1)]


def test_lambda_hk_values():
    assert pl.lambda_hk(2, 11) == 8
    assert pl.lambda_hk(6, 3) == 2
    for h in (2, 3, 5, 6, 10, 12):
        assert pl.lambda_hk(h, 2) == 1


def test_lambda_hk_divisibility_monotone():
    for h in range(2, 61):
        prev = 1
        for k in range(2, 65):
            lam = pl.lambda_hk(h, k)
            assert lam % prev == 0
            prev = lam


# -- frobenius ------------------------------------------------------------------

def test_frobenius_examples():
    assert pl.frobenius_split(3, 5, 2, 130) == (5, 23)
    assert pl.frobenius_split(1, 1, 1, 10) == (2, 8)
    with pytest.raises(MalformedInput):
        pl.frobenius_split(2, 4, 1, 100)


def test_frobenius_below_bound_raises():
    with pytest.raises(MalformedInput, match="^scan failed; n = 20 is not above the bound 126$"):
        pl.frobenius_split(3, 5, 2, 20)


def test_frobenius_exhaustive_box():
    for a in range(1, 13):
        for b in range(1, 13):
            if math.gcd(a, b) != 1:
                continue
            for c in range(1, 13):
                bound = a * (b + 1) * (b + c)
                for n in range(bound + 1, bound + 501, 37):
                    x, y = pl.frobenius_split(a, b, c, n)
                    assert a * x + b * y == n and x >= c and y > a * x


# -- primes ---------------------------------------------------------------------

def test_find_prime_examples():
    assert pl.find_prime_1modM(8, 400, 800) == 401
    assert pl.find_prime_1modM(1, 10, 20) == 11
    with pytest.raises(Exhausted, match=r"^no prime = 1 mod 100 in \(2, 50\]$"):
        pl.find_prime_1modM(100, 2, 50)


def test_find_prime_agrees_with_sieve():
    limit = 10_000
    flags = sieve_primes(limit)
    rng = random.Random(2024)
    for _ in range(1000):
        m = rng.randint(1, 60)
        lo = rng.randint(1, limit - 2)
        hi = rng.randint(lo + 1, limit)
        brute = next((p for p in range(lo + 1, hi + 1)
                      if flags[p] and p % m == 1 % m), None)
        if brute is None:
            with pytest.raises(Exhausted, match=rf"^no prime = 1 mod {m} in \({lo}, {hi}\]$"):
                pl.find_prime_1modM(m, lo, hi)
        else:
            assert pl.find_prime_1modM(m, lo, hi) == brute


def test_is_prime_matches_sieve():
    flags = sieve_primes(5000)
    for n in range(5001):
        assert pl.is_prime(n) == flags[n]


# -- bounds ---------------------------------------------------------------------

def test_naive_upper_bound():
    assert pl.naive_upper_bound(2, 4) == 2
    assert pl.naive_upper_bound(5, 3) == 1
    assert pl.naive_upper_bound(1, 10) == 8
    with pytest.raises(MalformedInput):
        pl.naive_upper_bound(2, 2)


def test_asymptotic_floor():
    assert pl.asymptotic_floor(2, round(math.exp(100)), 2.5) == 6
    assert pl.asymptotic_floor(2, 3, 5.0) == 1
    with pytest.raises(MalformedInput):
        pl.asymptotic_floor(2, 100, 2.0)


# -- registry --------------------------------------------------------------------

def example_registry():
    """Facts supporting a six-HMOLS bound: known HMOLS of types 2^8 and
    2^49, unit-hole HMOLS for all s >= 99, plain MOLS counts, and the
    (100;2) incomplete ingredient."""
    reg = pl.Registry()
    reg.add(pl.HTD, (8, 2, 8), pl.FIXTURE)
    reg.add(pl.HTD, (8, 2, 49), pl.FIXTURE)
    reg.add(pl.HTD_ATLEAST, (8, 1, 99), pl.EXTERNAL, citation="unit-hole table")
    reg.add(pl.TD, (8, 16), pl.CONSTRUCTIBLE,
            recipe={"op": "td_from_field", "k": 8, "q": 16})
    reg.add(pl.TD, (8, 98), pl.EXTERNAL, citation="MOLS table")
    reg.add(pl.ITD, (8, 100, 2), pl.EXTERNAL, citation="incomplete MOLS table")
    reg.add(pl.TD_ATLEAST, (9, 780), pl.EXTERNAL, citation="MOLS table")
    return reg


def test_registry_round_trip():
    reg = example_registry()
    again = pl.Registry.from_json(reg.to_json())
    assert again.facts == reg.facts
    assert again.to_json() == reg.to_json()


def test_registry_weakening_queries():
    reg = example_registry()
    assert reg.find(pl.HTD, (8, 2, 49)) and reg.find(pl.HTD, (5, 2, 49))
    assert not reg.find(pl.HTD, (9, 2, 49))
    assert reg.find(pl.HTD, (8, 1, 99)) and reg.find(pl.HTD, (8, 1, 1136))
    assert not reg.find(pl.HTD, (8, 1, 98))
    assert reg.find(pl.TD, (9, 781)) and not reg.find(pl.TD, (9, 779))
    assert reg.find(pl.ITD, (7, 100, 2)) and not reg.find(pl.ITD, (9, 100, 2))
    assert not reg.find(pl.ITD, (8, 101, 2)) and not reg.find(pl.ITD, (8, 100, 3))


def test_registry_find_dispatches_on_kind():
    reg = example_registry()
    assert reg.find(pl.TD, (9, 781)) == [(pl.TD_ATLEAST, (9, 780))]
    assert reg.find(pl.HTD, (5, 2, 49)) == [(pl.HTD, (8, 2, 49))]
    assert reg.find(pl.HTD, (8, 1, 99)) == [(pl.HTD_ATLEAST, (8, 1, 99))]
    assert reg.find(pl.ITD, (8, 100, 2)) == [(pl.ITD, (8, 100, 2))]
    # exact facts come first, each kind sorted
    reg.add(pl.TD, (9, 781), pl.EXTERNAL)
    reg.add(pl.TD, (12, 781), pl.EXTERNAL)
    reg.add(pl.TD_ATLEAST, (10, 700), pl.EXTERNAL)
    assert reg.find(pl.TD, (9, 781)) == [
        (pl.TD, (9, 781)), (pl.TD, (12, 781)),
        (pl.TD_ATLEAST, (9, 780)), (pl.TD_ATLEAST, (10, 700))]
    assert reg.find(pl.TD, (11, 781)) == [(pl.TD, (12, 781))]


def scan_find(facts, kind, params):
    """Registry.find's documented rule for a TD, HTD or ITD query, one fact
    at a time: exact facts of the kind with k' >= k and equal other params,
    then range facts of the kind with k' >= k, equal middle params and last
    param at most the asked one; each list sorted."""
    ranged_kind = {pl.TD: pl.TD_ATLEAST, pl.HTD: pl.HTD_ATLEAST}.get(kind)
    exact, ranged = [], []
    for fact_kind, p in facts:
        if fact_kind == kind and p[0] >= params[0] and p[1:] == tuple(params[1:]):
            exact.append((fact_kind, p))
        if fact_kind == ranged_kind and p[0] >= params[0] and \
                p[1:-1] == tuple(params[1:-1]) and p[-1] <= params[-1]:
            ranged.append((fact_kind, p))
    return sorted(exact) + sorted(ranged)


SMALL = st.integers(1, 4)
FACT_KEYS = st.one_of(
    st.tuples(st.sampled_from([pl.TD, pl.TD_ATLEAST]), st.tuples(SMALL, SMALL)),
    st.tuples(st.sampled_from([pl.HTD, pl.ITD, pl.HTD_ATLEAST]),
              st.tuples(SMALL, SMALL, SMALL)),
    st.just((pl.RECIPE, ("cyclotomic",))))
QUERIES = st.one_of(st.tuples(st.just(pl.TD), st.tuples(SMALL, SMALL)),
                    st.tuples(st.sampled_from([pl.HTD, pl.ITD]),
                              st.tuples(SMALL, SMALL, SMALL)))


@settings(max_examples=300, deadline=None)
@given(st.lists(FACT_KEYS, max_size=12), QUERIES)
def test_registry_find_is_the_documented_scan(keys, query):
    reg = pl.Registry()
    for kind, params in keys:
        reg.add(kind, params, pl.EXTERNAL)
    assert reg.find(*query) == scan_find(list(reg.facts), *query)


@pytest.mark.parametrize("kind, params", [
    (pl.RECIPE, ("cyclotomic",)), (pl.TD_ATLEAST, (3, 5)), (pl.HTD_ATLEAST, (3, 1, 5)),
    ("TDX", (3, 5)),
])
def test_registry_find_refuses_other_query_kinds(kind, params):
    # a recipe query compared names by string order: ("zeta",) >= ("cyclotomic",)
    reg = pl.Registry()
    reg.add(pl.RECIPE, ("zeta",), pl.CONSTRUCTIBLE)
    reg.add(pl.TD_ATLEAST, (3, 5), pl.EXTERNAL)
    reg.add(pl.HTD_ATLEAST, (3, 1, 5), pl.EXTERNAL)
    with pytest.raises(MalformedInput, match="find answers TD, HTD and ITD queries"):
        reg.find(kind, params)


FACT = {"kind": "TD", "params": [4, 5], "provenance": {"source": "fixture"}}


@pytest.mark.parametrize("rows", [
    {"a": 1}, [1], [{"kind": "TD"}], [dict(FACT, kind="TDX")], [dict(FACT, kind=["TD"])],
    [dict(FACT, params=[4])], [dict(FACT, params=[4, "5"])], [dict(FACT, params=[4, True])],
    [dict(FACT, provenance={})], [dict(FACT, kind=pl.RECIPE, params=[3])],
], ids=["object", "not-a-row", "no-params", "unknown-kind", "unhashable-kind",
        "short-params", "string-param", "bool-param", "no-source", "recipe-number"])
def test_registry_from_json_rejects_malformed_rows(rows):
    with pytest.raises(MalformedInput):
        pl.Registry.from_json(json.dumps(rows))



def test_registry_add_refuses_a_row_from_json_would_refuse():
    reg = pl.Registry()
    with pytest.raises(MalformedInput):
        reg.add(pl.TD, (4,), pl.CONSTRUCTIBLE)
    with pytest.raises(MalformedInput):
        reg.add(pl.RECIPE, (3,), pl.CONSTRUCTIBLE)
    assert reg.facts == {}


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 5) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(
        st.text(max_size=3), inner, max_size=2), max_leaves=4)
ANY_PARAM = st.integers(-1, 10**20) | st.sampled_from(["cyclotomic", True, 2.5, None])
ADDED_ROWS = st.tuples(
    st.sampled_from([pl.TD, pl.HTD, pl.ITD, pl.TD_ATLEAST, pl.HTD_ATLEAST, pl.RECIPE,
                     "TDX"]),
    st.one_of(st.lists(st.integers(1, 9), min_size=1, max_size=3).map(tuple),
              st.just(("cyclotomic",)), st.lists(ANY_PARAM, max_size=4)),
    st.sampled_from([pl.FIXTURE, pl.CONSTRUCTIBLE, pl.EXTERNAL, None, 7]),
    st.none() | st.dictionaries(st.text(max_size=3), JSON_VALUES, max_size=3),
    st.none() | st.text(max_size=5))


@settings(max_examples=300, deadline=None)
@given(st.lists(ADDED_ROWS, max_size=6))
def test_every_row_add_accepts_survives_json(rows):
    reg = pl.Registry()
    for kind, params, source, recipe, citation in rows:
        row = {"kind": kind, "params": list(params), "provenance": {"source": source}}
        try:
            reg.add(kind, params, source, recipe=recipe, citation=citation)
        except MalformedInput:
            assert not pl._is_fact_row(row)
        else:
            assert pl._is_fact_row(row)
    again = pl.Registry.from_json(reg.to_json())
    assert again.facts == reg.facts

# -- plan search -----------------------------------------------------------------

def test_plan_finds_six_hmols_wilson_shape():
    reg = example_registry()
    n = 59201
    tree = pl.plan_hmols(2, 6, n, reg)
    assert tree.step["kind"] == pl.STEP_WILSON
    m, t, u = tree.step["m"], tree.step["t"], tree.step["u"]
    assert m == 49 and m * t + u == n and 0 <= u < t
    assert u % 8 == 0 and u // 8 >= 99  # the u = 8s layer
    layer = tree.children["layer"]
    assert layer.step["kind"] == pl.STEP_FIXTURE
    assert layer.goal == (2, 49, 6)
    trunc = tree.children["truncation"]
    assert trunc.step["kind"] == pl.STEP_DIAG
    assert trunc.step["n2"] == 8 and trunc.step["m"] == u // 8
    assert trunc.children["diagonal"].step["kind"] == pl.STEP_FIXTURE
    pl.validate_plan(tree, reg)


def test_plan_json_round_trip():
    reg = example_registry()
    tree = pl.plan_hmols(2, 6, 59201, reg)
    again = pl.PlanTree.from_json(tree.to_json())
    assert again.to_json() == tree.to_json()
    pl.validate_plan(again, reg)


def test_plan_single_cyclotomic_leaf():
    reg = pl.Registry()
    reg.add(pl.RECIPE, ("cyclotomic",), pl.CONSTRUCTIBLE)
    tree = pl.plan_hmols(2, 1, 67, reg)
    assert tree.step == {"kind": pl.STEP_CYCLOTOMIC, "q": 67, "lam": 2}


def field_registry():
    """The HMOLS(2^4) fixture, TD(4, q) and HTD(3, 1^q) for the prime powers
    3 <= q <= 128, ITD(3, (10; 2)) and the cyclotomic recipe, every fact
    constructible."""
    reg = pl.Registry()
    reg.add(pl.HTD, (4, 2, 4), pl.CONSTRUCTIBLE,
            recipe={"op": "fixture", "name": "hmols_2_4"})
    for q in range(3, 129):
        if len(pl.factor_prime_powers(q)) == 1:
            reg.add(pl.TD, (4, q), pl.CONSTRUCTIBLE,
                    recipe={"op": "td_from_field", "k": 4, "q": q})
            reg.add(pl.HTD, (3, 1, q), pl.CONSTRUCTIBLE,
                    recipe={"op": "unit_hole_htd", "k": 3, "q": q})
    reg.add(pl.ITD, (3, 10, 2), pl.CONSTRUCTIBLE,
            recipe={"op": "marked_product_itd", "k": 3, "q1": 5, "q2": 2})
    reg.add(pl.RECIPE, ("cyclotomic",), pl.CONSTRUCTIBLE)
    return reg


def without_recipe(reg):
    del reg.facts[(pl.RECIPE, ("cyclotomic",))]
    return reg


def plans_digest(reg, top=520):
    """sha256 of the plans for HTD(3, 2^n), n = 1..top, a marker where none."""
    digest = hashlib.sha256()
    for n in range(1, top + 1):
        try:
            digest.update(pl.plan_hmols(2, 1, n, reg).to_json().encode())
        except NoPlan:
            digest.update(b"NoPlan\n")
    return digest.hexdigest()


def test_plans_up_to_520_are_pinned():
    # every plan search finds for these goals, byte for byte, with and
    # without the cyclotomic recipe
    assert plans_digest(field_registry()) == \
        "63111c26ef1c26102fd0182b0b717a8f9e387bedc7b24e34830609ae02947c50"
    assert plans_digest(without_recipe(field_registry())) == \
        "f86f0213c804e37320cdd9b5f99d729591f97e71b9571efecad3cabca8179994"


def test_validate_refuses_a_cyclotomic_step_without_the_recipe():
    # plan search never proposed it there, but execution used to build it
    tree = pl.PlanTree(goal=(2, 67, 1), step={"kind": pl.STEP_CYCLOTOMIC, "q": 67, "lam": 2})
    with pytest.raises(MalformedInput, match=r"^plan node \(2, 67, 1\): the registry "
                                             r"has no fact \('recipe', \('cyclotomic',\)\)$"):
        pl.validate_plan(tree, pl.Registry())
    reg = pl.Registry()
    reg.add(pl.RECIPE, ("zeta",), pl.CONSTRUCTIBLE)
    with pytest.raises(MalformedInput, match=r"^plan node \(2, 67, 1\)"):
        pl.execute_plan(tree, reg)
    reg.add(pl.RECIPE, ("cyclotomic",), pl.CONSTRUCTIBLE)
    pl.validate_plan(tree, reg)


def plan_nodes(tree):
    yield tree
    for sub in tree.children.values():
        yield from plan_nodes(sub)


def test_plans_fail_without_the_recipe_exactly_when_they_hold_a_cyclotomic_node():
    # the primes 67..200 plan cyclotomic nodes, the composites do not
    reg = field_registry()
    bare = without_recipe(field_registry())
    seen = set()
    for n in range(67, 201):
        try:
            tree = pl.plan_hmols(2, 1, n, reg)
        except NoPlan:
            continue
        holds = any(node.step["kind"] == pl.STEP_CYCLOTOMIC for node in plan_nodes(tree))
        seen.add((pl.is_prime(n), holds))
        if holds:
            with pytest.raises(MalformedInput, match=r"has no fact \('recipe'"):
                pl.validate_plan(tree, bare)
        else:
            pl.validate_plan(tree, bare)
    assert seen == {(True, True), (False, False)}


def test_plan_with_many_squares_builds_no_huge_power():
    # the Wilson bound lam^((k+2)(k+1)) is 65536^10000300002 here
    reg = pl.Registry()
    reg.add(pl.RECIPE, ("cyclotomic",), pl.CONSTRUCTIBLE)
    for n in (67, 65537):
        with pytest.raises(NoPlan):
            pl.plan_hmols(2, 100_000, n, reg)


def test_plan_empty_registry_is_noplan():
    with pytest.raises(NoPlan):
        pl.plan_hmols(2, 6, 59201, pl.Registry())


def test_plan_scans_divisors_only_up_to_the_square_root():
    # a scan of every d < n took about 51 s at this prime
    reg = pl.Registry()
    reg.add(pl.TD, (4, 5), pl.CONSTRUCTIBLE,
            recipe={"op": "td_from_field", "k": 4, "q": 5})
    start = time.perf_counter()
    with pytest.raises(NoPlan):
        pl.plan_hmols(2, 1, 1_000_000_007, reg)
    assert time.perf_counter() - start < 2


def test_divisors_ascend_as_the_full_scan():
    for n in [*range(1, 200), 4096, 97 * 97, 2 * 3 * 5 * 7 * 11 * 13]:
        assert pl._divisors(n) == [d for d in range(2, n) if n % d == 0], n


def test_wilson_without_truncation_names_no_incomplete_td():
    # u = 0 composes no ITD, so its step names none
    facts, kids = pl._needs((2, 20, 1), {"kind": pl.STEP_WILSON, "m": 4, "t": 5, "u": 0})
    assert [role for role, _, _ in facts] == ["t_fact", "td_fact"]
    assert kids == {"layer": (2, 4, 1)}


TRIVIAL = {"goal": [2, 1, 1], "step": {"kind": pl.STEP_TRIVIAL}, "children": {}}


@pytest.mark.parametrize("doc", [
    [1], {"step": {"kind": "trivial"}, "children": {}},
    {"goal": [2, 67, 1], "step": {}, "children": {}}, dict(TRIVIAL, goal=[2, 1]),
    dict(TRIVIAL, goal=[2, 1.0, 1]), dict(TRIVIAL, goal=[2, True, 1]),
    dict(TRIVIAL, children=[]), dict(TRIVIAL, children={"layer": [1]}),
], ids=["list", "no-goal", "no-kind", "short-goal", "float-goal", "bool-goal",
        "children-list", "bad-child"])
def test_plan_from_doc_rejects_malformed_nodes(doc):
    with pytest.raises(MalformedInput):
        pl.PlanTree.from_doc(doc)


def test_plan_from_json_rejects_deep_nesting():
    depth = 3000
    node = '{"goal": [2, 1, 1], "step": {"kind": "trivial"}, "children": '
    text = (node + '{"c": ') * depth + node + "{}}" + "}}" * depth
    with pytest.raises(MalformedInput, match="too deeply"):
        pl.PlanTree.from_json(text)


@pytest.mark.parametrize("step", [
    {"kind": pl.STEP_CYCLOTOMIC, "q": 61, "lam": 2},
    {"kind": pl.STEP_CYCLOTOMIC, "q": 67, "lam": 3},
    {"kind": pl.STEP_CYCLOTOMIC, "q": 67, "lam": 2.0},
    {"kind": pl.STEP_CYCLOTOMIC, "lam": 2},
    {"kind": pl.STEP_TRIVIAL}, {"kind": "unknown"},
    {"kind": pl.STEP_FIXTURE}, {"kind": pl.STEP_FIXTURE, "fact": 5},
], ids=["q-not-n", "wrong-index", "float-lam", "no-q", "trivial-n", "unknown-kind",
        "no-fact", "fact-not-a-pair"])
def test_validate_rejects_broken_steps_as_malformed(step):
    reg = pl.Registry()
    reg.add(pl.RECIPE, ("cyclotomic",), pl.CONSTRUCTIBLE)
    with pytest.raises(MalformedInput, match=r"plan node \(2, 67, 1\)"):
        pl.validate_plan(pl.PlanTree(goal=(2, 67, 1), step=step), reg)


def test_validate_rejects_a_fact_that_does_not_supply_the_step():
    # membership alone used to pass; the diagonal product then failed late
    reg = range_fact_registry()
    reg.add(pl.HTD, (3, 1, 5), pl.CONSTRUCTIBLE,
            recipe={"op": "unit_hole_htd", "k": 3, "q": 5})
    tree = pl.plan_hmols(2, 1, 20, reg)
    assert tree.step["kind"] == pl.STEP_DIAG
    assert tree.step["td_fact"] == [pl.TD, [3, 8]]
    tree.step["td_fact"] = [pl.HTD, [4, 2, 4]]
    with pytest.raises(MalformedInput, match=r"plan node \(2, 20, 1\): td_fact"):
        pl.validate_plan(tree, reg)


def test_validate_rejects_children_the_step_does_not_need():
    reg = small_exec_registry()
    tree = wilson_24_plan()
    tree.children["layer"] = tree.children["truncation"] = pl.PlanTree.from_doc(TRIVIAL)
    with pytest.raises(MalformedInput, match="children"):
        pl.validate_plan(tree, reg)
    tree = wilson_24_plan()
    tree.children["extra"] = pl.PlanTree.from_doc(TRIVIAL)
    with pytest.raises(MalformedInput, match="children"):
        pl.validate_plan(tree, reg)


# -- execution -------------------------------------------------------------------

def small_exec_registry():
    reg = pl.Registry()
    reg.add(pl.HTD, (4, 2, 4), pl.CONSTRUCTIBLE,
            recipe={"op": "fixture", "name": "hmols_2_4"})
    reg.add(pl.TD, (4, 5), pl.CONSTRUCTIBLE,
            recipe={"op": "td_from_field", "k": 4, "q": 5})
    reg.add(pl.TD, (3, 8), pl.CONSTRUCTIBLE,
            recipe={"op": "td_from_field", "k": 3, "q": 8})
    reg.add(pl.ITD, (3, 10, 2), pl.CONSTRUCTIBLE,
            recipe={"op": "marked_product_itd", "k": 3, "q1": 5, "q2": 2})
    return reg


def wilson_24_plan():
    fixture_leaf = pl.PlanTree(goal=(2, 4, 1),
                               step={"kind": pl.STEP_FIXTURE,
                                     "fact": [pl.HTD, [4, 2, 4]]})
    return pl.PlanTree(
        goal=(2, 24, 1),
        step={"kind": pl.STEP_WILSON, "m": 4, "t": 5, "u": 4,
              "t_fact": [pl.TD, [4, 5]], "td_fact": [pl.TD, [3, 8]],
              "itd_fact": [pl.ITD, [3, 10, 2]]},
        children={"layer": fixture_leaf,
                  "truncation": pl.PlanTree(goal=(2, 4, 1),
                                            step=fixture_leaf.step)})


def test_execute_wilson_plan_builds_htd_3_2_24():
    reg = small_exec_registry()
    out = pl.execute_plan(wilson_24_plan(), reg)
    assert out.k == 3 and out.group_size == 48 and out.hole_count == 24
    assert dz.verify_design(out).valid
    assert dz.verify_hmols(dz.htd_to_hmols(out)).valid


def test_execute_single_fixture_plan():
    reg = small_exec_registry()
    tree = pl.PlanTree(goal=(2, 4, 2),
                       step={"kind": pl.STEP_FIXTURE, "fact": [pl.HTD, [4, 2, 4]]})
    out = pl.execute_plan(tree, reg)
    assert out.k == 4 and dz.verify_design(out).valid


def test_execute_external_table_leaf_fails():
    reg = pl.Registry()
    reg.add(pl.HTD, (4, 2, 4), pl.EXTERNAL, citation="some table")
    tree = pl.PlanTree(goal=(2, 4, 2),
                       step={"kind": pl.STEP_FIXTURE, "fact": [pl.HTD, [4, 2, 4]]})
    with pytest.raises(MalformedInput, match=r"^subtree \(2, 4, 2\) failed: cannot materialize "
                                             r"\('HTD', \(4, 2, 4\)\): source 'external-table'$"):
        pl.execute_plan(tree, reg)


def range_fact_registry():
    """The HMOLS(2^4) fixture, TD(3, 8), and HTD(3, 1^n) for every n >= 5
    as a constructible range fact, whose one recipe builds n = 5 only."""
    reg = pl.Registry()
    reg.add(pl.HTD, (4, 2, 4), pl.CONSTRUCTIBLE,
            recipe={"op": "fixture", "name": "hmols_2_4"})
    reg.add(pl.TD, (3, 8), pl.CONSTRUCTIBLE,
            recipe={"op": "td_from_field", "k": 3, "q": 8})
    reg.add(pl.HTD_ATLEAST, (3, 1, 5), pl.CONSTRUCTIBLE,
            recipe={"op": "unit_hole_htd", "k": 3, "q": 5})
    return reg


def test_execute_never_builds_a_range_fact():
    # its recipe would build HTD(3, 1^5) for the HTD(3, 1^7) the plan needs,
    # and the composition an HTD(3, 2^20) for the goal 2^28
    reg = range_fact_registry()
    tree = pl.plan_hmols(2, 1, 28, reg)
    assert tree.step["unit_fact"] == [pl.HTD_ATLEAST, [3, 1, 5]]
    with pytest.raises(MalformedInput, match=r"^subtree \(2, 28, 1\) failed: range fact "
                                             r"\('HTD-atleast', \(3, 1, 5\)\) is never built$"):
        pl.execute_plan(tree, reg)


def test_execute_checks_each_node_against_its_goal():
    reg = range_fact_registry()
    reg.add(pl.HTD, (3, 1, 7), pl.CONSTRUCTIBLE,  # a recipe for the wrong design
            recipe={"op": "unit_hole_htd", "k": 3, "q": 5})
    tree = pl.plan_hmols(2, 1, 28, reg)
    with pytest.raises(MalformedInput, match=r"^subtree \(2, 28, 1\) built HTD\(3,2\^20\), "
                                             r"not HTD\(3,2\^28\)$"):
        pl.execute_plan(tree, reg)


def test_execute_validates_and_checks_the_budget_once(monkeypatch):
    reg, tree = small_exec_registry(), wilson_24_plan()
    validated, estimated = [], []
    validate, estimate = pl.validate_plan, pl._estimate_blocks
    monkeypatch.setattr(pl, "validate_plan",
                        lambda t, r: (validated.append(t), validate(t, r))[1])
    monkeypatch.setattr(pl, "_estimate_blocks",
                        lambda t: (estimated.append(t), estimate(t))[1])
    pl.execute_plan(tree, reg)
    # one pass from the root reaches each node once
    assert list(map(id, validated)) == \
        [id(tree), id(tree.children["layer"]), id(tree.children["truncation"])]
    assert list(map(id, estimated)) == [id(tree)]


def test_execute_budget_guard(monkeypatch):
    reg, tree = small_exec_registry(), wilson_24_plan()
    assert pl._estimate_blocks(tree) == 4 * 24 * 23
    monkeypatch.setattr(pl, "MAX_EXEC_BLOCKS", 4 * 24 * 23 - 1)
    built = []
    monkeypatch.setattr(pl, "_recipe_design", built.append)
    with pytest.raises(MalformedInput, match=r"about 2208 blocks, over the cap 2207$"):
        pl.execute_plan(tree, reg)
    assert built == []  # refused before any ingredient is built


def test_execute_cyclotomic_step():
    reg = pl.Registry()
    reg.add(pl.RECIPE, ("cyclotomic",), pl.CONSTRUCTIBLE)
    tree = pl.plan_hmols(2, 1, 67, reg)
    out = pl.execute_plan(tree, reg, seed=0)
    assert out.k == 3 and out.group_size == 2 * 67
    assert dz.verify_design(out).valid


@pytest.mark.parametrize("recipe, rows", [
    ({"op": "td_from_field", "k": 3, "q": 2239}, 2239**2),
    ({"op": "unit_hole_htd", "k": 3, "q": 2239}, 2239**2),
    ({"op": "marked_product_itd", "k": 3, "q1": 47, "q2": 49}, (47 * 49) ** 2),
    ({"op": "subfield_itd", "k": 3, "q": 1024, "sub": 4}, (1024 * 4) ** 2),
])
def test_recipes_over_the_cap_are_refused_before_building(monkeypatch, recipe, rows):
    def boom(*args):
        raise AssertionError("built a recipe over the cap")

    for module, name in [(pl.dz, "td_from_field"), (pl.dz, "unit_hole_htd"),
                         (pl.cp, "product_itd"), (pl.cp, "subfield_itd")]:
        monkeypatch.setattr(module, name, boom)
    with pytest.raises(MalformedInput, match=f"would build {rows} rows, over the cap"):
        pl._recipe_design(recipe)


def test_a_recipe_of_too_many_entries_is_refused_before_building(monkeypatch):
    # 3,996,001 rows pass the row cap; 2000 entries a row are about 61 GB
    monkeypatch.setattr(pl.dz, "td_from_field", lambda *args: pytest.fail("built"))
    with pytest.raises(MalformedInput, match="would build 7992002000 entries, "
                                             "over the cap 20000000$"):
        pl._recipe_design({"op": "td_from_field", "k": 2000, "q": 1999})


def test_a_recipe_at_the_cap_is_built(monkeypatch):
    monkeypatch.setattr(pl, "MAX_EXEC_BLOCKS", 16)
    assert len(pl._recipe_design({"op": "td_from_field", "k": 3, "q": 4}).blocks) == 16
    with pytest.raises(MalformedInput, match="would build 25 rows, over the cap 16$"):
        pl._recipe_design({"op": "td_from_field", "k": 3, "q": 5})


def test_execute_keeps_the_class_of_each_failure(monkeypatch):
    reg = pl.Registry()
    reg.add(pl.RECIPE, ("cyclotomic",), pl.CONSTRUCTIBLE)
    tree = pl.plan_hmols(2, 1, 67, reg)
    with pytest.raises(Exhausted, match=r"^subtree \(2, 67, 1\) failed: per-block budget 0"):
        pl.execute_plan(tree, reg, budget=0)
    # a bug passes through unchanged, as the same exception object
    bug = AssertionError("broken expansion")

    def broken(*args, **kwargs):
        raise bug

    monkeypatch.setattr(pl.cy, "expand_td_to_htd", broken)
    with pytest.raises(AssertionError) as caught:
        pl.execute_plan(tree, reg)
    assert caught.value is bug


def test_fixture_recipe_is_restricted_to_the_goal():
    reg = small_exec_registry()
    tree = pl.PlanTree(goal=(2, 4, 1),
                       step={"kind": pl.STEP_FIXTURE, "fact": [pl.HTD, [4, 2, 4]]})
    out = pl.execute_plan(tree, reg)
    assert out.k == 3  # restricted from the four-group fixture
    assert dz.verify_design(out).valid
    want = dz.restrict_groups(dz.hmols_to_htd(hmols_pair_2_4()), [0, 1, 2])
    assert np.array_equal(out.blocks, want.blocks) and out.holes == want.holes


def test_execute_fixture_source_leaf_fails():
    # a fixture-source fact is plan arithmetic only; the data is built
    # through a constructible fact with the {"op": "fixture"} recipe
    reg = pl.Registry()
    reg.add(pl.HTD, (4, 2, 4), pl.FIXTURE)
    tree = pl.PlanTree(goal=(2, 4, 1),
                       step={"kind": pl.STEP_FIXTURE, "fact": [pl.HTD, [4, 2, 4]]})
    with pytest.raises(MalformedInput, match=r"^subtree \(2, 4, 1\) failed: cannot materialize "
                                             r"\('HTD', \(4, 2, 4\)\): source 'fixture'$"):
        pl.execute_plan(tree, reg)


def test_wider_itd_recipe_restricts_like_its_restricted_mark():
    # the recipe deletes the mark on four groups, then drops the fourth;
    # relabelling each group alone commutes with dropping groups, and the
    # first block of TD(4, 4) is also first on three groups
    reg = pl.Registry()
    reg.add(pl.ITD, (4, 12, 3), pl.CONSTRUCTIBLE,
            recipe={"op": "marked_product_itd", "k": 4, "q1": 4, "q2": 3})
    got = pl._resolve(reg, (pl.ITD, (4, 12, 3)), 3)
    want = cp.product_itd(*(dz.restrict_groups(dz.td_from_field(4, q), [0, 1, 2])
                            for q in (4, 3)))
    assert (got.k, got.hole_kind, got.holes) == (3, want.hole_kind, want.holes)
    assert np.array_equal(got.blocks, want.blocks)


def test_subfield_itd_recipe_executes_in_a_wilson_plan():
    # ITD(3, (4; 2)) from the subfield GF(2) of GF(4) is the only
    # incomplete TD, so HTD(3, 2^4) takes Wilson with m = 1, t = 3, u = 1
    reg = pl.Registry()
    reg.add(pl.ITD, (3, 4, 2), pl.CONSTRUCTIBLE,
            recipe={"op": "subfield_itd", "k": 3, "q": 4, "sub": 2})
    reg.add(pl.TD, (3, 2), pl.CONSTRUCTIBLE,
            recipe={"op": "td_from_field", "k": 3, "q": 2})
    for q in range(3, 32):
        if len(pl.factor_prime_powers(q)) == 1:
            reg.add(pl.TD, (4, q), pl.CONSTRUCTIBLE,
                    recipe={"op": "td_from_field", "k": 4, "q": q})
            reg.add(pl.HTD, (3, 1, q), pl.CONSTRUCTIBLE,
                    recipe={"op": "unit_hole_htd", "k": 3, "q": q})
    tree = pl.plan_hmols(2, 1, 4, reg)
    assert tree.step["kind"] == pl.STEP_WILSON
    assert (tree.step["m"], tree.step["t"], tree.step["u"]) == (1, 3, 1)
    assert tree.step["itd_fact"] == [pl.ITD, [3, 4, 2]]
    out = pl.execute_plan(tree, reg)
    assert (out.k, out.group_size, out.hole_size, out.hole_count) == (3, 8, 2, 4)
    assert dz.verify_design(out).valid


def test_execute_restricts_a_wider_itd_fact_to_the_goal():
    # find accepts ITD(k', (n; h)) with k' >= k; the executor must cut the
    # incomplete TD down to the k groups it needs
    reg = pl.Registry()
    reg.add(pl.RECIPE, ("cyclotomic",), pl.CONSTRUCTIBLE)
    reg.add(pl.TD, (4, 3), pl.CONSTRUCTIBLE,
            recipe={"op": "td_from_field", "k": 4, "q": 3})
    reg.add(pl.TD, (3, 9), pl.CONSTRUCTIBLE,
            recipe={"op": "td_from_field", "k": 3, "q": 9})
    reg.add(pl.ITD, (4, 12, 3), pl.CONSTRUCTIBLE,
            recipe={"op": "marked_product_itd", "k": 4, "q1": 4, "q2": 3})
    tree = pl.plan_hmols(3, 1, 10, reg)
    assert tree.step["kind"] == pl.STEP_WILSON
    assert tree.step["itd_fact"] == [pl.ITD, [4, 12, 3]]
    out = pl.execute_plan(tree, reg)
    assert (out.k, out.group_size, out.hole_count) == (3, 30, 10)
    assert dz.verify_design(out).valid
