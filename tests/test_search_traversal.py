"""The seeded difference-vector search: pinned outcomes, the search
against a scalar reference search, and the candidate masks against a
scalar reference predicate.

Each case was recorded from `reference_search` below, which tests one
candidate at a time.  Entries are placed column by column: u[0][a], ...,
u[h-1][a], then column a + 1.  u[i][0] = 0 and u[0][1] = 1 are pinned,
with no draw and no charge.  A position where no value fits is left at
once, also with no draw and no charge, so a value that leaves the next
position none costs only its own evaluation (a one-step forward check).
Every other position draws one order of all q values from the seeded
PCG64 stream and charges every value it looks at, up to the first that
fits and leads to a certificate.  For a found certificate the table gives
the smallest budget that finds it: the same seed must yield the same
vectors with exactly that budget and raise Exhausted with one evaluation
less, so the traversal order, the budget accounting and the restart
accounting are all pinned, not just the final answer.
"""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hmols import cyclotomic as cy
from hmols import designs as dz
from hmols import gf
from hmols.errors import Exhausted, MalformedInput

C4 = [0, 1, 2, 3]
C6 = list(range(6))
C8 = list(range(8))

# smallest budget that finds (2, 3) on columns 0..7 over GF(97) with seed 2
# (tests/test_formats.py develops that certificate)
Q97_SEED2_BUDGET = 236

# (h, d, cols, q, seed, restart_nodes, smallest finding budget, u-vectors)
FOUND = [
    (2, 2, C4, 5, 0, 4096, 9, [[0, 1, 3, 4], [0, 3, 1, 4]]),
    (2, 2, C4, 5, 1, 4096, 12, [[0, 1, 4, 2], [0, 2, 4, 3]]),
    (2, 2, C4, 5, 2, 4096, 11, [[0, 1, 2, 3], [0, 3, 4, 2]]),
    (2, 2, C4, 5, 3, 4096, 13, [[0, 1, 4, 2], [0, 3, 1, 2]]),
    (2, 2, C4, 13, 0, 4096, 7, [[0, 1, 7, 9], [0, 11, 6, 10]]),
    (2, 2, C4, 13, 1, 4096, 7, [[0, 1, 3, 9], [0, 2, 10, 9]]),
    (2, 2, C4, 13, 2, 4096, 9, [[0, 1, 6, 10], [0, 7, 2, 9]]),
    (2, 2, C4, 13, 3, 4096, 8, [[0, 1, 7, 8], [0, 7, 2, 8]]),
    (2, 2, C4, 29, 0, 4096, 11, [[0, 1, 24, 5], [0, 11, 4, 9]]),
    (2, 2, C4, 29, 1, 4096, 7, [[0, 1, 7, 6], [0, 2, 3, 24]]),
    (2, 2, C4, 29, 2, 4096, 20, [[0, 1, 20, 10], [0, 3, 6, 11]]),
    (2, 2, C4, 29, 3, 4096, 15, [[0, 1, 2, 17], [0, 19, 18, 17]]),
    (2, 3, C8, 97, 0, 4096, 278,
     [[0, 1, 53, 49, 19, 22, 18, 3], [0, 92, 54, 91, 17, 43, 25, 89]]),
    (2, 3, C8, 97, 2, 4096, Q97_SEED2_BUDGET,
     [[0, 1, 44, 91, 67, 23, 15, 17], [0, 84, 35, 65, 18, 52, 28, 83]]),
    (3, 2, C6, 31, 0, 4096, 93,
     [[0, 1, 30, 4, 21, 24], [0, 11, 20, 17, 12, 3], [0, 28, 3, 4, 27, 12]]),
    (3, 2, C6, 31, 1, 4096, 106,
     [[0, 1, 13, 21, 8, 20], [0, 9, 14, 30, 5, 21], [0, 24, 16, 15, 7, 18]]),
    (3, 2, C6, 31, 2, 4096, 61,
     [[0, 1, 24, 29, 22, 4], [0, 7, 4, 29, 3, 30], [0, 18, 9, 17, 1, 8]]),
    # smaller restart caps, chosen under earlier traversal rules; placed
    # column by column, rows 17-25, 27 and 28 find within their first
    # restart, and rows 26 and 29 restart 4 times and once
    (2, 2, C4, 5, 0, 20, 9, [[0, 1, 3, 4], [0, 3, 1, 4]]),
    (2, 2, C4, 5, 0, 50, 9, [[0, 1, 3, 4], [0, 3, 1, 4]]),
    (2, 2, C4, 5, 2, 30, 11, [[0, 1, 2, 3], [0, 3, 4, 2]]),
    (2, 2, C4, 29, 1, 29, 7, [[0, 1, 7, 6], [0, 2, 3, 24]]),
    (2, 3, C8, 97, 0, 400, 278,
     [[0, 1, 53, 49, 19, 22, 18, 3], [0, 92, 54, 91, 17, 43, 25, 89]]),
    (3, 2, C6, 31, 0, 150, 93,
     [[0, 1, 30, 4, 21, 24], [0, 11, 20, 17, 12, 3], [0, 28, 3, 4, 27, 12]]),
    (2, 2, C4, 5, 0, 10, 9, [[0, 1, 3, 4], [0, 3, 1, 4]]),
    (2, 2, C4, 5, 2, 12, 11, [[0, 1, 2, 3], [0, 3, 4, 2]]),
    (2, 2, C4, 29, 1, 9, 7, [[0, 1, 7, 6], [0, 2, 3, 24]]),
    (3, 2, C6, 31, 2, 60, 275,
     [[0, 1, 15, 3, 21, 6], [0, 22, 26, 18, 14, 17], [0, 24, 6, 16, 23, 3]]),
    (2, 2, C4, 5, 0, 15, 9, [[0, 1, 3, 4], [0, 3, 1, 4]]),
    (2, 2, C4, 29, 1, 15, 7, [[0, 1, 7, 6], [0, 2, 3, 24]]),
    (3, 2, C6, 31, 0, 80, 145,
     [[0, 1, 8, 11, 19, 6], [0, 24, 11, 13, 7, 21], [0, 9, 7, 29, 24, 1]]),
    # caps small enough for restarts under the column order: 10, 2, 21, 9
    # and 6 restarts before the find
    (2, 2, C4, 5, 0, 8, 87, [[0, 1, 2, 4], [0, 2, 3, 4]]),
    (2, 2, C4, 29, 2, 8, 24, [[0, 1, 23, 5], [0, 3, 4, 24]]),
    (2, 2, C4, 29, 1, 5, 110, [[0, 1, 20, 7], [0, 27, 6, 20]]),
    (2, 3, C8, 97, 0, 150, 1495,
     [[0, 1, 39, 13, 79, 35, 32, 86], [0, 59, 45, 37, 19, 61, 11, 48]]),
    (3, 2, C6, 31, 1, 50, 335,
     [[0, 1, 26, 11, 19, 22], [0, 13, 17, 12, 30, 26], [0, 14, 27, 20, 26, 5]]),
]

# A case's test id is the one it had before dead levels became free: the
# number before "-u" is the smallest finding budget under that rule, kept
# so that a case can be followed across rule changes.  Rows 23-26 carry
# their budgets from before forward checking, rows 27-29 theirs from before
# the column order, and rows added since carry their current budget.
PREVIOUS_BUDGETS = [143, 13, 148, 16, 12, 15, 17, 11, 11, 8, 15, 15, 36502,
                    11037, 134, 12562, 416, 92, 64, 43, 8, 23541, 134,
                    30, 239, 36, 590, 23, 24, 313]


def _case_id(n, row):
    h, d, _, q, seed, restart_nodes, needed, _ = row
    budget = PREVIOUS_BUDGETS[n] if n < len(PREVIOUS_BUDGETS) else needed
    return f"{h}-{d}-cols{n}-{q}-{seed}-{restart_nodes}-{budget}-u{n}"


CASE_IDS = [_case_id(n, row) for n, row in enumerate(FOUND)]


def _budget_spent(budget, positions):
    return (rf"^budget {budget} consumed: {budget} evaluations, \d+ restarts, "
            rf"deepest position \d+ of {positions}$")


@pytest.mark.parametrize("h,d,cols,q,seed,restart_nodes,needed,u", FOUND,
                         ids=CASE_IDS)
def test_golden_certificate_at_smallest_budget(h, d, cols, q, seed,
                                               restart_nodes, needed, u):
    sol = cy.search_uvectors(h, d, cols, q, seed=seed, budget=needed,
                             restart_nodes=restart_nodes)
    assert [list(v) for v in sol.u] == u
    with pytest.raises(Exhausted, match=_budget_spent(needed - 1, h * len(cols))):
        cy.search_uvectors(h, d, cols, q, seed=seed, budget=needed - 1,
                           restart_nodes=restart_nodes)


@pytest.mark.parametrize("h,d,cols,q,seed,restart_nodes,needed,u", FOUND,
                         ids=CASE_IDS)
def test_golden_table_matches_reference_search(h, d, cols, q, seed,
                                               restart_nodes, needed, u):
    assert reference_search(h, d, cols, q, seed, needed, restart_nodes) == u
    # one evaluation short, both report the same restarts and depth
    with pytest.raises(Exhausted) as got:
        cy.search_uvectors(h, d, cols, q, seed=seed, budget=needed - 1,
                           restart_nodes=restart_nodes)
    with pytest.raises(Exhausted, match=f"^{re.escape(str(got.value))}$"):
        reference_search(h, d, cols, q, seed, needed - 1, restart_nodes)


def test_golden_budget_runs_out_mid_search():
    # 150 of the 278 evaluations that find it end inside the q = 97 tree
    with pytest.raises(Exhausted, match="^budget 150 consumed: 150 evaluations, "
                                        "0 restarts, deepest position 11 of 16$"):
        cy.search_uvectors(2, 3, C8, 97, seed=0, budget=150)


def test_golden_restart_cap_too_small_to_finish():
    # a tree draws five entries, each costing an evaluation or more, so no
    # restart of 4 evaluations completes; the budget ends the search
    with pytest.raises(Exhausted, match="^budget 2000 consumed: 2000 evaluations, "
                                        "499 restarts, deepest position 7 of 8$"):
        cy.search_uvectors(2, 2, C4, 29, seed=1, budget=2000, restart_nodes=4)


def test_golden_refutation_within_one_restart():
    # (2, 3) on columns 0..3 has no solution over GF(5); a refuted tree
    # charges q for each position that draws an order, whatever the
    # orders: here three orders, 15 evaluations
    refuted = ("^search space refuted or budget spent at q = 5: 15 evaluations, "
               "0 restarts, deepest position 5 of 8$")
    with pytest.raises(Exhausted, match=refuted):
        cy.search_uvectors(2, 3, C4, 5, seed=0, budget=15, restart_nodes=15)
    with pytest.raises(Exhausted, match="^budget 14 consumed: 14 evaluations, "
                                        "0 restarts, deepest position 5 of 8$"):
        cy.search_uvectors(2, 3, C4, 5, seed=0, budget=14, restart_nodes=15)
    # one evaluation short per restart: never refuted, the budget ends it
    with pytest.raises(Exhausted, match="^budget 30000 consumed: 30000 evaluations, "
                                        "2142 restarts, deepest position 5 of 8$"):
        cy.search_uvectors(2, 3, C4, 5, seed=0, budget=30000, restart_nodes=14)


def test_negative_seed_rejected_before_search():
    with pytest.raises(MalformedInput, match="seed must be non-negative"):
        cy.search_uvectors(2, 2, C4, 5, seed=-3, budget=50_000)


# -- scalar reference ------------------------------------------------------------

def value_orders(seed, q):
    """The search's value orders: each one argsorts q raw 64-bit draws of
    one PCG64 stream seeded with seed."""
    bits = np.random.PCG64(seed)
    while True:
        yield np.argsort(bits.random_raw(q), kind="stable").tolist()


def test_value_orders_pinned_for_seed_0_at_q_13():
    # a change in NumPy's PCG64 stream would change every certificate
    orders = value_orders(0, 13)
    assert next(orders) == [11, 3, 2, 1, 8, 6, 0, 7, 4, 10, 12, 5, 9]
    assert next(orders) == [7, 0, 8, 2, 5, 12, 6, 4, 11, 10, 9, 1, 3]


def discrete_logs(q, omega):
    """log_omega of every nonzero x in GF(q), by trial powers."""
    return {pow(omega, t, q): t for t in range(q - 1)}


class _Abandoned(Exception):
    pass


def reference_search(h, d, cols, q, seed, budget, restart_nodes):
    """The search one candidate at a time.  Each evaluation checks the
    budget, then the restart cap, then charges one to both."""
    table = cy.allowed_cosets(cy.template(h, d), cols)
    k = len(cols)
    dlog = discrete_logs(q, gf.cyclotomy_new(gf.field_new(q), table.lam).omega)
    orders = value_orders(seed, q)
    left, nodes, restarts, deepest = budget, 0, -1, 0

    def exhausted(reason):
        return Exhausted(f"{reason}: {budget - left} evaluations, {restarts} "
                         f"restarts, deepest position {deepest} of {h * k}")

    def evaluate():
        nonlocal left, nodes
        if left == 0:
            raise exhausted(f"budget {budget} consumed")
        if nodes == 0:
            raise _Abandoned
        left -= 1
        nodes -= 1

    def fits(u, p, x):
        # position p is u[p % h][p // h]: column by column
        return reference_fits(table, q, dlog, u, p % h, p // h, x)

    def extend(u, p):
        # the p entries before position p stand
        nonlocal deepest
        deepest = max(deepest, p)
        if p == h * k:
            return True
        if not any(fits(u, p, y) for y in range(q)):
            return False  # a dead end: no draw, no charge
        for x in next(orders):
            evaluate()
            if fits(u, p, x):
                u[p % h][p // h] = x
                if extend(u, p + 1):
                    return True
        return False

    while True:
        # u[i][0] = 0 and u[0][1] = 1, with no draw and no charge
        u = [[0] + [None] * (k - 1) for _ in range(h)]
        u[0][1] = 1
        nodes = restart_nodes
        restarts += 1
        try:
            if extend(u, h + 1):
                return u
        except _Abandoned:
            continue
        raise exhausted(f"search space refuted or budget spent at q = {q}")


# -- candidate masks -------------------------------------------------------------

def reference_fits(table, q, dlog, u, i, a, x):
    """May x stand at u[i][a] beside the entries placed before it column by
    column?  One candidate at a time, by modular inverses and a table of
    discrete logs found by trial."""
    for r in range(a):
        if u[i][r] == x:
            return False
        for j in range(i):
            quotient = (u[j][r] - u[j][a]) * pow(u[i][r] - x, q - 2, q) % q
            if not table.allowed[j, i, r, a, dlog[quotient] % table.lam]:
                return False
    return True


SHAPES = [(2, 1), (3, 1), (2, 2), (3, 2), (2, 3), (4, 2)]
SMALL_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43]


@st.composite
def partial_assignments(draw):
    h, d = draw(st.sampled_from(SHAPES))
    t = cy.template(h, d)
    q = draw(st.sampled_from([p for p in SMALL_PRIMES if (p - 1) % t.lam == 0]))
    cols = draw(st.lists(st.integers(0, t.size - 1), min_size=2,
                         max_size=min(t.size, 6, q), unique=True))
    k = len(cols)
    # distinct entries within each vector, as the search keeps them; those
    # at and after the position must not change its mask
    u = [draw(st.permutations(range(q)))[:k] for _ in range(h)]
    return h, d, cols, q, u, draw(st.integers(0, h * k - 1))


# the certificates of `search 2 4 401 --cols 0..10 --seed 5` and `search 2 3
# 97 --cols 0..7 --seed 1`, which CI pins by their sha256
U401 = [[0, 1, 295, 18, 394, 250, 348, 269, 350, 131, 282],
        [0, 17, 364, 392, 292, 226, 231, 260, 77, 79, 284]]
U97 = [[0, 1, 79, 32, 16, 26, 66, 83], [0, 39, 81, 61, 18, 83, 66, 78]]


@settings(max_examples=300, deadline=None)
@given(partial_assignments())
# u[i][0] = 0 minus x is negative for every x > 0: it reads the far end of
# the window of differences, q - 1 - x back from its last entry
@example((2, 4, list(range(11)), 401, U401, 13))
@example((2, 4, list(range(11)), 401, U401, 20))
@example((2, 3, C8, 97, U97, 11))
def test_candidate_mask_matches_scalar_reference(case):
    # the search's one candidate primitive at position p, column by column,
    # through the tables of the one context per field and lam the search uses
    h, d, cols, q, u, p = case
    table = cy.allowed_cosets(cy.template(h, d), cols)
    ctx = gf.cyclotomy_new(gf.field_new(q), table.lam)
    i, a = p % h, p // h
    mask = cy._candidates(table.allowed, ctx, np.array(u), i, a)
    dlog = discrete_logs(q, ctx.omega)
    assert mask.tolist() == [reference_fits(table, q, dlog, u, i, a, x) for x in range(q)]
    # the rows it read: the class of u[i][r] - x at every x, -1 at x = u[i][r]
    rows = ctx.difference_classes[[q - 1 - y for y in u[i][:a]]]
    assert rows.tolist() == [[dlog[(y - x) % q] % table.lam if x != y else -1
                              for x in range(q)] for y in u[i][:a]]
    lam = table.lam
    assert ctx.quotient_classes.tolist() == [[(c - e) % lam for e in range(lam)]
                                             for c in range(lam)]


@st.composite
def search_cases(draw):
    h, d = draw(st.sampled_from(SHAPES))
    t = cy.template(h, d)
    q = draw(st.sampled_from([p for p in SMALL_PRIMES if (p - 1) % t.lam == 0]))
    cols = draw(st.lists(st.integers(0, t.size - 1), min_size=2,
                         max_size=min(t.size, 6, q), unique=True))
    return (h, d, cols, q, draw(st.integers(0, 2**64 - 1)),
            draw(st.integers(0, 1500)), draw(st.integers(1, 300)))


@settings(max_examples=150, deadline=None)
@given(search_cases())
@example((2, 3, C4, 5, 0, 5000, 5000))  # a tree refuted within one restart
@example((4, 2, [0, 1, 6, 9], 5, 1, 3000, 3000))  # refuted, four vectors
@example((4, 2, [0, 7], 29, 5, 3000, 3000))  # found: three entries drawn
def test_search_matches_reference_search(case):
    h, d, cols, q, seed, budget, restart_nodes = case
    try:
        expected = reference_search(h, d, cols, q, seed, budget, restart_nodes)
    except Exhausted as exc:
        with pytest.raises(Exhausted, match=f"^{re.escape(str(exc))}$"):
            cy.search_uvectors(h, d, cols, q, seed=seed, budget=budget,
                               restart_nodes=restart_nodes)
    else:
        sol = cy.search_uvectors(h, d, cols, q, seed=seed, budget=budget,
                                 restart_nodes=restart_nodes)
        assert [list(v) for v in sol.u] == expected


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(FOUND), st.data())
def test_translated_vector_develops_into_the_same_design(row, data):
    # why the search may pin u[i][0] = 0: the constraints see only
    # differences within a vector, and development absorbs the translation
    h, d, cols, q, _, _, _, u = row
    i, c = data.draw(st.integers(0, h - 1)), data.draw(st.integers(0, q - 1))
    moved = [list(v) for v in u]
    moved[i] = [(x + c) % q for x in u[i]]
    before, after = (cy.develop_rdf(cy.assemble_rdf(cy.verify_uvectors(h, d, cols, q, v)))
                     for v in (u, moved))
    assert np.array_equal(after.sorted_blocks(), before.sorted_blocks())


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(FOUND), st.data())
def test_scaled_vectors_develop_into_another_valid_design(row, data):
    # why the search may also pin u[0][1] = 1: scaling every vector by one
    # c != 0 keeps every quotient of differences, so the scaled vectors are
    # a solution too.  Unlike a translation, development does not absorb
    # it: the design changes unless c is a lam-th power, which only permutes
    # the class C_0 that assemble_rdf runs over
    h, d, cols, q, _, _, _, u = row
    c = data.draw(st.integers(1, q - 1))
    scaled = [[x * c % q for x in v] for v in u]
    before, after = (cy.develop_rdf(cy.assemble_rdf(cy.verify_uvectors(h, d, cols, q, v)))
                     for v in (u, scaled))
    assert dz.verify_design(after).valid
    power = pow(c, (q - 1) // cy.template(h, d).lam, q) == 1
    assert np.array_equal(after.sorted_blocks(), before.sorted_blocks()) == power
