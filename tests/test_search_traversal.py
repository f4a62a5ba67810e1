"""The seeded difference-vector search: pinned outcomes, the search
against a scalar reference search, and the survivor masks against a
scalar reference predicate.

Each case was recorded from `reference_search` below, which tests one
candidate at a time.  Each vector starts with its first entry pinned to 0,
with no draw and no charge.  Every other position draws one order of all
q values from the seeded PCG64 stream and charges every value it looks
at; a value is taken when it fits the placed entries and every later
position of its vector keeps a value that fits (forward checking).  A
vector whose pinned entry already leaves a position without a value is
left at once, charged nothing.  For a found certificate the table gives
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
from hmols import gf
from hmols.errors import Exhausted, MalformedInput

C4 = [0, 1, 2, 3]
C6 = list(range(6))
C8 = list(range(8))

# smallest budget that finds (2, 3) on columns 0..7 over GF(97) with seed 2
# (tests/test_formats.py develops that certificate)
Q97_SEED2_BUDGET = 9968

# (h, d, cols, q, seed, restart_nodes, smallest finding budget, u-vectors)
FOUND = [
    (2, 2, C4, 5, 0, 4096, 19, [[0, 3, 1, 4], [0, 4, 2, 1]]),
    (2, 2, C4, 5, 1, 4096, 16, [[0, 2, 4, 1], [0, 1, 3, 4]]),
    (2, 2, C4, 5, 2, 4096, 11, [[0, 3, 2, 1], [0, 4, 3, 1]]),
    (2, 2, C4, 5, 3, 4096, 16, [[0, 4, 2, 1], [0, 2, 4, 1]]),
    (2, 2, C4, 13, 0, 4096, 15, [[0, 11, 7, 6], [0, 9, 10, 5]]),
    (2, 2, C4, 13, 1, 4096, 19, [[0, 9, 3, 10], [0, 6, 8, 9]]),
    (2, 2, C4, 13, 2, 4096, 10, [[0, 7, 6, 3], [0, 10, 11, 3]]),
    (2, 2, C4, 13, 3, 4096, 9, [[0, 4, 7, 2], [0, 8, 7, 11]]),
    (2, 2, C4, 29, 0, 4096, 11, [[0, 11, 24, 1], [0, 5, 1, 28]]),
    (2, 2, C4, 29, 1, 4096, 29, [[0, 9, 7, 3], [0, 2, 10, 12]]),
    (2, 2, C4, 29, 2, 4096, 10, [[0, 7, 20, 28], [0, 10, 17, 16]]),
    (2, 2, C4, 29, 3, 4096, 11, [[0, 20, 2, 16], [0, 17, 27, 22]]),
    (2, 3, C8, 97, 0, 4096, 5562,
     [[0, 10, 8, 57, 31, 89, 82, 20], [0, 95, 33, 84, 74, 66, 87, 80]]),
    (2, 3, C8, 97, 2, 4096, Q97_SEED2_BUDGET,
     [[0, 49, 17, 57, 14, 22, 1, 16], [0, 69, 34, 78, 3, 54, 61, 36]]),
    (3, 2, C6, 31, 0, 4096, 97,
     [[0, 11, 28, 30, 20, 26], [0, 4, 26, 17, 9, 30], [0, 24, 23, 20, 13, 17]]),
    (3, 2, C6, 31, 1, 4096, 159,
     [[0, 9, 30, 13, 18, 16], [0, 29, 12, 10, 3, 25], [0, 17, 9, 4, 8, 22]]),
    (3, 2, C6, 31, 2, 4096, 135,
     [[0, 7, 18, 24, 4, 17], [0, 29, 1, 17, 10, 18], [0, 26, 24, 29, 25, 8]]),
    # smaller restart caps; below the finding budget the search restarts,
    # each restart with fresh value orders drawn from the same stream (the
    # caps of rows 17-20 and 22 now exceed their finding budgets)
    (2, 2, C4, 5, 0, 20, 19, [[0, 3, 1, 4], [0, 4, 2, 1]]),
    (2, 2, C4, 5, 0, 50, 19, [[0, 3, 1, 4], [0, 4, 2, 1]]),
    (2, 2, C4, 5, 2, 30, 11, [[0, 3, 2, 1], [0, 4, 3, 1]]),
    (2, 2, C4, 29, 1, 29, 29, [[0, 9, 7, 3], [0, 2, 10, 12]]),
    (2, 3, C8, 97, 0, 400, 2772,
     [[0, 85, 46, 1, 90, 13, 15, 94], [0, 69, 17, 79, 35, 71, 38, 53]]),
    (3, 2, C6, 31, 0, 150, 97,
     [[0, 11, 28, 30, 20, 26], [0, 4, 26, 17, 9, 30], [0, 24, 23, 20, 13, 17]]),
    # caps small enough for two restarts or more before the find
    (2, 2, C4, 5, 0, 10, 29, [[0, 4, 2, 1], [0, 2, 4, 1]]),
    (2, 2, C4, 5, 2, 12, 11, [[0, 3, 2, 1], [0, 4, 3, 1]]),
    (2, 2, C4, 29, 1, 9, 45, [[0, 15, 5, 8], [0, 16, 19, 26]]),
    (3, 2, C6, 31, 2, 60, 642,
     [[0, 25, 16, 9, 28, 24], [0, 23, 6, 30, 15, 25], [0, 22, 18, 4, 26, 7]]),
    # one restart or more under forward checking
    (2, 2, C4, 5, 0, 15, 23, [[0, 2, 4, 1], [0, 1, 3, 4]]),
    (2, 2, C4, 29, 1, 15, 24, [[0, 9, 2, 13], [0, 19, 23, 1]]),
    (3, 2, C6, 31, 0, 80, 313,
     [[0, 4, 1, 20, 3, 14], [0, 7, 5, 6, 4, 19], [0, 9, 19, 24, 11, 25]]),
]

# A case's test id is the one it had before dead levels became free: the
# number before "-u" is the smallest finding budget under that rule, kept
# so that a case can be followed across rule changes.  Rows 23-26 carry
# their budgets from before forward checking, and rows added since carry
# their current budget.
PREVIOUS_BUDGETS = [143, 13, 148, 16, 12, 15, 17, 11, 11, 8, 15, 15, 36502,
                    11037, 134, 12562, 416, 92, 64, 43, 8, 23541, 134,
                    30, 239, 36, 590]


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
    # 1000 evaluations end inside a level of the q = 97 tree
    with pytest.raises(Exhausted, match="^budget 1000 consumed: 1000 evaluations, "
                                        "0 restarts, deepest position 14 of 16$"):
        cy.search_uvectors(2, 3, C8, 97, seed=0, budget=1000)


def test_golden_restart_cap_too_small_to_finish():
    # a tree draws six entries, each costing an evaluation or more, so no
    # restart of 5 evaluations completes; the budget ends the search
    with pytest.raises(Exhausted, match="^budget 2000 consumed: 2000 evaluations, "
                                        "399 restarts, deepest position 7 of 8$"):
        cy.search_uvectors(2, 2, C4, 29, seed=1, budget=2000, restart_nodes=5)


def test_golden_refutation_within_one_restart():
    # (2, 3) on columns 0..3 has no solution over GF(5); a refuted tree
    # charges q for each live position whatever the orders, here 205
    refuted = ("^search space refuted or budget spent at q = 5: 205 evaluations, "
               "0 restarts, deepest position 5 of 8$")
    with pytest.raises(Exhausted, match=refuted):
        cy.search_uvectors(2, 3, C4, 5, seed=0, budget=205, restart_nodes=205)
    with pytest.raises(Exhausted, match="^budget 204 consumed: 204 evaluations, "
                                        "0 restarts, deepest position 5 of 8$"):
        cy.search_uvectors(2, 3, C4, 5, seed=0, budget=204, restart_nodes=205)
    # one evaluation short per restart: never refuted, the budget ends it
    with pytest.raises(Exhausted, match="^budget 30000 consumed: 30000 evaluations, "
                                        "147 restarts, deepest position 5 of 8$"):
        cy.search_uvectors(2, 3, C4, 5, seed=0, budget=30000, restart_nodes=204)


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

    def forward(u, i, a, x):
        """Place x at u[i][a]; does every later position keep a value?"""
        u[i][a] = x
        return all(any(reference_feasible(table, q, dlog, u, i, b, y, a + 1)
                       for y in range(q)) for b in range(a + 1, k))

    def evaluate():
        nonlocal left, nodes
        if left == 0:
            raise exhausted(f"budget {budget} consumed")
        if nodes == 0:
            raise _Abandoned
        left -= 1
        nodes -= 1

    def start(u, i):
        # u[i][0] = 0, with no draw and no charge
        return forward(u, i, 0, 0) and extend(u, i, 1)

    def extend(u, i, a):
        nonlocal deepest
        deepest = max(deepest, i * k + a)
        if a == k:
            return i + 1 == h or start(u, i + 1)
        for x in next(orders):
            evaluate()
            if reference_feasible(table, q, dlog, u, i, a, x, a) \
                    and forward(u, i, a, x) and extend(u, i, a + 1):
                return True
        return False

    while True:
        u = [[None] * k for _ in range(h)]
        nodes = restart_nodes
        restarts += 1
        try:
            if start(u, 0):
                return u
        except _Abandoned:
            continue
        raise exhausted(f"search space refuted or budget spent at q = {q}")


# -- survivor masks ------------------------------------------------------------

def reference_feasible(table, q, dlog, u, i, r, x, placed):
    """May x stand at u[i][r] beside the entries u[i][s], s < placed, s != r?
    One candidate at a time, by modular inverses and a table of discrete
    logs found by trial."""
    for s in range(placed):
        if s == r:
            continue
        if u[i][s] == x:
            return False
        for j in range(i):
            d_i = (u[i][s] - x) % q
            d_j = (u[j][s] - u[j][r]) % q
            if d_j == 0:
                return False
            quotient = d_j * pow(d_i, q - 2, q) % q
            key = (j, i, min(r, s), max(r, s))
            if not table.allowed[key + (dlog[quotient] % table.lam,)]:
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
                         max_size=min(t.size, 6), unique=True))
    k = len(cols)
    pos = draw(st.integers(0, h * k - 1))
    # earlier entries may repeat, which the mask must treat like the
    # one-by-one test does
    flat = draw(st.lists(st.integers(0, q - 1), min_size=pos, max_size=pos))
    u = [[None] * k for _ in range(h)]
    for p, x in enumerate(flat):
        u[p // k][p % k] = x
    return h, d, cols, q, u, pos


@settings(max_examples=300, deadline=None)
@given(partial_assignments())
def test_candidate_mask_matches_scalar_reference(case):
    # the survivor masks of the open positions r.. of vector i once its
    # entries before r stand, built as the search builds them
    h, d, cols, q, u, pos = case
    table = cy.allowed_cosets(cy.template(h, d), cols)
    ctx = gf.cyclotomy_new(gf.field_new(q), table.lam)
    k = len(cols)
    i, r = divmod(pos, k)
    rows = cy._vector_rows(table.allowed, ctx, u, i)
    survivors = np.ones((k - r, q), dtype=bool)
    for a in range(r):
        survivors &= rows[a, r:, q - u[i][a]:2 * q - u[i][a]]
    dlog = discrete_logs(q, ctx.omega)
    expected = [[reference_feasible(table, q, dlog, u, i, b, y, r)
                 for y in range(q)] for b in range(r, k)]
    assert survivors.tolist() == expected


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
@example((4, 2, [0, 1, 6, 9], 5, 1, 3000, 3000))  # refuted, with dead pins
@example((4, 2, [0, 7], 29, 5, 3000, 3000))  # found past a dead pin
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
