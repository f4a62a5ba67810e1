"""The seeded difference-vector search: pinned outcomes, the search
against a scalar reference search, and the candidate mask against a
scalar reference predicate.

Each case was recorded from `reference_search` below, which tests one
candidate at a time: a position that admits no value is left without
drawing an order or charging an evaluation, and a live position draws one
order of all q values from the seeded PCG64 stream and charges every
value it looks at.  For a found certificate the table gives the smallest
budget that finds it: the same seed must yield the same vectors with
exactly that budget and raise Exhausted with one evaluation less, so the
traversal order, the budget accounting and the restart accounting are all
pinned, not just the final answer.
"""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hmols import cyclotomic as cy
from hmols import gf
from hmols.errors import Exhausted

C4 = [0, 1, 2, 3]
C6 = list(range(6))
C8 = list(range(8))

# smallest budget that finds (2, 3) on columns 0..7 over GF(97) with seed 2
# (tests/test_formats.py develops that certificate)
Q97_SEED2_BUDGET = 12113

# (h, d, cols, q, seed, restart_nodes, smallest finding budget, u-vectors)
FOUND = [
    (2, 2, C4, 5, 0, 4096, 17, [[3, 1, 4, 0], [0, 4, 1, 3]]),
    (2, 2, C4, 5, 1, 4096, 18, [[2, 4, 1, 3], [1, 2, 4, 0]]),
    (2, 2, C4, 5, 2, 4096, 16, [[3, 2, 1, 4], [4, 1, 2, 3]]),
    (2, 2, C4, 5, 3, 4096, 9, [[0, 4, 2, 1], [0, 3, 1, 4]]),
    (2, 2, C4, 13, 0, 4096, 10, [[11, 7, 6, 9], [7, 1, 10, 5]]),
    (2, 2, C4, 13, 1, 4096, 12, [[9, 3, 10, 0], [9, 10, 5, 0]]),
    (2, 2, C4, 13, 2, 4096, 18, [[7, 6, 3, 10], [12, 1, 2, 3]]),
    (2, 2, C4, 13, 3, 4096, 15, [[0, 7, 2, 8], [8, 9, 11, 10]]),
    (2, 2, C4, 29, 0, 4096, 20, [[11, 24, 1, 5], [1, 12, 19, 7]]),
    (2, 2, C4, 29, 1, 4096, 17, [[9, 7, 3, 6], [24, 4, 10, 26]]),
    (2, 2, C4, 29, 2, 4096, 16, [[7, 20, 28, 10], [25, 10, 13, 22]]),
    (2, 2, C4, 29, 3, 4096, 18, [[20, 2, 16, 17], [21, 15, 12, 4]]),
    (2, 3, C8, 97, 0, 4096, 7636,
     [[57, 31, 89, 82, 20, 95, 65, 34], [23, 85, 1, 17, 60, 0, 34, 53]]),
    (2, 3, C8, 97, 2, 4096, Q97_SEED2_BUDGET,
     [[16, 75, 29, 45, 91, 38, 73, 54], [71, 6, 25, 32, 72, 89, 78, 86]]),
    (3, 2, C6, 31, 0, 4096, 57,
     [[11, 28, 30, 20, 26, 4], [10, 6, 0, 12, 30, 23], [8, 18, 7, 9, 5, 6]]),
    (3, 2, C6, 31, 1, 4096, 4201,
     [[26, 29, 24, 21, 16, 1], [17, 21, 27, 28, 4, 14], [18, 23, 25, 5, 9, 6]]),
    (3, 2, C6, 31, 2, 4096, 91,
     [[7, 18, 24, 4, 17, 29], [29, 17, 28, 11, 7, 6], [10, 8, 0, 2, 30, 17]]),
    # smaller restart caps; below the finding budget the search restarts,
    # each restart with fresh value orders drawn from the same stream
    (2, 2, C4, 5, 0, 20, 17, [[3, 1, 4, 0], [0, 4, 1, 3]]),
    (2, 2, C4, 5, 0, 50, 17, [[3, 1, 4, 0], [0, 4, 1, 3]]),
    (2, 2, C4, 5, 2, 30, 16, [[3, 2, 1, 4], [4, 1, 2, 3]]),
    (2, 2, C4, 29, 1, 29, 17, [[9, 7, 3, 6], [24, 4, 10, 26]]),
    (2, 3, C8, 97, 0, 400, 14972,
     [[82, 52, 73, 74, 91, 88, 32, 96], [65, 18, 57, 15, 60, 67, 41, 20]]),
    (3, 2, C6, 31, 0, 150, 57,
     [[11, 28, 30, 20, 26, 4], [10, 6, 0, 12, 30, 23], [8, 18, 7, 9, 5, 6]]),
    # caps small enough for two restarts or more before the find
    (2, 2, C4, 5, 0, 10, 30, [[2, 0, 4, 3], [2, 1, 0, 3]]),
    (2, 2, C4, 5, 2, 12, 239, [[0, 1, 3, 4], [0, 3, 1, 4]]),
    (2, 2, C4, 29, 1, 9, 36, [[5, 8, 16, 20], [17, 16, 18, 0]]),
    (3, 2, C6, 31, 2, 60, 590,
     [[16, 28, 8, 22, 10, 7], [14, 13, 28, 4, 0, 16], [10, 5, 19, 13, 24, 4]]),
]

# A case's test id is the one it had before dead levels became free: the
# number before "-u" is the smallest finding budget under that rule, kept
# so that a case can be followed across the rule change.  Cases added
# since carry their current budget there.
PREVIOUS_BUDGETS = [143, 13, 148, 16, 12, 15, 17, 11, 11, 8, 15, 15, 36502,
                    11037, 134, 12562, 416, 92, 64, 43, 8, 23541, 134]


def _case_id(n, row):
    h, d, _, q, seed, restart_nodes, needed, _ = row
    budget = PREVIOUS_BUDGETS[n] if n < len(PREVIOUS_BUDGETS) else needed
    return f"{h}-{d}-cols{n}-{q}-{seed}-{restart_nodes}-{budget}-u{n}"


CASE_IDS = [_case_id(n, row) for n, row in enumerate(FOUND)]


@pytest.mark.parametrize("h,d,cols,q,seed,restart_nodes,needed,u", FOUND,
                         ids=CASE_IDS)
def test_golden_certificate_at_smallest_budget(h, d, cols, q, seed,
                                               restart_nodes, needed, u):
    sol = cy.search_uvectors(h, d, cols, q, seed=seed, budget=needed,
                             restart_nodes=restart_nodes)
    assert [list(v) for v in sol.u] == u
    with pytest.raises(Exhausted, match=f"^budget {needed - 1} consumed$"):
        cy.search_uvectors(h, d, cols, q, seed=seed, budget=needed - 1,
                           restart_nodes=restart_nodes)


@pytest.mark.parametrize("h,d,cols,q,seed,restart_nodes,needed,u", FOUND,
                         ids=CASE_IDS)
def test_golden_table_matches_reference_search(h, d, cols, q, seed,
                                               restart_nodes, needed, u):
    assert reference_search(h, d, cols, q, seed, needed, restart_nodes) == u
    with pytest.raises(Exhausted, match=f"^budget {needed - 1} consumed$"):
        reference_search(h, d, cols, q, seed, needed - 1, restart_nodes)


def test_golden_budget_runs_out_mid_search():
    # 1000 evaluations end inside a level of the q = 97 tree
    with pytest.raises(Exhausted, match="^budget 1000 consumed$"):
        cy.search_uvectors(2, 3, C8, 97, seed=0, budget=1000)


def test_golden_restart_cap_too_small_to_finish():
    # no restart of 7 evaluations completes; the budget ends the search
    with pytest.raises(Exhausted, match="^budget 2000 consumed$"):
        cy.search_uvectors(2, 2, C4, 29, seed=1, budget=2000, restart_nodes=7)


def test_golden_refutation_within_one_restart():
    # (2, 3) on columns 0..3 has no solution over GF(5); a refuted tree
    # charges q for each live position whatever the orders, here 4030
    refuted = "^search space refuted or budget spent at q = 5$"
    with pytest.raises(Exhausted, match=refuted):
        cy.search_uvectors(2, 3, C4, 5, seed=0, budget=4030,
                           restart_nodes=4030)
    with pytest.raises(Exhausted, match="^budget 4029 consumed$"):
        cy.search_uvectors(2, 3, C4, 5, seed=0, budget=4029,
                           restart_nodes=4030)
    # one evaluation short per restart: never refuted, the budget ends it
    with pytest.raises(Exhausted, match="^budget 30000 consumed$"):
        cy.search_uvectors(2, 3, C4, 5, seed=0, budget=30000,
                           restart_nodes=4029)


def test_negative_seed_rejected_before_search():
    with pytest.raises(ValueError, match="seed must be non-negative"):
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
    left, nodes = budget, 0

    def feasible(u, i, r, x):
        return reference_feasible(table, q, dlog, u, i, r, x)

    def evaluate():
        nonlocal left, nodes
        if left == 0:
            raise Exhausted(f"budget {budget} consumed")
        if nodes == 0:
            raise _Abandoned
        left -= 1
        nodes -= 1

    def extend(u, pos):
        if pos == h * k:
            return True
        i, r = divmod(pos, k)
        if not any(feasible(u, i, r, x) for x in range(q)):
            return False  # dead: no order drawn, nothing charged
        for x in next(orders):
            evaluate()
            if feasible(u, i, r, x):
                u[i][r] = x
                if extend(u, pos + 1):
                    return True
        return False

    while True:
        u = [[None] * k for _ in range(h)]
        nodes = restart_nodes
        try:
            if extend(u, 0):
                return u
        except _Abandoned:
            continue
        raise Exhausted(f"search space refuted or budget spent at q = {q}")


# -- candidate mask ------------------------------------------------------------

def reference_feasible(table, q, dlog, u, i, r, x):
    """May x stand at u[i][r]?  One candidate at a time, by modular
    inverses and a table of discrete logs found by trial."""
    for s in range(r):
        if u[i][s] == x:
            return False
    for j in range(i):
        for s in range(r):
            d_i = (u[i][s] - x) % q
            d_j = (u[j][s] - u[j][r]) % q
            if d_i == 0 or d_j == 0:
                return False
            quotient = d_j * pow(d_i, q - 2, q) % q
            if dlog[quotient] % table.lam not in table.allowed[(j, i, s, r)]:
                return False
    return True


SHAPES = [(2, 1), (3, 1), (2, 2), (3, 2), (2, 3)]
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
    h, d, cols, q, u, pos = case
    table = cy.allowed_cosets(cy.template(h, d), cols)
    ctx = gf.cyclotomy_new(gf.field_new(q), table.lam)
    i, r = divmod(pos, len(cols))
    mask = cy._candidate_mask(ctx, cy._mask_tables(table, ctx), u, i, r)
    dlog = discrete_logs(q, ctx.omega)
    expected = [reference_feasible(table, q, dlog, u, i, r, x)
                for x in range(q)]
    assert mask.tolist() == expected


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
