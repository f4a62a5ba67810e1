"""The seeded difference-vector search: pinned outcomes, and the
candidate mask against a scalar reference predicate.

Each case was recorded from the scalar candidate-by-candidate search that
the vectorised candidate mask replaced.  For a found certificate the
table gives the smallest budget that finds it: the same seed must yield
the same vectors with exactly that budget and raise Exhausted with one
evaluation less, so the traversal order, the budget accounting and the
restart accounting are all pinned, not just the final answer.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmols import cyclotomic as cy
from hmols import gf
from hmols.errors import Exhausted

C4 = [0, 1, 2, 3]
C6 = list(range(6))
C8 = list(range(8))

# (h, d, cols, q, seed, restart_nodes, smallest finding budget, u-vectors)
FOUND = [
    (2, 2, C4, 5, 0, 4096, 143, [[2, 0, 1, 4], [2, 1, 0, 4]]),
    (2, 2, C4, 5, 1, 4096, 13, [[2, 0, 3, 1], [1, 2, 4, 0]]),
    (2, 2, C4, 5, 2, 4096, 148, [[2, 3, 1, 4], [3, 1, 4, 0]]),
    (2, 2, C4, 5, 3, 4096, 16, [[0, 1, 4, 2], [4, 1, 3, 2]]),
    (2, 2, C4, 13, 0, 4096, 12, [[1, 9, 0, 10], [10, 9, 6, 1]]),
    (2, 2, C4, 13, 1, 4096, 15, [[8, 9, 7, 2], [9, 2, 7, 3]]),
    (2, 2, C4, 13, 2, 4096, 17, [[9, 3, 7, 0], [0, 3, 2, 12]]),
    (2, 2, C4, 13, 3, 4096, 11, [[12, 6, 5, 10], [1, 11, 2, 3]]),
    (2, 2, C4, 29, 0, 4096, 11, [[3, 12, 21, 0], [16, 4, 26, 2]]),
    (2, 2, C4, 29, 1, 4096, 8, [[26, 2, 5, 17], [28, 9, 19, 15]]),
    (2, 2, C4, 29, 2, 4096, 15, [[3, 19, 2, 14], [11, 8, 18, 19]]),
    (2, 2, C4, 29, 3, 4096, 15, [[25, 14, 3, 8], [16, 25, 13, 27]]),
    (2, 3, C8, 97, 0, 4096, 36502,
     [[87, 21, 52, 44, 34, 9, 35, 2], [33, 73, 82, 31, 94, 7, 28, 21]]),
    (2, 3, C8, 97, 2, 4096, 11037,
     [[46, 22, 60, 17, 61, 33, 39, 28], [3, 23, 10, 62, 9, 8, 40, 1]]),
    (3, 2, C6, 31, 0, 4096, 134,
     [[3, 25, 1, 0, 16, 4], [27, 11, 2, 23, 5, 28], [7, 19, 17, 0, 12, 3]]),
    (3, 2, C6, 31, 1, 4096, 12562,
     [[30, 0, 6, 12, 9, 10], [20, 14, 22, 23, 8, 2], [3, 12, 25, 14, 19, 8]]),
    (3, 2, C6, 31, 2, 4096, 416,
     [[3, 20, 0, 7, 9, 2], [1, 30, 2, 26, 13, 18], [8, 28, 13, 16, 22, 30]]),
    # restart_nodes below the finding budget: several restarts, each with
    # fresh value orders drawn from the same stream
    (2, 2, C4, 5, 0, 20, 92, [[1, 4, 3, 2], [0, 4, 3, 1]]),
    (2, 2, C4, 5, 0, 50, 64, [[4, 1, 3, 2], [3, 4, 2, 0]]),
    (2, 2, C4, 5, 2, 30, 43, [[0, 3, 4, 2], [0, 1, 2, 3]]),
    (2, 2, C4, 29, 1, 29, 8, [[26, 2, 5, 17], [28, 9, 19, 15]]),
    (2, 3, C8, 97, 0, 400, 23541,
     [[43, 49, 53, 22, 89, 51, 62, 64], [9, 16, 4, 49, 54, 36, 30, 76]]),
    (3, 2, C6, 31, 0, 150, 134,
     [[3, 25, 1, 0, 16, 4], [27, 11, 2, 23, 5, 28], [7, 19, 17, 0, 12, 3]]),
]


@pytest.mark.parametrize("h,d,cols,q,seed,restart_nodes,needed,u", FOUND)
def test_golden_certificate_at_smallest_budget(h, d, cols, q, seed,
                                               restart_nodes, needed, u):
    sol = cy.search_uvectors(h, d, cols, q, seed=seed, budget=needed,
                             restart_nodes=restart_nodes)
    assert [list(v) for v in sol.u] == u
    with pytest.raises(Exhausted, match=f"^budget {needed - 1} consumed$"):
        cy.search_uvectors(h, d, cols, q, seed=seed, budget=needed - 1,
                           restart_nodes=restart_nodes)


def test_golden_budget_runs_out_mid_search():
    # 1000 evaluations end inside a level of the q = 97 tree
    with pytest.raises(Exhausted, match="^budget 1000 consumed$"):
        cy.search_uvectors(2, 3, C8, 97, seed=0, budget=1000)


def test_golden_restart_cap_too_small_to_finish():
    # no restart of 7 evaluations completes; the budget ends the search
    with pytest.raises(Exhausted, match="^budget 2000 consumed$"):
        cy.search_uvectors(2, 2, C4, 29, seed=1, budget=2000, restart_nodes=7)


def test_golden_refutation_within_one_restart():
    # (2, 3) on columns 0..3 has no solution over GF(5); one pass over the
    # seed-0 tree takes exactly 10030 evaluations
    refuted = "^search space refuted or budget spent at q = 5$"
    with pytest.raises(Exhausted, match=refuted):
        cy.search_uvectors(2, 3, C4, 5, seed=0, budget=10030,
                           restart_nodes=10030)
    with pytest.raises(Exhausted, match="^budget 10029 consumed$"):
        cy.search_uvectors(2, 3, C4, 5, seed=0, budget=10029,
                           restart_nodes=10030)
    # one evaluation short per restart: never refuted, the budget ends it
    with pytest.raises(Exhausted, match="^budget 30000 consumed$"):
        cy.search_uvectors(2, 3, C4, 5, seed=0, budget=30000,
                           restart_nodes=10029)


# -- candidate mask ------------------------------------------------------------

def reference_feasible(table, q, omega, u, i, r, x):
    """May x stand at u[i][r]?  One candidate at a time, by modular
    inverses and a discrete log found by trial."""
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
            dlog = next(t for t in range(q - 1) if pow(omega, t, q) == quotient)
            if dlog % table.lam not in table.allowed[(j, i, s, r)]:
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
    mask = cy._candidate_mask(ctx, cy._allowed_masks(table), u, i, r)
    expected = [reference_feasible(table, q, ctx.omega, u, i, r, x)
                for x in range(q)]
    assert mask.tolist() == expected
