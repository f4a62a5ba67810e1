import hashlib

import numpy as np
import pytest

from hmols import cli
from hmols import cyclotomic as cy
from hmols import designs as dz
from hmols.errors import (
    BadColumns,
    Exhausted,
    IndexMismatch,
    InvalidFamily,
    MalformedInput,
    MalformedSolution,
    SizeBound,
    TooManyGroups,
)
from hmols.fixtures import cert_2_401, template_3_2_matrix


def all_prime_power_pairs(limit):
    """(h, d) with h a prime power and h^d <= limit, d >= 1."""
    out = []
    for h in range(2, limit + 1):
        try:
            cy.gf.field_new(h)
        except Exception:
            continue
        d = 1
        while h ** d <= limit:
            out.append((h, d))
            d += 1
    return out


# -- template ----------------------------------------------------------------

def test_template_3_2_matches_printed_matrix():
    t = cy.template(3, 2)
    assert np.array_equal(t.entries, template_3_2_matrix())


def test_template_2_1():
    t = cy.template(2, 1)
    assert np.array_equal(t.entries, [[0, 0], [0, 1]])


def test_template_size_bound():
    with pytest.raises(SizeBound):
        cy.template(2, 5, size_bound=16)


@pytest.mark.parametrize("h,d", all_prime_power_pairs(32))
def test_template_column_difference_property(h, d):
    # every difference of two distinct columns hits each value h^(d-1) times
    t = cy.template(h, d)
    lam = t.lam
    for v1 in range(t.size):
        for v2 in range(v1 + 1, t.size):
            dcol = t.field.sub_arr(t.entries[:, v1], t.entries[:, v2])
            counts = np.bincount(dcol, minlength=h)
            assert (counts == lam).all()


def test_template_2_4_difference_multisets():
    t = cy.template(2, 4)
    for v1 in range(16):
        for v2 in range(v1 + 1, 16):
            dcol = t.field.sub_arr(t.entries[:, v1], t.entries[:, v2])
            assert sorted(np.bincount(dcol, minlength=2)) == [8, 8]


# -- projection --------------------------------------------------------------

def test_td_projection_2_2_3():
    td = cy.td_projection(2, 2, 3)
    assert td.index == 2 and len(td.blocks) == 8
    assert dz.verify_design(td).valid


def test_td_projection_d1_is_field_td():
    td = cy.td_projection(3, 1, 3)
    assert td.index == 1
    assert dz.verify_design(td).valid


def test_td_projection_2_3_5():
    # lam * n^2 = 4 * 4 = 16 blocks, every cross pair covered four times
    td = cy.td_projection(2, 3, 5)
    assert td.index == 4 and len(td.blocks) == 16
    assert dz.verify_design(td).valid


def test_td_projection_too_many_groups():
    with pytest.raises(TooManyGroups):
        cy.td_projection(2, 2, 5)


# -- allowed cosets ----------------------------------------------------------

def test_allowed_cosets_2_2_frozen():
    """Frozen by direct scan of the 4x4 template: the pairs whose column
    difference depends only on the leading coordinate are unconstrained."""
    t = cy.template(2, 2)
    table = cy.allowed_cosets(t, [0, 1, 2, 3])
    expected = {
        (0, 1): {1}, (0, 2): {0, 1}, (0, 3): {0},
        (1, 2): {0}, (1, 3): {0, 1}, (2, 3): {1},
    }
    for (r, s), want in expected.items():
        assert table.allowed[(0, 1, r, s)] == frozenset(want)
        # every set is nonempty, some are proper subsets
    assert any(len(v) < 2 for v in table.allowed.values())
    assert all(v for v in table.allowed.values())


def test_allowed_cosets_d1_all_vacuous():
    t = cy.template(2, 1)
    table = cy.allowed_cosets(t, [0, 1])
    assert table.lam == 1
    assert all(v == frozenset({0}) for v in table.allowed.values())


def is_power_progression(s, lam, h):
    """s is an arithmetic progression mod lam whose difference is a power of h."""
    if len(s) == lam or len(s) == 1:
        return True
    step = h
    while step < lam:
        if lam % step == 0 and len(s) == lam // step:
            for a in s:
                if s == frozenset((a + i * step) % lam for i in range(len(s))):
                    return True
        step *= h
    return False


def test_allowed_cosets_2_4_are_power_of_two_progressions():
    t = cy.template(2, 4)
    table = cy.allowed_cosets(t, list(range(16)))
    assert all(is_power_progression(v, 8, 2) for v in table.allowed.values())


def test_allowed_cosets_symmetry():
    # the table is kept for i < j and r < s only; reversing the columns
    # swaps r and s, which negates every difference and so changes nothing
    t = cy.template(3, 2)
    cols = [0, 1, 2, 4]
    table = cy.allowed_cosets(t, cols)
    flipped = cy.allowed_cosets(t, cols[::-1])
    last = len(cols) - 1
    assert all(i < j and r < s for i, j, r, s in table.allowed)
    for (i, j, r, s), v in table.allowed.items():
        assert flipped.allowed[(i, j, last - s, last - r)] == v


def test_allowed_cosets_bad_columns():
    t = cy.template(2, 2)
    with pytest.raises(BadColumns):
        cy.allowed_cosets(t, [0, 0, 1])
    with pytest.raises(BadColumns):
        cy.allowed_cosets(t, [0, 9])


# -- search ------------------------------------------------------------------

def test_search_budget_zero_exhausts():
    with pytest.raises(Exhausted):
        cy.search_uvectors(2, 2, [0, 1, 2, 3], 5, seed=0, budget=0)


def test_search_succeeds_small_prime():
    sol = cy.search_uvectors(2, 2, [0, 1, 2, 3], 5, seed=0, budget=50_000)
    assert sol.q == 5 and len(sol.u) == 2
    # independence: the difference count re-verifies the acceptance predicate
    fam = cy.assemble_rdf(sol)
    assert cy.verify_rdm(fam).valid


def test_search_deterministic_given_seed():
    a = cy.search_uvectors(2, 2, [0, 1, 2, 3], 5, seed=3, budget=50_000)
    b = cy.search_uvectors(2, 2, [0, 1, 2, 3], 5, seed=3, budget=50_000)
    assert a.u == b.u


def test_search_rejects_negative_budget():
    with pytest.raises(ValueError, match="^budget must be non-negative, got -1$"):
        cy.search_uvectors(2, 2, [0, 1, 2, 3], 5, seed=0, budget=-1)


@pytest.mark.parametrize("restart_nodes", [0, -1])
def test_search_rejects_restart_cap_below_one(restart_nodes):
    # every restart would be abandoned before its first evaluation, so the
    # budget would never be charged and the search would never return
    with pytest.raises(ValueError):
        cy.search_uvectors(2, 2, [0, 1, 2, 3], 5, budget=10,
                           restart_nodes=restart_nodes)


def test_search_rejects_bad_congruence():
    with pytest.raises(IndexMismatch):
        cy.search_uvectors(2, 2, [0, 1, 2, 3], 2, seed=0, budget=10)


# -- match_columns -----------------------------------------------------------

def test_match_columns_single_nonblank_is_trivial():
    t = cy.template(2, 2)
    u = [[None, 7, None, None], [None, 3, None, None]]
    assign = cy.match_columns(t, u, 11)
    assert len(assign) == 1 and 0 <= assign[0] < 4


def test_match_columns_identical_vectors_exhausts():
    t = cy.template(2, 2)
    u = [[0, 1, 2, 3], [0, 1, 2, 3]]
    with pytest.raises(Exhausted):
        cy.match_columns(t, u, 5)


def test_match_columns_inconsistent_blanks():
    t = cy.template(2, 2)
    with pytest.raises(MalformedSolution):
        cy.match_columns(t, [[0, 1, None, None], [0, None, 1, None]], 5)


# -- relative difference families ---------------------------------------------

def test_assemble_verify_h2_d1_q3():
    """Hand-checked: rows (0,0) and (0,1) with u = (0,1) twice give the four
    differences (0,1), (0,2), (1,1), (1,2) exactly once each."""
    sol = cy.verify_uvectors(2, 1, [0, 1], 3, [(0, 1), (0, 1)])
    fam = cy.assemble_rdf(sol)
    assert fam.base_blocks.shape == (4, 2)
    assert cy.verify_rdm(fam).valid


def _digest(blocks):
    return hashlib.sha256(np.asarray(blocks, dtype=np.int64).tobytes()).hexdigest()[:16]


def test_assemble_rdf_base_blocks_are_pinned():
    # the block order (omega^e in e, then C_0 ascending) is what certificates
    # develop into; digests recorded when w and C_0 came from scalar powers
    # (the second re-derived that way when the search came to pin u[i][0] = 0)
    shipped = cy.assemble_rdf(cli._solution_from_cert(cert_2_401()))
    assert _digest(shipped.base_blocks) == "b0cb530b2c3f1f9c"
    found = cy.search_uvectors(2, 2, [0, 1, 2, 3], 13, seed=0, budget=50_000)
    assert _digest(cy.assemble_rdf(found).base_blocks) == "3041b2af1ec0bf80"


def test_assemble_width_mismatch():
    with pytest.raises(MalformedSolution):
        cy.verify_uvectors(2, 1, [0, 1], 3, [(0, 1, 2), (0, 1, 2)])


def test_verify_rdm_deleted_block_reports_each_pair():
    sol = cy.search_uvectors(2, 2, [0, 1, 2, 3], 5, seed=0, budget=50_000)
    fam = cy.assemble_rdf(sol)
    smaller = cy.RelativeDifferenceFamily(
        h_field=fam.h_field, q_field=fam.q_field, k=fam.k,
        base_blocks=fam.base_blocks[1:])
    rep = cy.verify_rdm(smaller)
    assert not rep.valid
    missing = [w for w in rep.violations if w[0] == dz.PAIR_MISSING]
    # one missing difference for each of the C(k,2) column pairs
    assert len(missing) == fam.k * (fam.k - 1) // 2


def test_verify_rdm_degenerate_is_malformed():
    sol = cy.search_uvectors(2, 2, [0, 1, 2, 3], 5, seed=0, budget=50_000)
    fam = cy.assemble_rdf(sol)
    empty = cy.RelativeDifferenceFamily(h_field=fam.h_field, q_field=fam.q_field,
                                        k=fam.k, base_blocks=fam.base_blocks[:0])
    with pytest.raises(MalformedInput):
        cy.verify_rdm(empty)


def test_develop_rdf_counts_and_validity():
    sol = cy.search_uvectors(2, 2, [0, 1, 2, 3], 5, seed=0, budget=50_000)
    htd = cy.develop_rdf(cy.assemble_rdf(sol))
    assert len(htd.blocks) == 4 * 5 * 4  # h^2 q (q-1)
    assert dz.verify_design(htd).valid
    hm = dz.htd_to_hmols(htd)
    assert dz.verify_hmols(hm).valid


def test_develop_rdf_invalid_family():
    sol = cy.search_uvectors(2, 2, [0, 1, 2, 3], 5, seed=0, budget=50_000)
    fam = cy.assemble_rdf(sol)
    broken = cy.RelativeDifferenceFamily(
        h_field=fam.h_field, q_field=fam.q_field, k=fam.k,
        base_blocks=fam.base_blocks[:-1])
    with pytest.raises(InvalidFamily):
        cy.develop_rdf(broken)


# -- expansion ----------------------------------------------------------------

def test_expand_projection_ascending_primes():
    # smallest odd prime where the seeded per-block search succeeds; the
    # guarantee kicks in at q > lam^(k(k-1)) = 64 but much smaller works
    proj = cy.td_projection(2, 2, 3)
    htd = None
    for q in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67):
        try:
            htd = cy.expand_td_to_htd(proj, q, seed=1, budget=20_000)
            break
        except Exhausted:
            continue
    assert htd is not None
    assert htd.hole_count == q and htd.hole_size == 2
    assert len(htd.blocks) == 4 * q * (q - 1)
    assert dz.verify_design(htd).valid


def test_expand_lambda_one_field_td():
    td = dz.td_from_field(3, 3)
    htd = cy.expand_td_to_htd(td, 5, seed=0, budget=5_000)
    assert len(htd.blocks) == 9 * 5 * 4
    assert dz.verify_design(htd).valid


@pytest.mark.parametrize("kwargs,message", [
    ({"seed": -1}, "seed must be non-negative, got -1"),
    ({"budget": -1}, "budget must be non-negative, got -1"),
])
def test_expand_rejects_negative_seed_and_budget(kwargs, message):
    # checked before any work: q = 4 alone would be rejected differently
    proj = cy.td_projection(2, 2, 3)
    for q in (7, 4):
        with pytest.raises(ValueError, match=f"^{message}$"):
            cy.expand_td_to_htd(proj, q, **kwargs)


@pytest.mark.parametrize("seed,digest", [(0, "607f42938c73d97e"),
                                         (1, "a36e957ee629d973"),
                                         (5, "49eff71d302a63b2")])
def test_expand_seed_draws_are_pinned(seed, digest):
    # random.Random(seed) drives the per-block search; the block digests
    # were recorded before negative seeds were rejected and must not move
    htd = cy.expand_td_to_htd(cy.td_projection(2, 2, 3), 7, seed=seed,
                              budget=20_000)
    assert _digest(htd.blocks) == digest


def test_expand_congruence_guard():
    proj = cy.td_projection(2, 2, 3)
    with pytest.raises(IndexMismatch):
        cy.expand_td_to_htd(proj, 2, seed=0, budget=10)


@pytest.mark.parametrize("h,d", [(h, d) for h, d in all_prime_power_pairs(32)])
def test_projection_sweep_exhaustive(h, d):
    """Prop 2.1 skeleton: every projection verifies at index h^(d-1)."""
    size = h ** d
    for k in (2, min(3, size), size):
        td = cy.td_projection(h, d, k)
        assert td.index == h ** (d - 1)
        assert dz.verify_design(td).valid
