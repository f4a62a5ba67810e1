import hashlib
import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hmols import cli
from hmols import cyclotomic as cy
from hmols import designs as dz
from hmols import gf
from hmols import planner as pl
from hmols.errors import Exhausted, MalformedInput
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
    # h^d is compared with the bound by bit length before it is built, and
    # the refusal names h and d, not the power: 2^(10^8) has 30,103,000
    # digits (2^(10^12), 125 GB, is tried in a child process in test_cli.py)
    for h, d in [(2, 13), (2, 100_000_000), (3, 5000), (4096, 2)]:
        for build in (lambda: cy.template(h, d), lambda: cy.td_projection(h, d, 3)):
            with pytest.raises(MalformedInput,
                               match=rf"^template would have {h}\^{d} rows \(bound 4096\)$"):
                build()


@pytest.mark.parametrize("h,d", all_prime_power_pairs(32))
def test_template_column_difference_property(h, d):
    # every difference of two distinct columns hits each value h^(d-1) times
    t = cy.template(h, d)
    lam = t.lam
    for v1 in range(t.size):
        for v2 in range(v1 + 1, t.size):
            dcol = t.field.sub(t.entries[:, v1], t.entries[:, v2])
            counts = np.bincount(dcol, minlength=h)
            assert (counts == lam).all()


def test_template_2_4_difference_multisets():
    t = cy.template(2, 4)
    for v1 in range(16):
        for v2 in range(v1 + 1, 16):
            dcol = t.field.sub(t.entries[:, v1], t.entries[:, v2])
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
    with pytest.raises(MalformedInput, match="^need 2 <= k <= 4, got 5$"):
        cy.td_projection(2, 2, 5)


# -- allowed cosets ----------------------------------------------------------

def allowed_sets(table):
    """(i, j, r, s) -> the frozenset of allowed classes, for i < j, r < s."""
    k = len(table.col_selection)
    return {(i, j, r, s): frozenset(np.flatnonzero(table.allowed[i, j, r, s]).tolist())
            for i, j in itertools.combinations(range(table.h), 2)
            for r, s in itertools.combinations(range(k), 2)}


def test_allowed_cosets_2_2_frozen():
    """Frozen by direct scan of the 4x4 template: the pairs whose column
    difference depends only on the leading coordinate are unconstrained."""
    t = cy.template(2, 2)
    table = allowed_sets(cy.allowed_cosets(t, [0, 1, 2, 3]))
    expected = {
        (0, 1): {1}, (0, 2): {0, 1}, (0, 3): {0},
        (1, 2): {0}, (1, 3): {0, 1}, (2, 3): {1},
    }
    for (r, s), want in expected.items():
        assert table[(0, 1, r, s)] == frozenset(want)
        # every set is nonempty, some are proper subsets
    assert any(len(v) < 2 for v in table.values())
    assert all(v for v in table.values())


def test_allowed_cosets_d1_all_vacuous():
    t = cy.template(2, 1)
    table = cy.allowed_cosets(t, [0, 1])
    assert table.lam == 1
    assert all(v == frozenset({0}) for v in allowed_sets(table).values())


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
    assert all(is_power_progression(v, 8, 2) for v in allowed_sets(table).values())


def test_allowed_cosets_symmetry():
    # the table is kept for i < j and r < s only; reversing the columns
    # swaps r and s, which negates every difference and so changes nothing
    t = cy.template(3, 2)
    cols = [0, 1, 2, 4]
    table = cy.allowed_cosets(t, cols)
    flipped = allowed_sets(cy.allowed_cosets(t, cols[::-1]))
    last = len(cols) - 1
    i, j, r, s, _ = np.nonzero(table.allowed)
    assert (i < j).all() and (r < s).all()
    for (i, j, r, s), v in allowed_sets(table).items():
        assert flipped[(i, j, last - s, last - r)] == v


def test_allowed_cosets_table_is_read_only():
    table = cy.allowed_cosets(cy.template(2, 2), [0, 1, 2, 3])
    with pytest.raises(ValueError):
        table.allowed[0, 1, 0, 1, 0] = True


def reference_excluded(t, c1, c2):
    """The per-pair row scan: (i, j) -> the classes excluded for row blocks
    i < j on template columns c1, c2, the offsets e' - e mod lam of rows e
    of block i and e' of block j with equal column differences."""
    blocks = t.field.sub(t.entries[:, c1], t.entries[:, c2]).reshape(t.h, t.lam)
    out = {}
    for i, j in itertools.combinations(range(t.h), 2):
        e1, e2 = np.nonzero(blocks[i][:, None] == blocks[j][None, :])
        out[(i, j)] = frozenset(((e2 - e1) % t.lam).tolist())
    return out


# every template of size <= 81 with h <= 9; for d = 1 and larger h, lam = 1
# and every class is allowed, as test_allowed_cosets_d1_all_vacuous checks
TEMPLATES_UP_TO_81 = [(h, d) for h, d in all_prime_power_pairs(81) if h <= 9]


@pytest.mark.parametrize("h,d", TEMPLATES_UP_TO_81)
def test_allowed_cosets_match_per_pair_scan(h, d):
    # every column pair of the template, gathered from one scan per
    # difference column, against a scan of the pair's own differences
    t = cy.template(h, d)
    table = allowed_sets(cy.allowed_cosets(t, range(t.size)))
    full = frozenset(range(t.lam))
    for r, s in itertools.combinations(range(t.size), 2):
        for (i, j), excluded in reference_excluded(t, r, s).items():
            assert table[(i, j, r, s)] == full - excluded, (i, j, r, s)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(2, 3), (3, 2), (4, 2), (2, 4), (9, 1)]), st.data())
def test_allowed_cosets_of_a_selection_match_per_pair_scan(shape, data):
    # selections in any order, as the search and the certificates use them
    t = cy.template(*shape)
    cols = data.draw(st.lists(st.integers(0, t.size - 1), min_size=2,
                              max_size=min(t.size, 7), unique=True))
    table = allowed_sets(cy.allowed_cosets(t, cols))
    full = frozenset(range(t.lam))
    for r, s in itertools.combinations(range(len(cols)), 2):
        for (i, j), excluded in reference_excluded(t, cols[r], cols[s]).items():
            assert table[(i, j, r, s)] == full - excluded


def test_allowed_cosets_bad_columns():
    t = cy.template(2, 2)
    with pytest.raises(MalformedInput, match=r"^columns \[0, 0, 1\] repeat or leave 0\.\.3$"):
        cy.allowed_cosets(t, [0, 0, 1])
    with pytest.raises(MalformedInput, match=r"^columns \[0, 9\] repeat or leave 0\.\.3$"):
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
    with pytest.raises(MalformedInput, match="^budget must be non-negative, got -1$"):
        cy.search_uvectors(2, 2, [0, 1, 2, 3], 5, seed=0, budget=-1)


@pytest.mark.parametrize("restart_nodes", [0, -1])
def test_search_rejects_restart_cap_below_one(restart_nodes):
    # every restart would be abandoned before its first evaluation, so the
    # budget would never be charged and the search would never return
    with pytest.raises(MalformedInput):
        cy.search_uvectors(2, 2, [0, 1, 2, 3], 5, budget=10,
                           restart_nodes=restart_nodes)


def test_search_rejects_bad_congruence():
    with pytest.raises(MalformedInput, match="^q = 2 is not 1 mod 2$"):
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
    with pytest.raises(MalformedInput, match="^vectors blank at different positions$"):
        cy.match_columns(t, [[0, 1, None, None], [0, None, 1, None]], 5)


def reference_quotient_class(f, lam, a, b):
    """Class of a / b for nonzero a and b: (dlog a - dlog b) mod lam."""
    return int(f.dlog_table[a] - f.dlog_table[b]) % lam


def reference_violations(table, f, u):
    """The scalar check, one column pair and one pair of vectors at a time."""
    allowed = allowed_sets(table)
    pairs = list(itertools.combinations(range(len(table.col_selection)), 2))
    bad = []
    for i, vec in enumerate(u):
        for r, s in pairs:
            if vec[r] == vec[s]:
                bad.append(("EqualEntries", (i, r, s)))
    for i, j in itertools.combinations(range(len(u)), 2):
        for r, s in pairs:
            d_i = f.sub(u[i][r], u[i][s])
            d_j = f.sub(u[j][r], u[j][s])
            if d_i == 0 or d_j == 0:
                continue
            if reference_quotient_class(f, table.lam, d_i, d_j) not in allowed[(i, j, r, s)]:
                bad.append(("ForbiddenCoset", (i, j, r, s)))
    return bad


def reference_match_columns(t, u_raw, q):
    """The backtracking over column pairs, each pair's exclusions scanned
    beforehand, for well-formed raw vectors."""
    f = gf.field_new(q)
    positions = [p for p in range(t.size) if u_raw[0][p] is not None]
    k, h = len(positions), t.h
    u_vals = [[vec[p] for p in positions] for vec in u_raw]
    if any(len(set(vec)) != len(vec) for vec in u_vals):
        raise Exhausted("a vector repeats an entry; no assignment exists")
    qclass = {(i, j, a, b): reference_quotient_class(f, t.lam, f.sub(u_vals[i][a], u_vals[i][b]),
                                                     f.sub(u_vals[j][a], u_vals[j][b]))
              for i, j in itertools.combinations(range(h), 2)
              for a, b in itertools.combinations(range(k), 2)}
    excl = {(i, j, c1, c2): excluded
            for c1, c2 in itertools.combinations(range(t.size), 2)
            for (i, j), excluded in reference_excluded(t, c1, c2).items()}
    assignment, used = [None] * k, [False] * t.size

    def ok(a, col):
        return not any(qclass[(i, j, b, a)] in excl[(i, j, min(col, assignment[b]),
                                                    max(col, assignment[b]))]
                       for b in range(a) for i, j in itertools.combinations(range(h), 2))

    def extend(a):
        if a == k:
            return True
        for col in range(t.size):
            if not used[col] and ok(a, col):
                used[col], assignment[a] = True, col
                if extend(a + 1):
                    return True
                used[col], assignment[a] = False, None
        return False

    if not extend(0):
        raise Exhausted("no column assignment satisfies the constraints")
    return assignment


# (h, d, q) with lam = h^(d-1) dividing q - 1, over prime and extension fields
FIELD_SHAPES = [(h, d, q) for h, d in [(2, 1), (3, 1), (2, 2), (3, 2), (2, 3), (4, 2)]
                for q in (5, 7, 9, 13, 25, 29, 31, 37)
                if (q - 1) % h ** (d - 1) == 0]


@st.composite
def full_assignments(draw):
    h, d, q = draw(st.sampled_from(FIELD_SHAPES))
    t = cy.template(h, d)
    cols = draw(st.lists(st.integers(0, t.size - 1), min_size=2,
                         max_size=min(t.size, 6), unique=True))
    # a narrow range of entries makes repeats within a vector common
    top = draw(st.sampled_from([2, q - 1]))
    u = draw(st.lists(st.lists(st.integers(0, top), min_size=len(cols), max_size=len(cols)),
                      min_size=h, max_size=h))
    return h, d, q, cols, u


@settings(max_examples=300, deadline=None)
@given(full_assignments())
@example((2, 2, 9, [0, 1, 2, 3], [[0, 1, 1, 5], [2, 7, 3, 3]]))
@example((3, 2, 25, [0, 4, 8], [[0, 1, 2], [0, 0, 0], [24, 13, 7]]))
@example((2, 2, 5, [0, 1, 2, 3], [[0, 3, 1, 4], [0, 4, 2, 1]]))
def test_violations_match_scalar_reference(case):
    h, d, q, cols, u = case
    table = cy.allowed_cosets(cy.template(h, d), cols)
    ctx = gf.cyclotomy_new(gf.field_new(q), table.lam)
    assert cy._uvector_violations(table, ctx, u) == reference_violations(table, ctx.field, u)


# known solutions, to be found again at other positions
SOLUTIONS = [(2, 2, 5, [[0, 3, 1, 4], [0, 4, 2, 1]]),
             (2, 2, 13, [[0, 11, 7, 6], [0, 9, 10, 5]]),
             (3, 2, 31, [[0, 11, 28, 30, 20, 26], [0, 4, 26, 17, 9, 30],
                         [0, 24, 23, 20, 13, 17]]),
             (2, 3, 97, [[0, 10, 8, 57, 31, 89, 82, 20], [0, 95, 33, 84, 74, 66, 87, 80]])]


@st.composite
def raw_vectors(draw):
    if draw(st.booleans()):
        h, d, q, u = draw(st.sampled_from(SOLUTIONS))
        keep = sorted(draw(st.lists(st.integers(0, len(u[0]) - 1), min_size=1,
                                    max_size=len(u[0]), unique=True)))
        u = [[vec[r] for r in keep] for vec in u]
    else:
        h, d, q = draw(st.sampled_from(FIELD_SHAPES))
        k = draw(st.integers(1, min(h ** d, 5)))
        u = draw(st.lists(st.lists(st.integers(0, q - 1), min_size=k, max_size=k),
                          min_size=h, max_size=h))
    size = h ** d
    positions = sorted(draw(st.lists(st.integers(0, size - 1), min_size=len(u[0]),
                                     max_size=len(u[0]), unique=True)))
    raw = [[None] * size for _ in range(h)]
    for vec, row in zip(u, raw):
        for p, x in zip(positions, vec):
            row[p] = x
    return h, d, q, raw


@settings(max_examples=200, deadline=None)
@given(raw_vectors())
def test_match_columns_matches_per_pair_backtracking(case):
    h, d, q, raw = case
    t = cy.template(h, d)
    try:
        expected = reference_match_columns(t, raw, q)
    except Exhausted as exc:
        with pytest.raises(Exhausted, match=f"^{exc}$"):
            cy.match_columns(t, raw, q)
    else:
        assert cy.match_columns(t, raw, q) == expected


@pytest.mark.parametrize("q,entry", [(9, 99), (9, -1), (9, 9), (11, -1)])
def test_match_columns_rejects_entries_outside_the_field(q, entry):
    # checked before any class lookup, which would fail or wrap around
    t = cy.template(2, 2)
    with pytest.raises(MalformedInput, match="^vector entry outside GF\\(q\\)$"):
        cy.match_columns(t, [[0, 1, entry, None], [0, 2, 5, None]], q)


class Scanned(Exception):
    pass


@pytest.mark.parametrize("h, d, q, admitted", [
    (2, 9, 257, True), (3, 6, 487, True), (2, 10, 7681, False)])
def test_match_columns_bounds_its_scan(monkeypatch, h, d, q, admitted):
    # size * lam^2 is 2^25 at (2, 9), 3^16 at (3, 6) and 2^28 at (2, 10);
    # the bound is 2^26, checked before the scan of every template column
    def scan(t, diffs):
        raise Scanned
    monkeypatch.setattr(cy, "_allowed_by_difference", scan)
    t = cy.template(h, d)
    raw = [[0, i + 1] + [None] * (t.size - 2) for i in range(h)]
    refused = pytest.raises(MalformedInput, match=rf"^matching columns of the \({h}, {d}\) "
                            rf"template scans {t.size * t.lam ** 2} entries "
                            rf"\(bound {cy.MATCH_WORK}\)$")
    with pytest.raises(Scanned) if admitted else refused:
        cy.match_columns(t, raw, q)


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


def scalar_base_blocks(h, d, cols, q, u):
    """assemble_rdf's blocks one entry at a time from scalar powers: for
    template row m = i*lam + e, then x in C_0 ascending, the entries
    (x * omega^e * u[i][r]) * h + t[m, cols[r]]."""
    t = cy.template(h, d)
    omega = gf.cyclotomy_new(gf.field_new(q), t.lam).omega
    c0 = sorted(pow(omega, t.lam * n, q) for n in range((q - 1) // t.lam))
    return [[x * pow(omega, e, q) * u[i][r] % q * h + int(t.entries[i * t.lam + e, c])
             for r, c in enumerate(cols)]
            for i in range(h) for e in range(t.lam) for x in c0]


def test_assemble_rdf_base_blocks_are_pinned():
    # the block order (omega^e in e, then C_0 ascending) is what certificates
    # develop into; digests recorded when w and C_0 came from scalar powers
    sol = cli._solution_from_cert(cert_2_401())
    assert _digest(cy.assemble_rdf(sol).base_blocks) == "b0cb530b2c3f1f9c"
    assert _digest(scalar_base_blocks(2, 4, sol.col_selection, 401, sol.u)) \
        == "b0cb530b2c3f1f9c"
    # the vectors seed 0 found before the search went column by column:
    # the scalar construction reproduces their recorded digest
    old = [[0, 11, 7, 6], [0, 9, 10, 5]]
    assert _digest(scalar_base_blocks(2, 2, [0, 1, 2, 3], 13, old)) == "3041b2af1ec0bf80"
    assert _digest(cy.assemble_rdf(cy.verify_uvectors(2, 2, [0, 1, 2, 3], 13, old))
                   .base_blocks) == "3041b2af1ec0bf80"
    found = cy.search_uvectors(2, 2, [0, 1, 2, 3], 13, seed=0, budget=50_000)
    assert [list(v) for v in found.u] == [[0, 1, 7, 9], [0, 11, 6, 10]]
    assert _digest(scalar_base_blocks(2, 2, [0, 1, 2, 3], 13, found.u)) == "ee4e3612653eb3a2"
    assert _digest(cy.assemble_rdf(found).base_blocks) == "ee4e3612653eb3a2"


def test_assemble_width_mismatch():
    with pytest.raises(MalformedInput, match="^need 2 vectors of width 2$"):
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
    with pytest.raises(MalformedInput, match="^degenerate family: no differences to cover$"):
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
    with pytest.raises(MalformedInput, match="^difference family fails verification: "):
        cy.develop_rdf(broken)


def _entrywise_development(fam):
    """fam.g_add applied to one base block entry at a time, over all
    shifts; row s * B + b is base block b shifted by s (shift-major)."""
    shifts = np.arange(fam.group_order)
    rows, k = fam.base_blocks.shape
    out = np.empty((len(shifts), rows, k), dtype=np.int64)
    for b in range(rows):
        for r in range(k):
            out[:, b, r] = fam.g_add(np.int64(fam.base_blocks[b, r]), shifts)
    return out.reshape(-1, k)


@pytest.mark.parametrize("h,d,k,q", [(2, 3, 8, 97), (3, 2, 6, 13)])
def test_develop_rdf_matches_entrywise_reference(h, d, k, q):
    sol = cy.search_uvectors(h, d, list(range(k)), q, seed=0, budget=100_000)
    fam = cy.assemble_rdf(sol)
    htd = cy.develop_rdf(fam)
    assert htd.blocks.dtype == np.int32
    assert np.array_equal(htd.blocks, _entrywise_development(fam))


def test_develop_rdf_401_is_pinned_and_its_memory_bounded():
    fam = cy.assemble_rdf(cli._solution_from_cert(cert_2_401()))
    tracemalloc.start()
    try:
        htd = cy.develop_rdf(fam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # recorded when every entry went through g_add in int64
    assert _digest(htd.blocks) == "c309b25e311ce5b2"
    # the output itself is one of the three; developing through int64
    # temporaries took six
    assert peak < 3 * htd.blocks.nbytes
    # beside the output, less than two int32 g x g tables: G's addition
    # table and its temporaries (an int64 table and gathered copies of each
    # column took 10 MB more, 38.5 MB in all)
    assert peak < htd.blocks.nbytes + 2 * fam.group_order ** 2 * 4


def test_htd_to_hmols_401_is_pinned_and_fills_each_square_in_place():
    htd = cy.develop_rdf(cy.assemble_rdf(cli._solution_from_cert(cert_2_401())))
    tracemalloc.start()
    try:
        hm = dz.htd_to_hmols(htd)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # recorded when each square was built apart and copied in
    assert _digest(hm.squares) == "1c591a64edf683fb"
    # the squares, one intp cell index per block and less than one square
    # more: no square is built apart (33.4 MB in all when they were)
    assert peak < hm.squares.nbytes + len(htd.blocks) * np.dtype(np.intp).itemsize \
        + hm.squares[0].nbytes


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
        with pytest.raises(MalformedInput, match=f"^{message}$"):
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


@pytest.mark.parametrize("td, q", [
    (lambda: cy.td_projection(3, 2, 3), 193),  # lam = 3: HTD(3, 3^193)
    # lam = 2, every block of TD(3, 7) twice: HTD(3, 7^97)
    (lambda: dz.BlockDesign.new(k=3, group_size=7, index=2,
                                blocks=np.tile(dz.td_from_field(3, 7).blocks, (2, 1))), 97)],
    ids=["lam=3", "lam=2"])
def test_expand_writes_each_column_in_place(td, q):
    """Each column is whole rows of one q x q table taken into the
    output's buffer: the traced peak is the output, that table, the index
    vector and the verifier's tables, with no column built apart.  The
    bound is counted from the shapes, not measured."""
    td = td()
    tracemalloc.start()
    try:
        out = cy.expand_td_to_htd(td, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    g = out.group_size
    must_hold = (out.blocks.nbytes
                 + 4 * q * q  # the int32 table
                 + len(td.blocks) * (q - 1) // td.index * 8  # one column's row indices
                 + 4 * g * g  # the verifier's 2 g^2 key table, its two g^2 masks
                 + dz.PIECE * (4 + 8))  # and its int32 and intp key buffers
    # numpy's buffers and Python objects fit in the last 256 KiB; building
    # a column apart, then the sum, took two more columns
    assert peak < must_hold + (256 << 10)


def test_expand_congruence_guard():
    proj = cy.td_projection(2, 2, 3)
    with pytest.raises(MalformedInput, match="^q = 2 is not 1 mod 2$"):
        cy.expand_td_to_htd(proj, 2, seed=0, budget=10)


def reference_pair_labels(blocks, lam):
    """The labels one block and one column pair at a time: a block's rank,
    in block order, among the blocks that hold the same pair of points."""
    k = blocks.shape[1]
    labels = np.zeros((len(blocks), k, k), dtype=np.int32)
    counter = {}
    for b, blk in enumerate(blocks):
        for i in range(k):
            for j in range(i + 1, k):
                key = (i, j, int(blk[i]), int(blk[j]))
                t = counter.get(key, 0)
                counter[key] = t + 1
                labels[b, i, j] = t
    return labels


@pytest.mark.parametrize("build", [
    lambda: dz.td_from_field(3, 3), lambda: cy.td_projection(2, 2, 3),
    lambda: cy.td_projection(3, 2, 4), lambda: cy.td_projection(2, 3, 4),
    lambda: pl._build_td_lambda(6, 3)])
def test_pair_labels_match_the_loop(build):
    td = build()
    rng = np.random.default_rng(0)
    for blocks in (td.sorted_blocks(), td.blocks[rng.permutation(len(td.blocks))]):
        assert np.array_equal(cy._pair_labels(blocks, td.group_size, td.index),
                              reference_pair_labels(blocks, td.index))


def reference_search_phi(f, ctx, label_matrix, k, q, rng, values, budget):
    """The per-block search one value and one earlier coordinate at a time."""
    budget_left = budget
    while True:
        phi = [0] + [None] * (k - 1)
        for i in range(1, k):
            rng.shuffle(values)
            for x in values:
                if budget_left <= 0:
                    raise Exhausted(f"per-block budget {budget} consumed")
                budget_left -= 1
                if all(f.sub(phi[j], x) != 0
                       and gf.class_of(ctx, f.sub(phi[j], x)) == label_matrix[j, i]
                       for j in range(i)):
                    phi[i] = x
                    break
            else:
                break
        else:
            return phi


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([(7, 2), (13, 3), (13, 4), (31, 3), (37, 4)]), st.integers(3, 5),
       st.integers(0, 2**32), st.integers(0, 400), st.data())
def test_search_phi_matches_scalar_reference(field, k, seed, budget, data):
    # the same tuple or the same Exhausted, and the same random stream after
    q, lam = field
    f = gf.field_new(q)
    ctx = gf.cyclotomy_new(f, lam)
    labels = np.array(data.draw(st.lists(st.lists(st.integers(0, lam - 1), min_size=k,
                                                  max_size=k), min_size=k, max_size=k)))
    outcomes = []
    for search in (cy._search_phi, reference_search_phi):
        rng = random.Random(seed)
        try:
            got = search(f, ctx, labels, k, q, rng, list(range(q)), budget)
        except Exhausted as exc:
            got = str(exc)
        outcomes.append((got, rng.random()))
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("h,d", [(h, d) for h, d in all_prime_power_pairs(32)])
def test_projection_sweep_exhaustive(h, d):
    """Prop 2.1 skeleton: every projection verifies at index h^(d-1)."""
    size = h ** d
    for k in (2, min(3, size), size):
        td = cy.td_projection(h, d, k)
        assert td.index == h ** (d - 1)
        assert dz.verify_design(td).valid


def test_development_over_the_cap_is_refused_before_building(monkeypatch):
    fam = cy.assemble_rdf(cy.search_uvectors(2, 2, [0, 1, 2, 3], 13, seed=0))
    count = fam.group_order * len(fam.base_blocks)
    g_add = cy.RelativeDifferenceFamily.g_add
    monkeypatch.setattr(cy, "MAX_EXEC_BLOCKS", count - 1)
    monkeypatch.setattr(cy.RelativeDifferenceFamily, "g_add",
                        lambda *args: pytest.fail("built the addition table"))
    with pytest.raises(MalformedInput, match=f"would build {count} blocks, "
                                             f"over the cap {count - 1}$"):
        cy.develop_rdf(fam)
    monkeypatch.setattr(cy, "MAX_EXEC_BLOCKS", count)
    monkeypatch.setattr(cy.RelativeDifferenceFamily, "g_add", g_add)
    assert len(cy.develop_rdf(fam).blocks) == count


def test_expansion_over_the_cap_is_refused_before_any_field_table(monkeypatch):
    td = cy.td_projection(2, 2, 3)  # 8 blocks of index 2
    count = 8 * 13 * 12 // 2
    cyclotomy_new = gf.cyclotomy_new
    monkeypatch.setattr(cy, "MAX_EXEC_BLOCKS", count - 1)
    monkeypatch.setattr(gf, "cyclotomy_new",
                        lambda *args: pytest.fail("built the class table"))
    with pytest.raises(MalformedInput, match=f"would build {count} blocks, "
                                             f"over the cap {count - 1}$"):
        cy.expand_td_to_htd(td, 13)
    monkeypatch.setattr(cy, "MAX_EXEC_BLOCKS", count)
    monkeypatch.setattr(gf, "cyclotomy_new", cyclotomy_new)
    assert len(cy.expand_td_to_htd(td, 13).blocks) == count
