"""The pair-counting kernel against the per-pair loops it replaced.

The reference verifiers below are the loops verify_design, verify_hmols,
verify_imols and verify_rdm ran before they shared designs._count_pairs:
a bincount per pair, then every missing and every repeated cell listed.
Reports must agree exactly, violation order included, on valid objects,
on random single- and multi-entry mutations of them, and on swaps that
keep the number of keys, which only the boolean table of _exact_test can
tell from a valid object.  A small object's pairs are tested in batches:
its reports must be those of the same pairs tested one at a time.
"""

import dataclasses
import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hmols import cli
from hmols import cyclotomic as cy
from hmols import designs as dz
from hmols import formats
from hmols.designs import (
    BLANK,
    BLOCK_SHAPE,
    COL_DUP,
    COUNT_MISMATCH,
    HOLE_SYMBOL,
    PAIR_MISSING,
    PAIR_REPEATED,
    ROW_DUP,
)
from hmols.fixtures import fixture_text, hmols_pair_2_4, imols_pair_6_2


# -- reference verifiers ---------------------------------------------------------

def ref_verify_design(d):
    v = []
    g = d.group_size
    blocks = d.blocks
    if blocks.size and (blocks.min() < 0 or blocks.max() >= g):
        bad = np.nonzero((blocks < 0) | (blocks >= g))[0]
        for b in np.unique(bad):
            v.append((BLOCK_SHAPE, (int(b),)))
        return dz._report(v)
    expected_count = dz.expected_block_count(d)
    if blocks.shape[0] != expected_count:
        v.append((COUNT_MISMATCH, (blocks.shape[0], expected_count)))
    hole_of = d.hole_of()
    in_hole = hole_of >= 0
    same_hole = (hole_of[:, None] == hole_of[None, :]) & in_hole[:, None] & in_hole[None, :]
    expected = np.where(same_hole, 0, d.index).astype(np.int64)
    for r in range(d.k):
        for s in range(r + 1, d.k):
            keys = blocks[:, r].astype(np.int64) * g + blocks[:, s]
            counts = np.bincount(keys, minlength=g * g).reshape(g, g)
            for x, y in zip(*np.nonzero(counts < expected)):
                v.append((PAIR_MISSING, (r, s, int(x), int(y), int(counts[x, y]))))
            for x, y in zip(*np.nonzero(counts > expected)):
                v.append((PAIR_REPEATED, (r, s, int(x), int(y), int(counts[x, y]))))
    return dz._report(v)


def _ref_holey_square(v, sq_idx, square, hole_of, g):
    same_hole = (hole_of[:, None] == hole_of[None, :]) & (hole_of[:, None] >= 0)
    blank = square == BLANK
    for i, j in zip(*np.nonzero(blank != same_hole)):
        v.append((COUNT_MISMATCH, (sq_idx, int(i), int(j))))
    fi, fj = np.nonzero(~blank)
    syms = square[fi, fj]
    for kind, idx in ((ROW_DUP, fi), (COL_DUP, fj)):
        counts = np.bincount(idx * g + syms, minlength=g * g)
        for key in np.nonzero(counts > 1)[0]:
            v.append((kind, (sq_idx, int(key // g), int(key % g))))
    bad = (hole_of[syms] >= 0) & \
        ((hole_of[syms] == hole_of[fi]) | (hole_of[syms] == hole_of[fj]))
    for i, j, s in zip(fi[bad], fj[bad], syms[bad]):
        v.append((HOLE_SYMBOL, (sq_idx, int(i), int(j), int(s))))


def _ref_pairwise(v, squares, g, expected):
    k = squares.shape[0]
    for p in range(k):
        for r in range(p + 1, k):
            a, b = squares[p], squares[r]
            mask = (a != BLANK) & (b != BLANK)
            keys = a[mask].astype(np.int64) * g + b[mask]
            counts = np.bincount(keys, minlength=g * g).reshape(g, g)
            for x, y in zip(*np.nonzero(counts < expected)):
                v.append((PAIR_MISSING, (p, r, int(x), int(y), int(counts[x, y]))))
            for x, y in zip(*np.nonzero(counts > expected)):
                v.append((PAIR_REPEATED, (p, r, int(x), int(y), int(counts[x, y]))))


def ref_verify_hmols(s):
    v = []
    g = s.h * s.n
    hole_of = s.hole_of()
    for idx in range(s.k):
        _ref_holey_square(v, idx, s.squares[idx], hole_of, g)
    same_hole = hole_of[:, None] == hole_of[None, :]
    _ref_pairwise(v, s.squares, g, np.where(same_hole, 0, 1))
    return dz._report(v)


def ref_verify_imols(s):
    v = []
    hole_of = s.hole_of()
    for idx in range(s.k):
        _ref_holey_square(v, idx, s.squares[idx], hole_of, s.n)
    same_hole = (hole_of[:, None] >= 0) & (hole_of[None, :] >= 0)
    _ref_pairwise(v, s.squares, s.n, np.where(same_hole, 0, 1))
    return dz._report(v)


def ref_verify_rdm(fam):
    g = fam.group_order
    expected = np.ones(g, dtype=np.int64)
    expected[:fam.h_field.q] = 0
    v = []
    for r in range(fam.k):
        for s in range(r + 1, fam.k):
            diffs = fam.g_sub(fam.base_blocks[:, r], fam.base_blocks[:, s])
            counts = np.bincount(diffs, minlength=g)
            for a in np.nonzero(counts < expected)[0]:
                v.append((PAIR_MISSING, (r, s, int(a), int(counts[a]))))
            for a in np.nonzero(counts > expected)[0]:
                v.append((PAIR_REPEATED, (r, s, int(a), int(counts[a]))))
    return dz._report(v)


# -- valid objects to mutate ---------------------------------------------------------

DESIGNS = [("td", 3, 2), ("td", 4, 3), ("td", 5, 4), ("td", 6, 5), ("td", 3, 7),
           ("htd", 3, 3), ("htd", 4, 4), ("htd", 5, 5), ("htd", 4, 7)]


@functools.lru_cache(maxsize=None)
def base_design(kind, k, q):
    return dz.td_from_field(k, q) if kind == "td" else dz.unit_hole_htd(k, q)


@functools.lru_cache(maxsize=None)
def base_squares(name):
    if name == "hmols_2_4":
        return hmols_pair_2_4()
    if name == "imols_6_2":
        return imols_pair_6_2()
    return dz.htd_to_hmols(dz.unit_hole_htd(5, 7))  # three squares, unit holes


@functools.lru_cache(maxsize=None)
def base_family(name):
    if name == "cert_2_401":
        cert = formats.cert_loads(fixture_text("cert_2_401.json"))
        return cy.assemble_rdf(cli._solution_from_cert(cert))
    q = int(name)
    return cy.assemble_rdf(cy.search_uvectors(2, 2, [0, 1, 2, 3], q, seed=0,
                                              budget=50_000))


def _entry_edits(draw, shape, values, max_edits=4):
    rows, width = shape
    return draw(st.lists(st.tuples(st.integers(0, rows - 1),
                                   st.integers(0, width - 1), values),
                         min_size=1, max_size=max_edits))


# -- designs -------------------------------------------------------------------------

@st.composite
def mutated_designs(draw):
    d = base_design(*draw(st.sampled_from(DESIGNS)))
    blocks = d.blocks.copy()
    g = d.group_size
    for row, col, value in _entry_edits(draw, blocks.shape, st.integers(0, g - 1)):
        blocks[row, col] = value
    rows = list(range(len(blocks)))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(rows) - 1))
        if draw(st.booleans()):
            rows.insert(at, rows[at])  # a duplicated block
        elif len(rows) > 1:
            del rows[at]
    if draw(st.integers(0, 9)) == 0:  # now and then an entry out of range
        blocks[draw(st.integers(0, len(blocks) - 1)), 0] = draw(st.sampled_from([-1, g]))
    return dz.BlockDesign.new(k=d.k, group_size=g, index=d.index,
                              blocks=blocks[rows], hole_kind=d.hole_kind,
                              holes=d.holes)


@settings(max_examples=300, deadline=None)
@given(mutated_designs())
def test_verify_design_matches_the_reference(d):
    assert dz.verify_design(d) == ref_verify_design(d)


def test_valid_designs_match_the_reference():
    for params in DESIGNS:
        d = base_design(*params)
        rep = dz.verify_design(d)
        assert rep.valid and rep == ref_verify_design(d)


def test_index_two_design_matches_the_reference():
    once = base_design("htd", 4, 4)
    twice = dz.BlockDesign.new(k=4, group_size=4, index=2,
                               blocks=np.concatenate([once.blocks, once.blocks[3:]]),
                               hole_kind=once.hole_kind, holes=once.holes)
    rep = dz.verify_design(twice)
    assert not rep.valid and rep == ref_verify_design(twice)


@st.composite
def swapped_designs(draw):
    """Entries swapped within one column: the block count and every
    column's multiset stay, so each pair has as many keys as 1-cells."""
    d = base_design(*draw(st.sampled_from(DESIGNS)))
    blocks = d.blocks.copy()
    col = draw(st.integers(0, d.k - 1))
    for _ in range(draw(st.integers(1, 3))):
        i, j = draw(st.lists(st.integers(0, len(blocks) - 1), min_size=2, max_size=2,
                             unique=True))
        blocks[[i, j], col] = blocks[[j, i], col]
    return dz.BlockDesign.new(k=d.k, group_size=d.group_size, index=d.index,
                              blocks=blocks, hole_kind=d.hole_kind, holes=d.holes)


@settings(max_examples=300, deadline=None)
@given(swapped_designs())
def test_column_swaps_match_the_reference(d):
    assert dz.verify_design(d) == ref_verify_design(d)


# -- holey and incomplete MOLS ---------------------------------------------------------

@st.composite
def mutated_square_sets(draw):
    name = draw(st.sampled_from(["hmols_2_4", "imols_6_2", "unit_hole_7"]))
    s = base_squares(name)
    squares = s.squares.copy()
    g = squares.shape[1]
    k = squares.shape[0]
    edits = _entry_edits(draw, (k * g, g), st.integers(BLANK, g - 1))
    for cell, col, value in edits:
        squares[cell // g, cell % g, col] = value
    if name == "imols_6_2":
        return dz.IncompleteMolsSet.from_arrays(s.n, s.hole, squares)
    return dz.HoleyLatinSquareSet.from_arrays(s.h, s.n, s.holes, squares)


def _verify_pair(s):
    if isinstance(s, dz.IncompleteMolsSet):
        return dz.verify_imols(s), ref_verify_imols(s)
    return dz.verify_hmols(s), ref_verify_hmols(s)


@settings(max_examples=300, deadline=None)
@given(mutated_square_sets())
def test_square_verifiers_match_the_reference(s):
    got, want = _verify_pair(s)
    assert got == want


def test_symbol_swaps_keep_blanks_and_match_the_reference():
    # a swap inside a row keeps every blank in place, so the per-square
    # array checks and the shared filled-cell columns are what decide
    for name in ("hmols_2_4", "imols_6_2", "unit_hole_7"):
        s = base_squares(name)
        got, want = _verify_pair(s)
        assert got.valid and got == want
        squares = s.squares.copy()
        row = squares[-1, 1]
        filled = np.flatnonzero(row != BLANK)
        row[filled[0]], row[filled[1]] = row[filled[1]], row[filled[0]]
        if isinstance(s, dz.IncompleteMolsSet):
            bad = dz.IncompleteMolsSet.from_arrays(s.n, s.hole, squares)
        else:
            bad = dz.HoleyLatinSquareSet.from_arrays(s.h, s.n, s.holes, squares)
        got, want = _verify_pair(bad)
        assert not got.valid and got == want
        assert got.kinds() >= {PAIR_MISSING, PAIR_REPEATED}


@st.composite
def swapped_square_sets(draw):
    """Symbols swapped within one row of one square: blanks stay placed and
    every line and pair keeps as many keys as 1-cells."""
    name = draw(st.sampled_from(["hmols_2_4", "imols_6_2", "unit_hole_7"]))
    s = base_squares(name)
    squares = s.squares.copy()
    for _ in range(draw(st.integers(1, 3))):
        row = squares[draw(st.integers(0, len(squares) - 1)),
                      draw(st.integers(0, squares.shape[1] - 1))]
        filled = np.flatnonzero(row != BLANK).tolist()
        i, j = draw(st.lists(st.sampled_from(filled), min_size=2, max_size=2,
                             unique=True))
        row[[i, j]] = row[[j, i]]
    if name == "imols_6_2":
        return dz.IncompleteMolsSet.from_arrays(s.n, s.hole, squares)
    return dz.HoleyLatinSquareSet.from_arrays(s.h, s.n, s.holes, squares)


@settings(max_examples=300, deadline=None)
@given(swapped_square_sets())
def test_row_swaps_match_the_reference(s):
    got, want = _verify_pair(s)
    assert got == want


# -- relative difference families ----------------------------------------------------

FAMILIES = ["5", "13", "cert_2_401"]


@st.composite
def mutated_families(draw, names=FAMILIES):
    fam = base_family(draw(st.sampled_from(names)))
    blocks = fam.base_blocks.copy()
    values = st.integers(0, fam.group_order - 1)
    for row, col, value in _entry_edits(draw, blocks.shape, values):
        blocks[row, col] = value
    return dataclasses.replace(fam, base_blocks=blocks)


@settings(max_examples=200, deadline=None)
@given(mutated_families())
def test_verify_rdm_matches_the_reference(fam):
    assert cy.verify_rdm(fam) == ref_verify_rdm(fam)


def test_valid_families_match_the_reference():
    for name in FAMILIES:
        fam = base_family(name)
        rep = cy.verify_rdm(fam)
        assert rep.valid and rep == ref_verify_rdm(fam)


# -- latin squares and the square-to-design conversions ------------------------------

def ref_verify_latin(sq):
    v = []
    n = sq.n
    for i in range(n):
        row = sq.cells[i]
        counts = np.bincount(row[row != BLANK], minlength=n)
        for s in np.nonzero(counts > 1)[0]:
            v.append((ROW_DUP, (i, int(s))))
    for j in range(n):
        col = sq.cells[:, j]
        counts = np.bincount(col[col != BLANK], minlength=n)
        for s in np.nonzero(counts > 1)[0]:
            v.append((COL_DUP, (j, int(s))))
    return dz._report(v)


@st.composite
def latin_arrays(draw):
    n = draw(st.integers(1, 6))
    cells = draw(st.lists(st.integers(BLANK, n - 1), min_size=n * n, max_size=n * n))
    return dz.LatinSquare.from_array(np.array(cells).reshape(n, n))


@settings(max_examples=300, deadline=None)
@given(latin_arrays())
def test_verify_latin_matches_the_reference(sq):
    assert dz.verify_latin(sq) == ref_verify_latin(sq)


def test_conversions_list_the_off_hole_cells_in_row_major_order():
    for name in ("hmols_2_4", "imols_6_2", "unit_hole_7"):
        s = base_squares(name)
        g = s.squares.shape[1]
        hole = set(np.flatnonzero(s.hole_of() >= 0).tolist())
        if isinstance(s, dz.HoleyLatinSquareSet):
            design = dz.hmols_to_htd(s)
            hole_of = s.hole_of()
            off = [(i, j) for i in range(g) for j in range(g) if hole_of[i] != hole_of[j]]
        else:
            design = dz.imols_to_itd(s)
            off = [(i, j) for i in range(g) for j in range(g)
                   if not (i in hole and j in hole)]
        want = [[i, j, *(int(sq[i, j]) for sq in s.squares)] for i, j in off]
        assert design.blocks.tolist() == want



# -- the kernel itself -----------------------------------------------------------------

def _accepted(test, keys):
    """Whether _exact_test passes the keys as exact.  bincount refuses a
    negative key with ValueError, and the table's scatter a key beyond
    twice its size with IndexError."""
    keys = np.array(keys, dtype=np.intp)
    try:
        return not list(test([(keys, keys)], lambda x, y, out: x))
    except (ValueError, IndexError):
        return False


def test_out_of_range_or_extra_keys_are_never_accepted(monkeypatch):
    # -1 and -4 would wrap onto cells 3 and 0, the one cell each set misses;
    # a fifth key clears no cell that four keys left set; in pieces of one,
    # three or all the keys
    for piece in (1, 3, dz.PIECE):
        monkeypatch.setattr(dz, "PIECE", piece)
        test = dz._exact_test(np.ones(4, dtype=bool))
        assert _accepted(test, [0, 1, 2, 3])
        for keys in ([0, 1, 2, -1], [-4, 1, 2, 3], [0, 1, 2, 4], [7, 1, 2, 3],
                     [0, 1, 2, -9], [8, 1, 2, 3], [0, 1, 2, 3, 3], [0, 1, 2]):
            assert not _accepted(test, keys)
        assert _accepted(test, [3, 2, 1, 0])  # the table is reset after a refusal
    # through the kernel: a negative entry makes key -1, which wraps onto (1, 1)
    blocks = np.array([[0, 0], [0, 1], [1, 0], [0, -1]])
    with pytest.raises(ValueError):
        dz._count_pairs([], blocks.T, np.ones((2, 2), dtype=bool))


def test_a_valid_0_1_object_takes_no_bincount(monkeypatch):
    calls = []
    bincount = np.bincount
    monkeypatch.setattr(np, "bincount",
                        lambda *a, **kw: calls.append(1) or bincount(*a, **kw))
    assert dz.verify_design(base_design("htd", 5, 5)).valid
    assert dz.verify_hmols(base_squares("unit_hole_7")).valid
    assert dz.verify_imols(imols_pair_6_2()).valid
    assert cy.verify_rdm(base_family("13")).valid
    assert calls == []


def test_an_index_two_design_goes_through_bincount(monkeypatch):
    once = base_design("td", 4, 3)
    twice = dz.BlockDesign.new(k=4, group_size=3, index=2,
                               blocks=np.concatenate([once.blocks, once.blocks[::-1]]))
    calls = []
    bincount = np.bincount
    monkeypatch.setattr(np, "bincount",
                        lambda *a, **kw: calls.append(1) or bincount(*a, **kw))
    rep = dz.verify_design(twice)
    assert len(calls) == 6  # one per pair of the four groups
    assert rep.valid and rep == ref_verify_design(twice)


def test_misplaced_blanks_are_tested_at_the_filtered_length(monkeypatch):
    s = base_squares("unit_hole_7")  # three squares, blank on the diagonal
    squares = s.squares.copy()
    squares[0, 0, 1], squares[0, 0, 0] = BLANK, squares[0, 0, 1]  # a blank moves
    bad = dz.HoleyLatinSquareSet.from_arrays(s.h, s.n, s.holes, squares)
    tested = []
    exact_test = dz._exact_test

    def spying(expected, blanks=0):
        test = exact_test(expected, blanks)

        def recorded(pairs, keys):
            made = []  # the keys of filled cells (a blank's is below zero) per call
            failed = list(test(pairs, lambda *a: made.append(
                np.count_nonzero((k := keys(*a)) >= 0)) or k))
            tested.append((made, failed == []))
            return failed
        return recorded
    monkeypatch.setattr(dz, "_exact_test", spying)
    rep = dz.verify_hmols(bad)
    assert rep == ref_verify_hmols(bad) and not rep.valid
    # the four lines of squares 1 and 2 in one batch (42 off-diagonal cells
    # each); then the three pairs in one batch, whose keys drop the cells
    # either square leaves blank (124 of 147 kept), so each pair is tested
    # alone: (0, 1) and (0, 2) over the 41 cells both fill, each made once
    # more in full for its one bincount, and (1, 2) over 42
    assert tested == [([4 * 42], True), ([124, 41, 41, 41, 41, 42], False)]


@pytest.mark.parametrize("squares", [hmols_pair_2_4, imols_pair_6_2])
def test_squares_with_their_blanks_in_place_set_up_one_exact_test(monkeypatch, squares):
    # the (square, row) and (square, column) pairs of both squares and the
    # pair of squares: five pairs of the k + 2 columns, in one test of one batch
    s = squares()
    set_up, tested = [], []
    exact_test = dz._exact_test

    def spying(expected, blanks=0):
        set_up.append(blanks)
        test = exact_test(expected, blanks)
        return lambda pairs, keys: tested.append(len(pairs)) or test(pairs, keys)
    monkeypatch.setattr(dz, "_exact_test", spying)
    verify = dz.verify_hmols if isinstance(s, dz.HoleyLatinSquareSet) else dz.verify_imols
    assert verify(s).valid
    assert set_up == [np.count_nonzero(s.squares[0] == BLANK)] and tested == [5]


def _index_two(d):
    return dz.BlockDesign.new(k=d.k, group_size=d.group_size, index=2,
                              blocks=np.concatenate([d.blocks, d.blocks]),
                              hole_kind=d.hole_kind, holes=d.holes)


@st.composite
def pieced_objects(draw):
    """Valid and corrupted designs of index 1 and 2, square sets (blanks
    misplaced now and then) and difference families, each with the
    verifier and reference loop that check it."""
    design = st.sampled_from(DESIGNS).map(lambda p: base_design(*p))
    squares = st.sampled_from(["hmols_2_4", "imols_6_2", "unit_hole_7"]).map(base_squares)
    small = ["5", "13"]  # GF(401)'s family takes about a second a key at a time
    obj = draw(st.one_of(design, mutated_designs(), design.map(_index_two),
                         mutated_designs().map(_index_two), squares,
                         mutated_square_sets(), st.sampled_from(small).map(base_family),
                         mutated_families(small)))
    if isinstance(obj, dz.BlockDesign):
        return obj, dz.verify_design, ref_verify_design
    if isinstance(obj, dz.IncompleteMolsSet):
        return obj, dz.verify_imols, ref_verify_imols
    if isinstance(obj, dz.HoleyLatinSquareSet):
        return obj, dz.verify_hmols, ref_verify_hmols
    return obj, cy.verify_rdm, ref_verify_rdm


@settings(max_examples=300, deadline=None)
@given(pieced_objects(), st.sampled_from([1, 2, 3, 5, 7, 20, 65]))
def test_any_piece_size_gives_the_reference_report(case, piece):
    # pieces are flat slices of the keys: 1 to 7 keys split every design
    # and family column and end inside square rows (6 to 8 cells), 20
    # ends inside the third or fourth row, and 65, just over the largest
    # square (8 x 8), takes every square whole.  A valid object of index 1
    # passes the boolean test: no bincount runs
    obj, verify, reference = case
    calls = []
    bincount = np.bincount
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dz, "PIECE", piece)
        mp.setattr(np, "bincount", lambda *a, **kw: calls.append(1) or bincount(*a, **kw))
        got = verify(obj)
    assert got == reference(obj)
    assert calls == [] or not got.valid or getattr(obj, "index", 1) > 1


def test_a_passing_design_is_counted_without_a_key_buffer_of_its_size():
    d = dz.td_from_field(3, 1009)  # 1,018,081 blocks
    tracemalloc.start()
    try:
        assert dz.verify_design(d).valid
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the g x g tables and the boolean table take about 4 MB; one intp key
    # per block would take 8 MB on its own
    assert peak < len(d.blocks) * np.dtype(np.intp).itemsize


# -- batches of pairs --------------------------------------------------------------

def _cells_per_pair(obj):
    """How much of a PIECE each pair of obj takes: its keys (a design's
    blocks, a family's base blocks, a square's cells) or its region's
    1-cells half of the table (g^2 cells, or g for a family), whichever
    is more."""
    if isinstance(obj, dz.BlockDesign):
        return max(len(obj.blocks), obj.group_size ** 2)
    if isinstance(obj, cy.RelativeDifferenceFamily):
        return max(len(obj.base_blocks), obj.group_order)
    return obj.squares[0].size


def _verifier(obj):
    if isinstance(obj, dz.BlockDesign):
        return dz.verify_design
    if isinstance(obj, cy.RelativeDifferenceFamily):
        return cy.verify_rdm
    return dz.verify_imols if isinstance(obj, dz.IncompleteMolsSet) else dz.verify_hmols


@st.composite
def moved_blank_square_sets(draw):
    """A filled cell of one square made blank, and now and then a blank
    cell filled: that square's pairs count only the cells both fill."""
    name = draw(st.sampled_from(["hmols_2_4", "imols_6_2", "unit_hole_7"]))
    s = base_squares(name)
    squares = s.squares.copy()
    square = squares[draw(st.integers(0, len(squares) - 1))]
    filled = np.argwhere(square != BLANK).tolist()
    i, j = filled[draw(st.integers(0, len(filled) - 1))]
    if draw(st.booleans()):
        blank = np.argwhere(square == BLANK).tolist()
        bi, bj = blank[draw(st.integers(0, len(blank) - 1))]
        square[bi, bj] = square[i, j]
    square[i, j] = BLANK
    if name == "imols_6_2":
        return dz.IncompleteMolsSet.from_arrays(s.n, s.hole, squares)
    return dz.HoleyLatinSquareSet.from_arrays(s.h, s.n, s.holes, squares)


def _without_symbol_6_in_row_0():
    """The three unit-hole squares of order 7 with the 6 of square 0's row 0
    made a 1: row 0 and a column then lack a 6, the one symbol whose
    (symbol, line) cells a neighbour's blank keys (-7 + line) would clear
    if the pairs of a batch shared their regions' empty halves."""
    s = base_squares("unit_hole_7")
    squares = s.squares.copy()
    squares[0, 0, squares[0, 0].tolist().index(6)] = 1
    return dz.HoleyLatinSquareSet.from_arrays(s.h, s.n, s.holes, squares)


@settings(max_examples=300, deadline=None)
@given(st.one_of(mutated_designs(), mutated_designs().map(_index_two),
                 mutated_families(["5", "13"]), swapped_square_sets(),
                 mutated_square_sets(), moved_blank_square_sets()),
       st.integers(2, 12), st.integers(0, 2**16))
@example(_without_symbol_6_in_row_0(), 6, 0)  # all six line tests in one batch
def test_batches_report_as_pair_by_pair(obj, per, extra):
    # corrupted designs (index 1 and 2) and families; square sets with their
    # blanks in place (symbols swapped within rows) or not (any entry
    # rewritten, a blank included, or a blank moved).  A PIECE of one pair's
    # keys or cells tests each pair alone; one of `per` pairs', plus a few,
    # makes batches of `per` pairs, so the 1 to 15 pairs (and 2 to 6 line
    # tests) of an object end in a part batch whenever per does not divide them
    verify, n = _verifier(obj), max(1, _cells_per_pair(obj))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dz, "PIECE", n)
        alone = verify(obj)
        mp.setattr(dz, "PIECE", per * n + extra % n)
        batched = verify(obj)
    assert batched == alone  # the valid flag and every witness, in order
    assert verify(obj) == alone


def test_a_small_valid_object_is_counted_in_one_batch(monkeypatch):
    # the keys of all six pairs of a TD(4, 3) fit one PIECE: they are made
    # once, cleared in one scatter, and never made again pair by pair
    made = []
    scaled_sum = dz._scaled_sum
    monkeypatch.setattr(dz, "_scaled_sum", lambda width: (
        lambda x, y, out: made.append(len(x)) or scaled_sum(width)(x, y, out)))
    assert dz.verify_design(base_design("td", 4, 3)).valid
    assert made == [6 * 9]
    # a corrupted one is tested again pair by pair, and its failed pairs
    # once more in full for their bincount
    d = base_design("td", 4, 3)
    blocks = d.blocks.copy()
    blocks[0, 3] = (blocks[0, 3] + 1) % 3
    bad = dz.BlockDesign.new(k=4, group_size=3, index=1, blocks=blocks)
    made.clear()
    rep = dz.verify_design(bad)
    assert rep == ref_verify_design(bad) and not rep.valid
    assert made == [6 * 9] + [9] * 6 + [9] * 3  # pairs (0, 3), (1, 3) and (2, 3) fail


def test_pairs_with_few_keys_batch_no_more_table_than_one_pair_takes():
    # a design whose one hole holds every point has no blocks, so each pair
    # makes no key: the batches are bounded by the table's g^2 cells per
    # pair as well, or the 190 pairs of 20 groups would share one batch and
    # a table of 190 * 2 g^2 cells
    g, k = 300, 20
    d = dz.BlockDesign.new(k=k, group_size=g, index=1, blocks=np.empty((0, k), np.int32),
                           hole_kind=dz.HOLE_UNIFORM, holes=[range(g)])
    tracemalloc.start()
    try:
        assert dz.verify_design(d).valid
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the same-hole and expected g x g tables and the 2 g^2 table
    assert peak < 12 * g * g
