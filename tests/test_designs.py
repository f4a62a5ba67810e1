import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hmols import designs as dz
from hmols.errors import MalformedInput
from hmols.fixtures import hmols_pair_2_4, imols_pair_6_2


def mutate_square(squares, t, i, j, value):
    arr = np.array(squares, copy=True)
    arr[t, i, j] = value
    return arr


# -- latin squares -----------------------------------------------------------

def test_verify_latin_trivial_and_cayley():
    one = dz.LatinSquare.from_array([[0]])
    assert dz.verify_latin(one).valid
    z3 = dz.LatinSquare.from_array([[(i + j) % 3 for j in range(3)] for i in range(3)])
    assert dz.verify_latin(z3).valid


def test_verify_latin_mutation_reports_row_and_col():
    cells = np.array([[(i + j) % 3 for j in range(3)] for i in range(3)])
    cells[1, 1] = cells[1, 0]  # duplicate in row 1 and in column 0? no: col 1
    rep = dz.verify_latin(dz.LatinSquare.from_array(cells))
    assert not rep.valid
    assert dz.ROW_DUP in rep.kinds() and dz.COL_DUP in rep.kinds()


def test_latin_malformed():
    with pytest.raises(MalformedInput):
        dz.LatinSquare.from_array([[0, 1], [1, 0], [0, 1]])
    with pytest.raises(MalformedInput):
        dz.LatinSquare.from_array([[0, 3], [1, 0]])


# -- holey MOLS --------------------------------------------------------------

def test_fixture_pair_2_4_is_valid():
    pair = hmols_pair_2_4()
    assert (pair.k, pair.h, pair.n) == (2, 2, 4)
    rep = dz.verify_hmols(pair)
    assert rep.valid and not rep.violations


def test_same_square_twice_is_pair_repeated():
    pair = hmols_pair_2_4()
    doubled = np.stack([pair.squares[0], pair.squares[0]])
    twin = dz.HoleyLatinSquareSet.from_arrays(h=2, n=4, holes=pair.holes,
                                              squares=doubled)
    rep = dz.verify_hmols(twin)
    assert not rep.valid
    assert dz.PAIR_REPEATED in rep.kinds()


def test_swapped_entries_mutation_flagged():
    pair = hmols_pair_2_4()
    arr = np.array(pair.squares, copy=True)
    # swap cells (3,1) and (3,8) of square one, in 1-based cells
    arr[0, 2, 0], arr[0, 2, 7] = arr[0, 2, 7], arr[0, 2, 0]
    mutated = dz.HoleyLatinSquareSet.from_arrays(h=2, n=4, holes=pair.holes,
                                                 squares=arr)
    rep = dz.verify_hmols(mutated)
    assert not rep.valid
    assert dz.HOLE_SYMBOL in rep.kinds()
    assert any(kind in rep.kinds() for kind in (dz.PAIR_MISSING, dz.PAIR_REPEATED))


def test_random_single_cell_mutations_always_flagged():
    pair = hmols_pair_2_4()
    g = pair.h * pair.n
    rng = np.random.default_rng(7)
    hole_of = pair.hole_of()
    flagged = 0
    trials = 0
    while trials < 60:
        t = int(rng.integers(pair.k))
        i, j = int(rng.integers(g)), int(rng.integers(g))
        new = int(rng.integers(-1, g))
        if new == pair.squares[t, i, j]:
            continue
        trials += 1
        mutated = dz.HoleyLatinSquareSet.from_arrays(
            h=2, n=4, holes=pair.holes,
            squares=mutate_square(pair.squares, t, i, j, new))
        if not dz.verify_hmols(mutated).valid:
            flagged += 1
    assert flagged == trials


@pytest.mark.parametrize("symbol", [-2, 8])
def test_hmols_symbol_out_of_range_is_malformed(symbol):
    # dataclasses.replace skips from_arrays, so the verifier checks the range
    pair = hmols_pair_2_4()
    bad = dataclasses.replace(pair, squares=mutate_square(pair.squares, 0, 0, 2, symbol))
    with pytest.raises(MalformedInput, match="symbol out of range"):
        dz.verify_hmols(bad)


def _td_2_3_as_k_3():
    return dz.BlockDesign(k=3, group_size=3, index=1, hole_kind=dz.HOLE_NONE, holes=(),
                          blocks=dz.td_from_field(2, 3).blocks)


def _td_2_3_with_hole_point_9():
    return dz.BlockDesign(k=2, group_size=3, index=1, hole_kind=dz.HOLE_SINGLE,
                          holes=((0, 9),), blocks=dz.td_from_field(2, 3).blocks)


@pytest.mark.parametrize("verify, make, message", [
    (dz.verify_design, _td_2_3_as_k_3, r"blocks must be \(B, 3\), got \(9, 2\)"),
    (dz.verify_design, _td_2_3_with_hole_point_9, "hole points leave 0..2"),
    (dz.verify_hmols, lambda: dataclasses.replace(
        hmols_pair_2_4(), squares=np.zeros((2, 4, 4), np.int32)), "squares, got"),
    (dz.verify_hmols, lambda: dataclasses.replace(
        hmols_pair_2_4(), squares=np.zeros((2, 8, 9), np.int32)), "squares, got"),
    (dz.verify_hmols, lambda: dataclasses.replace(
        hmols_pair_2_4(), squares=np.zeros((8, 8), np.int32)), "squares, got"),
    (dz.verify_imols, lambda: dataclasses.replace(imols_pair_6_2(), hole=(0, 9)),
     "hole points leave 0..5"),
    (dz.verify_imols, lambda: dataclasses.replace(imols_pair_6_2(), hole=(0, -1)),
     "hole points leave 0..5"),
    (dz.verify_hmols, lambda: dataclasses.replace(
        hmols_pair_2_4(), holes=((0, 1), (2, 3), (4, 5), (6,))), "integer rows of one size"),
    (dz.verify_hmols, lambda: dataclasses.replace(
        hmols_pair_2_4(), holes=((0.5, 1), (2, 3), (4, 5), (6, 7))), "integer rows of one size"),
    (dz.verify_hmols, lambda: dataclasses.replace(
        hmols_pair_2_4(), holes=(0, 1, 2, 3, 4, 5, 6, 7)), "integer rows of one size"),
    (dz.verify_imols, lambda: dataclasses.replace(imols_pair_6_2(), hole=(0.5, 1)),
     "integer rows of one size"),
    (dz.verify_design, lambda: dataclasses.replace(
        dz.hmols_to_htd(hmols_pair_2_4()), holes=((0, 1), (2,))), "integer rows of one size"),
    (dz.verify_hmols, lambda: dataclasses.replace(
        hmols_pair_2_4(), squares=hmols_pair_2_4().squares.astype(float)),
     "squares must hold integers, got float64"),
    (dz.verify_imols, lambda: dataclasses.replace(
        imols_pair_6_2(), squares=imols_pair_6_2().squares.astype(float)),
     "squares must hold integers, got float64"),
    (dz.verify_design, lambda: dataclasses.replace(
        dz.hmols_to_htd(hmols_pair_2_4()), blocks=dz.hmols_to_htd(hmols_pair_2_4()).blocks
        .astype(float)), "block entries must be integers, got float64"),
], ids=["blocks-2-of-3", "hole-point-9", "squares-2x4x4", "squares-2x8x9", "squares-8x8",
        "imols-hole-9", "imols-hole-minus-1", "ragged-holes", "float-holes", "flat-holes",
        "imols-float-hole", "design-ragged-holes", "float-squares", "imols-float-squares",
        "float-blocks"])
def test_verifiers_refuse_misused_dataclasses(verify, make, message):
    # the plain dataclass constructors skip new and from_arrays, so the
    # verifiers check the shapes and hole points they read
    with pytest.raises(MalformedInput, match=message):
        verify(make())


@pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int16, np.uint32, np.int64,
                                   np.uint64])
def test_verify_design_reads_blocks_of_any_integer_dtype(dtype):
    # a plain constructor's blocks need not be new's int32: their entries
    # are read as numbers, not as the bits of an int32 view
    htd = dz.hmols_to_htd(hmols_pair_2_4())
    assert dz.verify_design(dataclasses.replace(htd, blocks=htd.blocks.astype(dtype))).valid
    wide = htd.blocks.astype(np.int64)
    wide[3, 2] = 2**32 + 1 if np.dtype(dtype).itemsize == 8 else np.iinfo(dtype).max
    report = dz.verify_design(dataclasses.replace(htd, blocks=wide.astype(dtype)))
    assert report.violations == ((dz.BLOCK_SHAPE, (3,)),)


@pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int16, np.int64, np.uint64])
def test_verify_imols_reads_squares_of_any_integer_dtype(dtype):
    # two MOLS(5) with no hole have no blanks, so even unsigned squares hold them
    squares = dz.td_from_field(4, 5).sorted_blocks()[:, 2:].T.reshape(2, 5, 5)
    mols = dz.IncompleteMolsSet.from_arrays(n=5, hole=(), squares=squares)
    assert dz.verify_imols(dataclasses.replace(mols, squares=squares.astype(dtype))).valid


# -- incomplete MOLS ---------------------------------------------------------

def test_fixture_imols_6_2_valid():
    pair = imols_pair_6_2()
    assert (pair.k, pair.n, pair.hole) == (2, 6, (0, 1))
    assert dz.verify_imols(pair).valid


def test_imols_empty_hole_degenerates_to_mols():
    # two field MOLS of order 3: L_a(x, y) = a x + y
    sq = np.array([[[(a * x + y) % 3 for y in range(3)] for x in range(3)]
                   for a in (1, 2)])
    s = dz.IncompleteMolsSet.from_arrays(n=3, hole=(), squares=sq)
    assert dz.verify_imols(s).valid


def test_imols_blanked_entry_is_count_mismatch():
    pair = imols_pair_6_2()
    mutated = dz.IncompleteMolsSet.from_arrays(
        n=6, hole=pair.hole,
        squares=mutate_square(pair.squares, 0, 3, 3, dz.BLANK))
    rep = dz.verify_imols(mutated)
    assert not rep.valid
    assert dz.COUNT_MISMATCH in rep.kinds()


def test_imols_symbol_out_of_range_is_malformed():
    pair = imols_pair_6_2()
    bad = dataclasses.replace(pair, squares=mutate_square(pair.squares, 1, 3, 3, 6))
    with pytest.raises(MalformedInput, match="symbol out of range"):
        dz.verify_imols(bad)


# -- block designs -----------------------------------------------------------

def test_td_from_field_3_2():
    td = dz.td_from_field(3, 2)
    assert len(td.blocks) == 4
    assert dz.verify_design(td).valid


def test_td_from_field_4_5_exhaustive():
    td = dz.td_from_field(4, 5)
    assert len(td.blocks) == 25
    assert dz.verify_design(td).valid


def test_td_from_field_errors():
    with pytest.raises(MalformedInput, match=r"^TD\(9,7\) needs k <= q \+ 1$"):
        dz.td_from_field(9, 7)
    with pytest.raises(MalformedInput, match="^6 is not a prime power$"):
        dz.td_from_field(3, 6)


def test_td_from_field_projective_column():
    # k = q + 1 uses the slope coordinate; TD(8,7) is the full plane
    td = dz.td_from_field(8, 7)
    assert dz.verify_design(td).valid


def test_block_deletion_is_pair_missing():
    htd = dz.hmols_to_htd(hmols_pair_2_4())
    smaller = dz.BlockDesign.new(k=htd.k, group_size=htd.group_size,
                                 index=1, blocks=htd.blocks[1:],
                                 hole_kind=htd.hole_kind, holes=htd.holes)
    rep = dz.verify_design(smaller)
    assert not rep.valid
    assert dz.PAIR_MISSING in rep.kinds() and dz.COUNT_MISMATCH in rep.kinds()


def test_hmols_to_htd_block_count_and_validity():
    pair = hmols_pair_2_4()
    htd = dz.hmols_to_htd(pair)
    assert htd.k == 4 and len(htd.blocks) == 48  # h^2 n (n-1) = 4*4*3
    assert dz.verify_design(htd).valid


def test_hmols_to_htd_rejects_invalid():
    pair = hmols_pair_2_4()
    bad = dz.HoleyLatinSquareSet.from_arrays(
        h=2, n=4, holes=pair.holes,
        squares=np.stack([pair.squares[0], pair.squares[0]]))
    with pytest.raises(MalformedInput, match="^HMOLS set fails verification: "):
        dz.hmols_to_htd(bad)


def idempotent_minus_diagonal(n=3):
    # L(x,y) = 2x + 2y mod 3 is idempotent; blank the diagonal
    cells = np.array([[(2 * x + 2 * y) % n for y in range(n)] for x in range(n)])
    np.fill_diagonal(cells, dz.BLANK)
    return dz.HoleyLatinSquareSet.from_arrays(
        h=1, n=n, holes=[(t,) for t in range(n)], squares=cells[None, :, :])


def test_single_square_type_1_3_to_htd():
    s = idempotent_minus_diagonal()
    assert dz.verify_hmols(s).valid
    htd = dz.hmols_to_htd(s)
    assert htd.k == 3 and len(htd.blocks) == 6
    assert dz.verify_design(htd).valid
    back = dz.htd_to_hmols(htd)
    assert np.array_equal(back.squares, s.squares)


def test_round_trip_exact():
    pair = hmols_pair_2_4()
    back = dz.htd_to_hmols(dz.hmols_to_htd(pair))
    assert np.array_equal(back.squares, pair.squares)
    assert back.holes == pair.holes


def test_htd_to_hmols_requires_htd():
    td = dz.td_from_field(3, 4)
    with pytest.raises(MalformedInput, match="^need a uniform-hole design on >= 3 "
                                             "groups, got none on 3$"):
        dz.htd_to_hmols(td)


def test_unit_hole_htd():
    h33 = dz.unit_hole_htd(3, 3)
    assert len(h33.blocks) == 6
    assert dz.verify_design(h33).valid
    h44 = dz.unit_hole_htd(4, 4)
    assert dz.verify_design(h44).valid
    assert len(h44.blocks) == 12  # 1*4*3
    with pytest.raises(MalformedInput, match=r"^HTD\(5,1\^4\) supports at most q groups$"):
        dz.unit_hole_htd(5, 4)
    with pytest.raises(MalformedInput, match=r"^HTD\(k,1\^q\) needs q >= 3, got 2$"):
        dz.unit_hole_htd(3, 2)


def test_restrict_groups():
    td = dz.td_from_field(4, 5)
    small = dz.restrict_groups(td, [0, 2, 3])
    assert small.k == 3 and dz.verify_design(small).valid
    htd = dz.hmols_to_htd(hmols_pair_2_4())
    sub = dz.restrict_groups(htd, [0, 1, 2])
    assert dz.verify_design(sub).valid and sub.hole_kind == dz.HOLE_UNIFORM
    with pytest.raises(MalformedInput, match=r"^bad group selection \[1\] for k = 4$"):
        dz.restrict_groups(td, [1])
    with pytest.raises(MalformedInput, match=r"^bad group selection \[0, 0\] for k = 4$"):
        dz.restrict_groups(td, [0, 0])


def test_field_td_restrictions_all_pass():
    for k, q in ((3, 3), (4, 4), (5, 5)):
        td = dz.td_from_field(k, q)
        for kp in range(2, k):
            assert dz.verify_design(dz.restrict_groups(td, list(range(kp)))).valid


def test_imols_to_itd_fixture_pair():
    itd = dz.imols_to_itd(imols_pair_6_2())
    assert itd.k == 4 and itd.hole_kind == dz.HOLE_SINGLE
    assert len(itd.blocks) == 36 - 4
    assert dz.verify_design(itd).valid


def test_frozen_objects_do_not_alias_the_callers_array():
    pair = hmols_pair_2_4()
    base = np.array(pair.squares, dtype=np.int32, order="C")
    # a view shares base's buffer; freezing the view left base writable
    frozen = dz.HoleyLatinSquareSet.from_arrays(h=2, n=4, holes=pair.holes,
                                                squares=base[:])
    assert dz.verify_hmols(frozen).valid
    base[0, 2, 0], base[0, 2, 7] = base[0, 2, 7], base[0, 2, 0]
    assert np.array_equal(frozen.squares, pair.squares)
    assert dz.verify_hmols(frozen).valid
    assert not frozen.squares.flags.writeable


@pytest.mark.parametrize("group_size, index", [(4, 0), (4, -1), (0, 1), (-2, 1)])
def test_degenerate_designs_rejected(group_size, index):
    with pytest.raises(MalformedInput):
        dz.BlockDesign.new(k=3, group_size=group_size, index=index, blocks=[])


@pytest.mark.parametrize("entry", [2**31, -2**31 - 1, 2**32, 10**22])
def test_block_entries_outside_int32_rejected(entry):
    blocks = [[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0]]
    blocks[2][1] = entry
    with pytest.raises(MalformedInput):
        dz.BlockDesign.new(k=3, group_size=2, index=1, blocks=blocks)


@pytest.mark.parametrize("dtype", [np.int8, np.uint16, np.int32, np.uint32,
                                   np.int64, np.uint64])
def test_integer_block_arrays_checked_in_their_own_dtype(dtype):
    blocks = np.array([[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=dtype)
    d = dz.BlockDesign.new(k=3, group_size=2, index=1, blocks=blocks)
    assert d.blocks.dtype == np.int32 and d.blocks.tolist() == blocks.tolist()
    blocks[2, 1] = 5
    assert d.blocks[2, 1] == 0 and not d.blocks.flags.writeable
    top = int(np.iinfo(dtype).max)
    if top >= 2**31:
        blocks[2, 1] = top
        with pytest.raises(MalformedInput, match="32-bit"):
            dz.BlockDesign.new(k=3, group_size=2, index=1, blocks=blocks)
    if np.iinfo(dtype).min < -2**31:
        blocks[2, 1] = -2**31 - 1
        with pytest.raises(MalformedInput, match="32-bit"):
            dz.BlockDesign.new(k=3, group_size=2, index=1, blocks=blocks)


def test_ragged_and_huge_block_lists_rejected_as_before():
    for blocks in ([[0, 1], [1]], [[0, "a"]], [[0, None]], [[0, [1]]]):
        with pytest.raises(MalformedInput, match="^blocks must be rows of 2 integers$"):
            dz.BlockDesign.new(k=2, group_size=2, index=1, blocks=blocks)
    with pytest.raises(MalformedInput, match=r"^blocks must be \(B, 2\), got \(\)$"):
        dz.BlockDesign.new(k=2, group_size=2, index=1, blocks=5)
    with pytest.raises(MalformedInput, match="32-bit"):
        dz.BlockDesign.new(k=2, group_size=2, index=1, blocks=[[0, 2**70]])


def test_int32_extremes_load_and_fail_as_shapes():
    d = dz.BlockDesign.new(k=2, group_size=2, index=1,
                           blocks=[[2**31 - 1, 0], [-2**31, 1]])
    assert d.blocks.tolist() == [[2**31 - 1, 0], [-2**31, 1]]
    assert dz.verify_design(d).violations == ((dz.BLOCK_SHAPE, (0,)),
                                              (dz.BLOCK_SHAPE, (1,)))


def test_htd_to_hmols_rejects_a_valid_index_two_design():
    once = dz.unit_hole_htd(3, 5)
    twice = dz.BlockDesign.new(k=3, group_size=5, index=2,
                               blocks=np.concatenate([once.blocks, once.blocks]),
                               hole_kind=dz.HOLE_UNIFORM, holes=once.holes)
    assert dz.verify_design(twice).valid
    with pytest.raises(MalformedInput, match="^need an HTD of index 1, got index 2$"):
        dz.htd_to_hmols(twice)


@st.composite
def block_lists(draw):
    """Blocks with entries a little outside range(g) and few distinct
    values, so that ties and out-of-range entries are both common."""
    g, k = draw(st.integers(1, 6)), draw(st.integers(2, 4))
    entries = st.integers(-3, g + 1)
    return g, draw(st.lists(st.lists(entries, min_size=k, max_size=k),
                            min_size=1, max_size=6))


@settings(max_examples=300, deadline=None)
@given(block_lists())
@example((2, [[0, 0], [1, -3]]))  # key 0 * 2 + 0 > key 1 * 2 - 3
def test_sorted_blocks_is_the_lexicographic_order(case):
    g, blocks = case
    d = dz.BlockDesign.new(k=len(blocks[0]), group_size=g, index=1, blocks=blocks)
    order = np.lexsort(d.blocks.T[::-1])
    assert np.array_equal(d.sorted_blocks(), d.blocks[order])


def test_sorted_blocks_peaks_at_its_output_order_and_keys(monkeypatch):
    """sorted_blocks holds at most its output, the order and the two int64
    key arrays that make it; its gathers, one per column, add no buffer."""
    td = dz.td_from_field(5, 257)
    blocks = len(td.blocks)
    made = []

    def order(cols, g):
        out = lexicographic_order(cols, g)
        made.append(tracemalloc.get_traced_memory())  # (the order and output, peak)
        tracemalloc.reset_peak()
        return out

    lexicographic_order = dz._lexicographic_order
    monkeypatch.setattr(dz, "_lexicographic_order", order)
    tracemalloc.start()
    try:
        out = td.sorted_blocks()
        gathers = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    (held, peak), = made
    assert peak < out.nbytes + 3 * 8 * blocks + (1 << 14)
    assert held < out.nbytes + 8 * blocks + (1 << 14)
    assert gathers < held + (1 << 14)  # "raise" mode buffers a column: 4 * blocks
    assert np.array_equal(out, td.blocks[np.lexsort(td.blocks.T[::-1])])


# -- hole structure ----------------------------------------------------------

def reference_partition(holes, points, cell_size=None):
    """Disjoint, non-empty holes inside range(points), each of cell_size
    points when it is given, as sorted tuples in order of their least
    points; None where they are not."""
    seen, norm = set(), []
    for hole in holes:
        cell = tuple(sorted(hole))
        if not cell or cell_size is not None and len(cell) != cell_size:
            return None
        for x in cell:
            if not 0 <= x < points or x in seen:
                return None
            seen.add(x)
        norm.append(cell)
    return tuple(sorted(norm, key=lambda c: c[0]))


def reference_holes(kind, holes, points):
    """The hole rules of a block design, point by point: its normalized
    holes, or None where it refuses them."""
    if kind == dz.HOLE_NONE:
        return None if holes else ()
    if kind == dz.HOLE_SINGLE:
        return reference_partition(holes, points) if len(holes) == 1 else None
    if kind != dz.HOLE_UNIFORM:
        return None
    sizes = {len(c) for c in holes}
    if len(sizes) != 1:  # no hole at all, or holes of two sizes
        return None
    size = sizes.pop()
    norm = reference_partition(holes, points, size)
    return norm if norm is not None and len(norm) * size == points else None


def _refused_as_none(build):
    try:
        return build()
    except MalformedInput:
        return None


@st.composite
def hole_rows(draw, points, size):
    """Holes cut from a permutation of range(points) in rows of `size`,
    then cut short, given a stray entry or a stray row; or random rows."""
    entry = st.integers(-1, points)
    if draw(st.integers(0, 3)) == 0:
        return draw(st.lists(st.lists(entry, max_size=4), max_size=5))
    perm = draw(st.permutations(range(points)))
    rows = [list(perm[i:i + size]) for i in range(0, points, size)]
    rows = rows[:draw(st.sampled_from([len(rows), len(rows), 1, 0]))]
    if rows and draw(st.booleans()):
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, len(row) - 1))] = draw(entry)
    if draw(st.integers(0, 4)) == 0:
        rows.append(draw(st.lists(entry, max_size=3)))
    return rows


@st.composite
def hole_cases(draw):
    points = draw(st.integers(1, 8))  # a block design has at least one point
    return points, draw(hole_rows(points, draw(st.integers(1, points))))


@settings(max_examples=500, deadline=None)
@given(st.sampled_from([dz.HOLE_NONE, dz.HOLE_SINGLE, dz.HOLE_UNIFORM, "holey"]),
       hole_cases())
@example(dz.HOLE_UNIFORM, (4, []))  # uniform with no hole at all
@example(dz.HOLE_NONE, (3, [[]]))
@example(dz.HOLE_SINGLE, (3, [[]]))
def test_hole_rules_match_the_scalar_reference(kind, case):
    points, holes = case
    want = reference_holes(kind, holes, points)
    assert _refused_as_none(lambda: dz.holes_new(kind, holes, points)) == want
    if len({len(c) for c in holes}) == 1:  # the same holes as one array
        assert _refused_as_none(lambda: dz.holes_new(kind, np.array(holes), points)) == want
    d = _refused_as_none(lambda: dz.BlockDesign.new(
        k=2, group_size=points, index=1, blocks=[], hole_kind=kind, holes=holes))
    assert (d.holes if d else None) == want
    if d is not None:
        assert d.hole_of().tolist() == [
            next((t for t, c in enumerate(want) if x in c), -1) for x in range(points)]


@st.composite
def square_set_cases(draw):
    h, n = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    return h, n, draw(hole_rows(h * n, max(h, 1)))


@settings(max_examples=300, deadline=None)
@given(square_set_cases())
@example((2, 2, []))
@example((2, 0, []))  # no point and no hole: refused by neither
def test_holey_square_set_holes_match_the_scalar_reference(case):
    h, n, holes = case
    norm = reference_partition(holes, h * n, cell_size=h)
    want = norm if norm is not None and len(norm) == n else None
    squares = np.full((1, h * n, h * n), dz.BLANK)
    s = _refused_as_none(lambda: dz.HoleyLatinSquareSet.from_arrays(
        h=h, n=n, holes=holes, squares=squares))
    assert (s.holes if s else None) == want


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 6).flatmap(lambda n: st.tuples(st.just(n), hole_rows(n, max(n, 1)))))
def test_incomplete_square_set_hole_matches_the_scalar_reference(case):
    n, rows = case
    hole = rows[0] if rows else []
    cell = tuple(sorted(hole))
    ok = len(set(cell)) == len(cell) and all(0 <= x < n for x in cell)
    s = _refused_as_none(lambda: dz.IncompleteMolsSet.from_arrays(
        n=n, hole=hole, squares=np.full((1, n, n), dz.BLANK)))
    assert (s.hole if s else None) == (cell if ok else None)
