"""A design holds its blocks column-major and shows them row by row.

BlockDesign keeps one frozen int32 (k, B) buffer and hands out its
(B, k) view as blocks.  However a design is built, from a list, from a
row-major or a column-major array, through the design reader or through
a composition, it must show the same blocks, sort and print them to the
same bytes, and verify to the same report, witnesses included, also
when it is corrupted.  The pair count reads the buffer in place.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmols import compose as cp
from hmols import designs as dz
from hmols import formats
from hmols.fixtures import hmols_pair_2_4

BASES = {
    "TD(3, 4)": lambda: dz.td_from_field(3, 4),
    "TD(5, 5)": lambda: dz.td_from_field(5, 5),
    "HTD(4, 1^5)": lambda: dz.unit_hole_htd(4, 5),
    "HTD(4, 2^4)": lambda: dz.hmols_to_htd(hmols_pair_2_4()),
    "TD_2(3, 2)": lambda: dz.BlockDesign.new(
        k=3, group_size=2, index=2,
        blocks=np.repeat(dz.td_from_field(3, 2).blocks, 2, axis=0)),
    "td_product": lambda: cp.td_product(dz.td_from_field(3, 2), dz.td_from_field(3, 3)),
    "product_itd": lambda: cp.product_itd(dz.td_from_field(3, 3), dz.td_from_field(3, 2)),
    "diag_product": lambda: cp.diag_product(
        dz.unit_hole_htd(3, 3), dz.td_from_field(3, 8),
        dz.restrict_groups(dz.hmols_to_htd(hmols_pair_2_4()), [0, 1, 2])),
}


@st.composite
def corrupted(draw):
    """A base design's parameters and its blocks as a row-major int64
    array, after up to two corruptions: an entry set to any value from -1
    to the group size, a block deleted, or a block repeated."""
    d = BASES[draw(st.sampled_from(sorted(BASES)))]()
    rows = np.array(d.blocks, dtype=np.int64)
    for _ in range(draw(st.integers(0, 2))):
        how = draw(st.sampled_from(["entry", "delete", "repeat"]))
        b = draw(st.integers(0, len(rows) - 1))
        if how == "entry":
            rows[b, draw(st.integers(0, d.k - 1))] = draw(st.integers(-1, d.group_size))
        elif how == "delete" and len(rows) > 1:
            rows = np.delete(rows, b, axis=0)
        else:
            rows = np.insert(rows, b, rows[b], axis=0)
    return d, rows


def _rebuilt(d, blocks):
    return dz.BlockDesign.new(k=d.k, group_size=d.group_size, index=d.index,
                              blocks=blocks, hole_kind=d.hole_kind, holes=d.holes)


LAYOUTS = {
    "list": lambda rows: rows.tolist(),
    "row-major int64": np.ascontiguousarray,
    "column-major int64": np.asfortranarray,
    "column-major int32": lambda rows: np.asfortranarray(rows, dtype=np.int32),
    "strided int16": lambda rows: np.repeat(rows.astype(np.int16), 2, axis=1)[:, ::2],
}


def _layout_holds(d):
    cols = d.blocks.T
    assert cols.dtype == np.int32 and cols.flags.c_contiguous
    assert not cols.flags.writeable and not d.blocks.flags.writeable


@settings(max_examples=150, deadline=None)
@given(corrupted())
def test_every_layout_gives_the_same_design(case):
    d, rows = case
    ref = _rebuilt(d, rows)
    _layout_holds(ref)
    assert np.array_equal(ref.blocks, rows)
    text = formats.design_dumps(ref)
    report = dz.verify_design(ref)
    for name, layout in LAYOUTS.items():
        got = _rebuilt(d, layout(rows))
        _layout_holds(got)
        assert np.array_equal(got.blocks, ref.blocks), name
        assert np.array_equal(got.sorted_blocks(), ref.sorted_blocks()), name
        assert formats.design_dumps(got) == text, name
        assert dz.verify_design(got) == report, name
    # the reader's blocks come in sorted order: compare with the sorted design
    in_order = _rebuilt(d, ref.sorted_blocks())
    for data in (text, text.encode()):
        got = formats.design_loads(data)
        _layout_holds(got)
        assert np.array_equal(got.blocks, in_order.blocks)
        assert formats.design_dumps(got) == text
        assert dz.verify_design(got) == dz.verify_design(in_order)


@pytest.mark.parametrize("name", sorted(BASES))
def test_a_built_design_is_its_rebuilt_rows(name):
    d = BASES[name]()
    _layout_holds(d)
    again = _rebuilt(d, np.array(d.blocks).tolist())
    assert np.array_equal(d.blocks, again.blocks)
    assert np.array_equal(d.sorted_blocks(), again.sorted_blocks())
    assert formats.design_dumps(d) == formats.design_dumps(again)
    assert dz.verify_design(d) == dz.verify_design(again)


def test_a_frozen_int32_buffer_is_adopted_as_it_is():
    d = dz.td_from_field(4, 5)
    again = _rebuilt(d, d.blocks)
    assert np.shares_memory(again.blocks, d.blocks)


def test_the_pair_count_reads_a_designs_blocks_in_place(monkeypatch):
    """verify_design's kernel scales a piece of one column and adds the same
    piece of the other with no copy of the design's blocks: every piece it
    reads is a slice of a row of the design's own buffer."""
    d = dz.td_from_field(4, 7)  # 49 blocks
    monkeypatch.setattr(dz, "PIECE", 16)
    read = []
    multiply, add = np.multiply, np.add
    monkeypatch.setattr(np, "multiply",
                        lambda col, *a, **kw: read.append(col) or multiply(col, *a, **kw))
    monkeypatch.setattr(np, "add",
                        lambda x, col, *a, **kw: read.append(col) or add(x, col, *a, **kw))
    assert dz.verify_design(d).valid
    monkeypatch.undo()
    # one scaled piece and one sum per piece of 16 blocks (4 pieces) per pair r < s
    assert len(read) == 2 * 4 * 6
    assert all(np.shares_memory(col, d.blocks) for col in read)


def test_a_key_function_gets_the_columns_in_place(monkeypatch):
    d = dz.td_from_field(3, 5)  # 25 blocks
    monkeypatch.setattr(dz, "PIECE", 10)
    seen = []

    def keys(a, b, out):
        seen.extend((a, b))
        return a.astype(np.intp) * 5 + b

    v = []
    dz._count_pairs(v, d.blocks.T, np.ones((5, 5), dtype=bool), keys=keys)
    assert v == [] and len(seen) == 2 * 3 * 3  # three pieces of each of three pairs
    assert all(np.shares_memory(col, d.blocks) for col in seen)
