"""Frozen means frozen.

Every array that an immutable object or a process-wide cache hands out
comes from gf.frozen and sits on a bytes buffer.  Neither the array nor
any view of it can be made writable again, and no in-place numpy
operation can change it.  A design's blocks are the (B, k) view of its
(k, B) buffer, so flattening them is a copy that numpy hands the caller:
writing that copy leaves the design as it was.
"""

import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmols import compose as cp
from hmols import cyclotomic as cy
from hmols import designs as dz
from hmols import formats, gf
from hmols.errors import MalformedInput
from hmols.fixtures import fixture_path, hmols_pair_2_4, imols_pair_6_2


@functools.cache
def _family():
    return cy.assemble_rdf(cy.search_uvectors(2, 2, [0, 1, 2, 3], 13, seed=0))


def _fixture_grid(name):
    return formats.grid_loads(fixture_path(name).read_text())


def _field_tables(q):
    return {f"GF({q}).{name}": (lambda name=name: getattr(gf.field_new(q), name))
            for name in ("add_table", "sub_table", "exp_table", "dlog_table")}


SHARED = {
    "td_from_field": lambda: dz.td_from_field(3, 5).blocks,
    "design_loads": lambda: formats.design_loads(
        formats.design_dumps(dz.td_from_field(3, 4))).blocks,
    "design_loads of bytes": lambda: formats.design_loads(
        formats.design_dumps(dz.td_from_field(3, 4)).encode()).blocks,
    "grid_loads of bytes": lambda: formats.grid_loads(
        fixture_path("hmols_2_4.grid").read_bytes()).squares,
    "develop_rdf": lambda: cy.develop_rdf(_family()).blocks,
    # each design's (k, B) buffer, which its blocks view
    "td_from_field (k, B)": lambda: dz.td_from_field(3, 5).blocks.T,
    "design_loads (k, B)": lambda: formats.design_loads(
        formats.design_dumps(dz.td_from_field(3, 4)).encode()).blocks.T,
    "develop_rdf (k, B)": lambda: cy.develop_rdf(_family()).blocks.T,
    "td_product (k, B)": lambda: cp.td_product(
        dz.td_from_field(3, 2), dz.td_from_field(3, 3)).blocks.T,
    "latin grid": lambda: formats.grid_loads(formats.grid_dumps(
        dz.LatinSquare.from_array((np.arange(3)[:, None] + np.arange(3)) % 3))).cells,
    "hmols grid": lambda: _fixture_grid("hmols_2_4.grid").squares,
    "imols grid": lambda: _fixture_grid("imols_6_2.grid").squares,
    **_field_tables(9),
    **_field_tables(7),
    "class_table": lambda: gf.cyclotomy_new(gf.field_new(7), 2).class_table,
    "difference_classes": lambda: gf.cyclotomy_new(gf.field_new(7), 2).difference_classes,
    "quotient_classes": lambda: gf.cyclotomy_new(gf.field_new(13), 3).quotient_classes,
    "template": lambda: cy.template(2, 2).entries,
    "allowed_cosets": lambda: cy.allowed_cosets(cy.template(2, 2), [0, 1, 2, 3]).allowed,
    "assemble_rdf": lambda: _family().base_blocks,
}

VIEWS = {
    "itself": lambda a: a,
    "transpose": lambda a: a.T,
    "reversed": lambda a: a[::-1],
    "flat": lambda a: a.reshape(-1),
    "view": lambda a: a.view(),
    "asarray": np.asarray,
}

IN_PLACE = {
    "setitem": lambda v: v.__setitem__(..., 0),
    "iadd": lambda v: v.__iadd__(v),
    "fill": lambda v: v.fill(0),
    "sort": lambda v: v.sort(),
    "ufunc out": lambda v: np.maximum(v, v, out=v),
    "put": lambda v: np.put(v, [0], 0),
}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(SHARED)), st.sampled_from(sorted(VIEWS)),
       st.sampled_from(sorted(IN_PLACE)))
def test_shared_arrays_refuse_every_write(source, view, op):
    a = SHARED[source]()
    before = a.tobytes()
    v = VIEWS[view](a)
    # only flattening an array that is not C-ordered, such as a design's
    # (B, k) blocks, makes a copy, and the copy is the caller's
    copied = view == "flat" and not a.flags.c_contiguous
    assert np.shares_memory(v, a) != copied
    if copied:
        IN_PLACE[op](v)
    else:
        with pytest.raises(ValueError):
            v.setflags(write=True)
        with pytest.raises(ValueError):
            IN_PLACE[op](v)
        assert not v.flags.writeable
    assert a.tobytes() == before and SHARED[source]().tobytes() == before


@pytest.mark.parametrize("blocks", [[], np.empty((0, 3), dtype=np.int64)])
def test_a_design_without_blocks_keeps_its_shape(blocks):
    d = dz.BlockDesign.new(k=3, group_size=2, index=1, blocks=blocks)
    assert d.blocks.shape == (0, 3) and d.blocks.dtype == np.int32
    with pytest.raises(ValueError):
        d.blocks.setflags(write=True)


EMPTY_ROWS = b'{"blocks": [[], []], "group_size": 3, "holes": [], "index": 1, "k": 3, ' \
    b'"kind": "TD"}'


@pytest.mark.parametrize("read", [
    lambda: formats.design_loads(EMPTY_ROWS),
    lambda: dz.BlockDesign.new(k=3, group_size=3, index=1, blocks=[[], []]),
    lambda: dz.BlockDesign.new(k=3, group_size=3, index=1,
                               blocks=np.empty((2, 0), dtype=np.int32))],
    ids=["design_loads", "new", "new-array"])
def test_rows_of_no_entries_are_no_blocks_of_k_points(read):
    with pytest.raises(MalformedInput, match=r"blocks must be \(B, 3\), got \(2, 0\)"):
        read()


# each public builder, and the inputs it is given, built beforehand
BUILDERS = [
    (dz.td_from_field, lambda: (4, 9)),
    (dz.unit_hole_htd, lambda: (4, 7)),
    (cy.td_projection, lambda: (3, 2, 4)),
    (dz.restrict_groups, lambda: (dz.td_from_field(5, 7), [4, 0, 2])),
    (dz.relabel_points, lambda: (dz.td_from_field(3, 5),
                                 [np.random.default_rng(i).permutation(5) for i in range(3)])),
    (dz.hmols_to_htd, lambda: (hmols_pair_2_4(),)),
    (dz.imols_to_itd, lambda: (imols_pair_6_2(),)),
    (cy.expand_td_to_htd, lambda: (cy.td_projection(2, 2, 3), 13))]


@pytest.mark.parametrize("build, inputs", BUILDERS, ids=[b.__name__ for b, _ in BUILDERS])
def test_every_built_design_adopts_its_one_int32_buffer(monkeypatch, build, inputs):
    args, calls, new = inputs(), [], dz.BlockDesign.new

    def recording(*a, **kwargs):
        d = new(*a, **kwargs)
        calls.append((kwargs["blocks"], d))
        return d
    monkeypatch.setattr(dz.BlockDesign, "new", staticmethod(recording))
    out = build(*args)
    assert len(calls) == 1 and calls[0][1] is out
    blocks = calls[0][0]
    assert gf._is_frozen(blocks.T, np.int32) and np.shares_memory(out.blocks, blocks)
    assert dz.verify_design(out).valid


def test_relabel_points_refuses_a_table_of_no_permutations():
    td = dz.td_from_field(3, 3)
    with pytest.raises(MalformedInput, match="one full permutation per group"):
        dz.relabel_points(td, [[0, 1, 2], [0, 0, 2], [5, 1, 2]])
    for table in ([[0, 1, 2], [0.5, 1, 2], [0, 1, 2]],  # no float is truncated
                  [[0, 1, 2], [0, 1], [0, 1, 2]]):
        with pytest.raises(MalformedInput, match="one full permutation per group"):
            dz.relabel_points(td, table)
    perms = [[2, 0, 1], [0, 1, 2], [1, 2, 0]]
    out = dz.relabel_points(td, perms)
    assert out.blocks.tolist() == [[p[x] for p, x in zip(perms, b)] for b in td.blocks.tolist()]


def test_frozen_copies_once_and_keeps_dtype():
    a = np.arange(12, dtype=np.int64).reshape(3, 4)
    f = gf.frozen(a.T)
    assert f.dtype == np.int64 and f.flags.c_contiguous
    assert np.array_equal(f, a.T)
    a[0, 0] = 99  # the caller's array stays theirs
    assert f[0, 0] == 0
    assert gf.frozen(a, np.int32).dtype == np.int32


def test_frozen_returns_a_frozen_array_as_it_is():
    f = gf.frozen(np.arange(12).reshape(3, 4), np.int32)
    for again in (gf.frozen(f), gf.frozen(f, np.int32), gf.frozen(f.reshape(4, 3))):
        assert np.shares_memory(again, f)
    assert gf.frozen(f) is f


@pytest.mark.parametrize("make", [
    lambda f: np.array(f),           # writable
    lambda f: f.T,                   # not C-contiguous
    lambda f: f[:2],                 # a part of its buffer
    lambda f: f.astype(np.int64),    # another dtype
], ids=["writable", "transposed", "part", "int64"])
def test_frozen_copies_anything_else(make):
    f = gf.frozen(np.arange(12).reshape(3, 4), np.int32)
    a = make(f)
    g = gf.frozen(a, np.int32)
    assert not np.shares_memory(g, a) and not g.flags.writeable
    assert g.dtype == np.int32 and g.flags.c_contiguous and np.array_equal(g, a)


def test_a_cast_holds_one_copy_and_a_piece():
    a = np.arange(15_000_000, dtype=np.int64).reshape(3_000_000, 5)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        f = gf.frozen(a, np.int32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f.nbytes <= peak < f.nbytes + (1 << 20)
    assert np.array_equal(f[-1], a[-1])


def test_the_readers_blocks_and_squares_are_their_one_buffer(monkeypatch):
    """design_loads adopts the blocks its fast reading wrote, and
    grid_loads the squares frozen_from wrote, with no copy."""
    made = {}

    def spy(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            made[name] = out = fn(*args, **kwargs)
            return out
        monkeypatch.setattr(module, name, wrapper)

    spy(formats, "_fast_design_doc")
    spy(gf, "frozen_from")
    d = formats.design_loads(formats.design_dumps(dz.td_from_field(3, 4)).encode())
    assert np.shares_memory(d.blocks, made["_fast_design_doc"]["blocks"])
    s = formats.grid_loads(fixture_path("hmols_2_4.grid").read_bytes())
    assert np.shares_memory(s.squares, made["frozen_from"])
