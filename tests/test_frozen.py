"""Frozen means frozen.

Every array that an immutable object or a process-wide cache hands out
comes from gf.frozen and sits on a bytes buffer.  Neither the array nor
any view of it can be made writable again, and no in-place numpy
operation can change it.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmols import cyclotomic as cy
from hmols import designs as dz
from hmols import formats, gf
from hmols.fixtures import fixture_path


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
    "develop_rdf": lambda: cy.develop_rdf(_family()).blocks,
    "latin grid": lambda: formats.grid_loads(formats.grid_dumps(
        dz.LatinSquare.from_array((np.arange(3)[:, None] + np.arange(3)) % 3))).cells,
    "hmols grid": lambda: _fixture_grid("hmols_2_4.grid").squares,
    "imols grid": lambda: _fixture_grid("imols_6_2.grid").squares,
    **_field_tables(9),
    **_field_tables(7),
    "class_table": lambda: gf.cyclotomy_new(gf.field_new(7), 2).class_table,
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
    before = a.copy()
    v = VIEWS[view](a)
    with pytest.raises(ValueError):
        v.setflags(write=True)
    with pytest.raises(ValueError):
        IN_PLACE[op](v)
    assert not v.flags.writeable
    assert np.array_equal(SHARED[source](), before)


@pytest.mark.parametrize("blocks", [[], np.empty((0, 3), dtype=np.int64)])
def test_a_design_without_blocks_keeps_its_shape(blocks):
    d = dz.BlockDesign.new(k=3, group_size=2, index=1, blocks=blocks)
    assert d.blocks.shape == (0, 3) and d.blocks.dtype == np.int32
    with pytest.raises(ValueError):
        d.blocks.setflags(write=True)


def test_frozen_copies_once_and_keeps_dtype():
    a = np.arange(12, dtype=np.int64).reshape(3, 4)
    f = gf.frozen(a.T)
    assert f.dtype == np.int64 and f.flags.c_contiguous
    assert np.array_equal(f, a.T)
    a[0, 0] = 99  # the caller's array stays theirs
    assert f[0, 0] == 0
    assert gf.frozen(a, np.int32).dtype == np.int32
