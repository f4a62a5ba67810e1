import numpy as np
import pytest

from hmols import compose as cp
from hmols import cyclotomic as cy
from hmols import designs as dz
from hmols.errors import (
    GroupCountMismatch,
    InvalidMark,
    NoSubfieldMark,
    ParameterMismatch,
)
from hmols.fixtures import hmols_pair_2_4, imols_pair_6_2


def fixture_htd_k3():
    """HTD(3, 2^4): the shipped pair as an HTD restricted to three groups."""
    return dz.restrict_groups(dz.hmols_to_htd(hmols_pair_2_4()), [0, 1, 2])


# -- td_product ---------------------------------------------------------------

def test_td_product_macneish():
    prod = cp.td_product(dz.td_from_field(3, 2), dz.td_from_field(3, 3))
    assert prod.group_size == 6 and prod.index == 1
    assert len(prod.blocks) == 36
    assert dz.verify_design(prod).valid


def test_td_product_higher_index():
    d1 = cy.td_projection(2, 2, 3)  # TD_2(3,2)
    prod = cp.td_product(d1, dz.td_from_field(3, 3))
    assert prod.index == 2 and prod.group_size == 6
    assert dz.verify_design(prod).valid


def test_td_product_group_mismatch():
    with pytest.raises(GroupCountMismatch):
        cp.td_product(dz.td_from_field(3, 2), dz.td_from_field(4, 4))


def test_td_product_associativity_of_validity():
    a, b, c = (dz.td_from_field(3, q) for q in (2, 3, 4))
    left = cp.td_product(cp.td_product(a, b), c)
    right = cp.td_product(a, cp.td_product(b, c))
    assert dz.verify_design(left).valid and dz.verify_design(right).valid
    assert left.group_size == right.group_size == 24


# -- marks and incomplete TDs --------------------------------------------------

def test_mark_subfield_itd_3_4_2():
    mark = cp.mark_subfield(3, 4, 2)
    itd = cp.itd_from_marked(mark)
    assert itd.group_size == 4 and itd.hole_size == 2
    assert dz.verify_design(itd).valid


def test_mark_subfield_rejects_non_subfield():
    with pytest.raises(NoSubfieldMark):
        cp.mark_subfield(3, 4, 3)


def test_marked_product_itd_3_10_2():
    marked2 = cp.mark_trivial(dz.td_from_field(3, 2))
    carried = cp.td_product(dz.td_from_field(3, 5), marked2)
    assert isinstance(carried, cp.MarkedDesign)
    itd = cp.itd_from_marked(carried)
    assert itd.group_size == 10 and itd.hole_size == 2
    assert len(itd.blocks) == 100 - 4
    assert dz.verify_design(itd).valid


def test_mark_block_gives_unit_hole_itd():
    # a single block is a sub-TD(k, 1); deleting it opens an (n; 1) hole
    td = dz.td_from_field(3, 4)
    mark = cp.MarkedDesign(design=td,
                           sub_points=tuple((int(x),) for x in td.blocks[5]),
                           sub_blocks=(5,))
    itd = cp.itd_from_marked(mark)
    assert itd.hole_size == 1 and dz.verify_design(itd).valid


def test_empty_mark_rejected():
    # h' = 0 marks nothing; it is an invalid mark, not a malformed design
    td = dz.td_from_field(3, 4)
    empty = cp.MarkedDesign(design=td, sub_points=((), (), ()), sub_blocks=())
    with pytest.raises(InvalidMark):
        cp.validate_mark(empty)
    with pytest.raises(InvalidMark):
        cp.itd_from_marked(empty)


def test_invalid_mark_rejected():
    td = dz.td_from_field(3, 4)
    bad = cp.MarkedDesign(design=td, sub_points=((0, 1), (0, 1), (0, 1)),
                          sub_blocks=(0, 1, 2, 3))
    with pytest.raises(InvalidMark):
        cp.validate_mark(bad)


def test_fixture_imols_reads_as_itd():
    itd = dz.imols_to_itd(imols_pair_6_2())
    assert (itd.k, itd.group_size, itd.hole_size) == (4, 6, 2)
    assert dz.verify_design(itd).valid


# -- diag product ---------------------------------------------------------------

def test_diag_product_htd_3_2_12():
    a = dz.unit_hole_htd(3, 3)
    b = dz.td_from_field(3, 8)
    c = fixture_htd_k3()
    out = cp.diag_product(a, b, c)
    assert out.group_size == 24 and out.hole_size == 2 and out.hole_count == 12
    expected = 3 * len(c.blocks) + len(a.blocks) * len(b.blocks)
    assert len(out.blocks) == expected == 4 * 12 * 11
    assert dz.verify_design(out).valid


def test_diag_product_m1_is_copy_of_c():
    a = dz.BlockDesign.new(k=3, group_size=1, index=1,
                           blocks=np.empty((0, 3), dtype=np.int32),
                           hole_kind=dz.HOLE_UNIFORM, holes=((0,),))
    c = fixture_htd_k3()
    b = dz.td_from_field(3, 8)
    out = cp.diag_product(a, b, c)
    assert np.array_equal(out.sorted_blocks(), c.sorted_blocks())


def test_diag_product_degenerate_guard():
    # c of type h^1 has no blocks; explicitly rejected
    a = dz.unit_hole_htd(3, 3)
    b = dz.td_from_field(3, 2)
    c = dz.BlockDesign.new(k=3, group_size=2, index=1,
                           blocks=np.empty((0, 3), dtype=np.int32),
                           hole_kind=dz.HOLE_UNIFORM, holes=((0, 1),))
    with pytest.raises(ParameterMismatch):
        cp.diag_product(a, b, c)


# -- wilson composition -----------------------------------------------------------

def wilson_ingredients(u):
    r = dz.td_from_field(4, 5)
    a = fixture_htd_k3()
    b = dz.td_from_field(3, 8)
    e = cp.itd_from_marked(
        cp.td_product(dz.td_from_field(3, 5), cp.mark_trivial(dz.td_from_field(3, 2))))
    f = fixture_htd_k3() if u else None
    return r, a, b, e, f


def test_wilson_compose_htd_3_2_24():
    r, a, b, e, f = wilson_ingredients(4)
    out = cp.wilson_compose(r, a, b, e, f, 4)
    assert out.group_size == 48 and out.hole_count == 24 and out.hole_size == 2
    assert len(out.blocks) == 4 * 24 * 23
    assert dz.verify_design(out).valid


def test_wilson_u0_matches_diag_product():
    r, a, b, _, _ = wilson_ingredients(0)
    out = cp.wilson_compose(r, a, b, None, None, 0)
    _, unit = cp.parallel_class_reduction(r)
    diag = cp.diag_product(unit, b, a)
    assert np.array_equal(out.sorted_blocks(), diag.sorted_blocks())
    assert out.holes == diag.holes


def test_wilson_u_bounds():
    r, a, b, e, f = wilson_ingredients(4)
    with pytest.raises(ParameterMismatch):
        cp.wilson_compose(r, a, b, e, f, 5)
    with pytest.raises(ParameterMismatch, match="need an ITD"):
        cp.wilson_compose(r, a, b, None, f, 4)


# -- truncate-and-fill ------------------------------------------------------------

def test_itd_truncate_19_2():
    out = cp.itd_truncate_compose(
        3, 3, 5, 2, 2,
        r2=dz.td_from_field(5, 5), dm=dz.td_from_field(3, 3),
        dm1=dz.td_from_field(3, 4), dm2=dz.td_from_field(3, 5),
        du=dz.td_from_field(3, 2))
    assert out.group_size == 19 and out.hole_size == 2
    assert len(out.blocks) == 19 * 19 - 4
    assert dz.verify_design(out).valid


def test_itd_truncate_v0_is_plain_td():
    out = cp.itd_truncate_compose(
        3, 3, 5, 2, 0,
        r2=dz.td_from_field(5, 5), dm=dz.td_from_field(3, 3),
        dm1=dz.td_from_field(3, 4), dm2=dz.td_from_field(3, 5),
        du=dz.td_from_field(3, 2))
    assert out.hole_kind == dz.HOLE_NONE and out.group_size == 17
    assert dz.verify_design(out).valid


def test_itd_truncate_u0_v0_is_td_kmt():
    out = cp.itd_truncate_compose(
        3, 3, 5, 0, 0,
        r2=dz.td_from_field(5, 5), dm=dz.td_from_field(3, 3),
        dm1=dz.td_from_field(3, 4), dm2=dz.td_from_field(3, 5), du=None)
    assert out.group_size == 15 and out.hole_kind == dz.HOLE_NONE
    assert dz.verify_design(out).valid


def test_itd_truncate_parameter_guard():
    ingredients = dict(r2=dz.td_from_field(5, 5), dm=dz.td_from_field(3, 3),
                       dm1=dz.td_from_field(3, 4), dm2=dz.td_from_field(3, 5))
    for u, v, du in ((6, 0, None),                     # u > t
                     (0, 6, None),                     # v > t
                     (2, 2, None),                     # 0 < u <= t, no TD(k, u)
                     (5, 0, None),                     # u = t, no TD(k, u)
                     (2, 0, dz.td_from_field(3, 3))):  # a TD(k, u) of the wrong order
        with pytest.raises(ParameterMismatch):
            cp.itd_truncate_compose(3, 3, 5, u, v, du=du, **ingredients)
