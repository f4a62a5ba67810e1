import hashlib
import re
import sys
import tracemalloc

import numpy as np
import pytest

from hmols import compose as cp
from hmols import cyclotomic as cy
from hmols import designs as dz
from hmols import gf
from hmols.errors import MalformedInput
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
    with pytest.raises(MalformedInput, match="^3 groups vs 4$"):
        cp.td_product(dz.td_from_field(3, 2), dz.td_from_field(4, 4))


def test_td_product_associativity_of_validity():
    a, b, c = (dz.td_from_field(3, q) for q in (2, 3, 4))
    left = cp.td_product(cp.td_product(a, b), c)
    right = cp.td_product(a, cp.td_product(b, c))
    assert dz.verify_design(left).valid and dz.verify_design(right).valid
    assert left.group_size == right.group_size == 24


# -- marks and incomplete TDs --------------------------------------------------

def _digest(d):
    h = hashlib.sha256(np.asarray(d.blocks, dtype=np.int64).tobytes())
    h.update(repr(tuple(map(tuple, d.holes))).encode())
    return h.hexdigest()[:16]


def test_subfield_itd_3_4_2():
    itd = cp.subfield_itd(3, 4, 2)
    assert itd.group_size == 4 and itd.hole_size == 2
    assert dz.verify_design(itd).valid
    # recorded when the subfield mark was a separate object
    assert _digest(itd) == "2ca94c4be98ebecc"


def test_subfield_itd_rejects_non_subfield():
    with pytest.raises(MalformedInput, match=r"^GF\(3\) is not a subfield of GF\(4\)$"):
        cp.subfield_itd(3, 4, 3)


def test_marked_product_itd_3_10_2():
    itd = cp.product_itd(dz.td_from_field(3, 5), dz.td_from_field(3, 2))
    assert itd.group_size == 10 and itd.hole_size == 2
    assert len(itd.blocks) == 100 - 4
    assert dz.verify_design(itd).valid


@pytest.mark.parametrize("k, q1, q2, digest", [(3, 5, 2, "0dc0225db469cb21"),
                                               (4, 4, 3, "883407484e2016d8")])
def test_product_itd_is_pinned(k, q1, q2, digest):
    # recorded from the product TD carrying a trivial mark of the second
    # factor onto the first factor's lexicographically first block
    itd = cp.product_itd(dz.td_from_field(k, q1), dz.td_from_field(k, q2))
    assert itd.holes == (tuple(range(q2)),)
    assert _digest(itd) == digest


def test_product_itd_second_factor_of_index_two_is_an_invalid_mark():
    # a TD_2(3, 2) copy is no TD(3, 2) sub-design, so there is no hole to open
    with pytest.raises(MalformedInput, match=r"^marked sub-TD\(k,2\) fails verification: "
                                             r"\(\('CountMismatch', \(8, 4\)\)"):
        cp.product_itd(dz.td_from_field(3, 3), cy.td_projection(2, 2, 3))


def test_mark_block_gives_unit_hole_itd():
    # a single block is a sub-TD(k, 1); deleting it opens an (n; 1) hole
    td = dz.td_from_field(3, 4)
    itd = cp.itd_from_marked(td, tuple((int(x),) for x in td.blocks[5]), (5,))
    assert itd.hole_size == 1 and dz.verify_design(itd).valid


def test_empty_mark_rejected():
    # h' = 0 marks nothing; it is an invalid mark, not a malformed design
    td = dz.td_from_field(3, 4)
    for refuse in (cp.validate_mark, cp.itd_from_marked):
        with pytest.raises(MalformedInput, match="^a mark needs at least one point per group$"):
            refuse(td, ((), (), ()), ())


def test_invalid_mark_rejected():
    td = dz.td_from_field(3, 4)
    with pytest.raises(MalformedInput,
                       match="^block 1 leaves the marked points in group 2$"):
        cp.validate_mark(td, ((0, 1), (0, 1), (0, 1)), (0, 1, 2, 3))


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
    with pytest.raises(MalformedInput,
                       match=r"^diagonal ingredient of type h\^1 is degenerate$"):
        cp.diag_product(a, b, c)


# -- wilson composition -----------------------------------------------------------

def wilson_ingredients(u):
    r = dz.td_from_field(4, 5)
    a = fixture_htd_k3()
    b = dz.td_from_field(3, 8)
    e = cp.product_itd(dz.td_from_field(3, 5), dz.td_from_field(3, 2))
    f = fixture_htd_k3() if u else None
    return r, a, b, e, f


def test_wilson_compose_htd_3_2_24():
    r, a, b, e, f = wilson_ingredients(4)
    out = cp.wilson_compose(r, a, b, e, f)
    assert out.group_size == 48 and out.hole_count == 24 and out.hole_size == 2
    assert len(out.blocks) == 4 * 24 * 23
    assert dz.verify_design(out).valid


def test_wilson_u0_matches_diag_product():
    r, a, b, _, _ = wilson_ingredients(0)
    out = cp.wilson_compose(r, a, b)
    # the reduced TD's blocks off the parallel class, on the first k
    # groups, form an HTD(k, 1^t)
    rr = cp.parallel_class_reduction(r)
    t = rr.group_size
    unit = dz.BlockDesign.new(k=3, group_size=t, index=1,
                              blocks=rr.blocks[rr.blocks[:, 3] != 0][:, :3],
                              hole_kind=dz.HOLE_UNIFORM,
                              holes=[[x] for x in range(t)])
    diag = cp.diag_product(unit, b, a)
    assert np.array_equal(out.sorted_blocks(), diag.sorted_blocks())
    assert out.holes == diag.holes


def test_wilson_u_bounds():
    r, a, b, e, f = wilson_ingredients(4)
    # f has u = 4 holes, and a TD(4, 4) has t = 4 points per group
    with pytest.raises(MalformedInput, match="need u < t"):
        cp.wilson_compose(dz.td_from_field(4, 4), a, b, e, f)
    with pytest.raises(MalformedInput, match="need an ITD"):
        cp.wilson_compose(r, a, b, None, f)


def test_wilson_takes_e_only_with_f(monkeypatch):
    # u = 0 uses no ITD, so an ITD without its truncation HTD is refused
    # before anything is verified
    r, a, b, e, f = wilson_ingredients(4)
    verified = []
    monkeypatch.setattr(cp, "verify_design", verified.append)
    for e_, f_ in ((e, None), (None, f)):
        with pytest.raises(MalformedInput, match="together, or neither"):
            cp.wilson_compose(r, a, b, e_, f_)
    assert verified == []


# -- truncate-and-fill ------------------------------------------------------------

def _brute_disjoint(blocks):
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            if (blocks[i] != blocks[j]).all():
                return i, j
    return None


@pytest.mark.parametrize("k, q", [(3, 3), (3, 5), (4, 4), (5, 7), (3, 8)])
def test_find_disjoint_blocks_matches_the_pair_scan(k, q):
    td = dz.td_from_field(k, q)
    # relabelling moves the first disjoint pair away from the start
    rng = np.random.default_rng(10 * k + q)
    shuffled = dz.relabel_points(td, [rng.permutation(q) for _ in range(k)])
    for d in (td, shuffled):
        assert cp._find_disjoint_blocks(d) == _brute_disjoint(d.blocks)


@pytest.mark.parametrize("d", [dz.td_from_field(3, 2),
                               dz.BlockDesign.new(k=3, group_size=1, index=1,
                                                  blocks=[[0, 0, 0]])])
def test_find_disjoint_blocks_raises_without_a_pair(d):
    assert _brute_disjoint(d.blocks) is None
    with pytest.raises(MalformedInput,
                       match=f"^no two disjoint blocks among {len(d.blocks)}$"):
        cp._find_disjoint_blocks(d)


def test_itd_truncate_19_2():
    out = cp.itd_truncate_compose(
        r2=dz.td_from_field(5, 5), dm=dz.td_from_field(3, 3),
        dm1=dz.td_from_field(3, 4), dm2=dz.td_from_field(3, 5),
        du=dz.td_from_field(3, 2), v=2)
    assert out.group_size == 19 and out.hole_size == 2
    assert len(out.blocks) == 19 * 19 - 4
    assert dz.verify_design(out).valid


def test_itd_truncate_v0_is_plain_td():
    out = cp.itd_truncate_compose(
        r2=dz.td_from_field(5, 5), dm=dz.td_from_field(3, 3),
        dm1=dz.td_from_field(3, 4), dm2=dz.td_from_field(3, 5),
        du=dz.td_from_field(3, 2))
    assert out.hole_kind == dz.HOLE_NONE and out.group_size == 17
    assert dz.verify_design(out).valid


def test_itd_truncate_u0_v0_is_td_kmt():
    out = cp.itd_truncate_compose(
        r2=dz.td_from_field(5, 5), dm=dz.td_from_field(3, 3),
        dm1=dz.td_from_field(3, 4), dm2=dz.td_from_field(3, 5))
    assert out.group_size == 15 and out.hole_kind == dz.HOLE_NONE
    assert dz.verify_design(out).valid


def test_itd_truncate_parameter_guard():
    ingredients = dict(r2=dz.td_from_field(5, 5), dm=dz.td_from_field(3, 3),
                       dm1=dz.td_from_field(3, 4), dm2=dz.td_from_field(3, 5))
    for v, du in ((0, dz.td_from_field(3, 7)),   # u > t
                  (6, None)):                    # v > t
        with pytest.raises(MalformedInput, match="<= t"):
            cp.itd_truncate_compose(du=du, v=v, **ingredients)


def _twice(d):
    # every block twice: a TD_2 of d's order
    return dz.BlockDesign.new(k=d.k, group_size=d.group_size, index=2,
                              blocks=np.concatenate([d.blocks, d.blocks]))


# a TD_2(3, 2) projection as the m-fill or the u-fill once verified as
# valid, and the run then failed its output check with CountMismatch
@pytest.mark.parametrize("role, name, lam", [
    ("dm", "TD(k,m)", cy.td_projection(2, 2, 3)),
    ("dm1", "TD(k,m+1)", _twice(dz.td_from_field(3, 3))),
    ("dm2", "TD(k,m+2)", _twice(dz.td_from_field(3, 4))),
    ("du", "TD(k,u)", cy.td_projection(2, 2, 3))])
def test_itd_truncate_refuses_fills_of_index_two_before_verifying(monkeypatch, role,
                                                                  name, lam):
    ingredients = dict(r2=dz.td_from_field(5, 5), dm=dz.td_from_field(3, 2),
                       dm1=dz.td_from_field(3, 3), dm2=dz.td_from_field(3, 4),
                       du=dz.td_from_field(3, 2))
    ingredients[role] = lam
    assert lam.index == 2 and dz.verify_design(lam).valid
    verified = []
    monkeypatch.setattr(cp, "verify_design", verified.append)
    with pytest.raises(MalformedInput, match=re.escape(f"{name} must be a TD of index 1")):
        cp.itd_truncate_compose(**ingredients)
    assert verified == []


# -- the assembly step ------------------------------------------------------------

def _truncate(du, v):
    return cp.itd_truncate_compose(r2=dz.td_from_field(5, 5), dm=dz.td_from_field(3, 3),
                                   dm1=dz.td_from_field(3, 4), dm2=dz.td_from_field(3, 5),
                                   du=du, v=v)


# each composition, and how many designs compose.py builds while it runs:
# product_itd builds its product TD, the marked sub-TD and the ITD, and
# wilson_ingredients makes its ITD that way before the composition
@pytest.mark.parametrize("compose, built", [
    (lambda: cp.td_product(dz.td_from_field(3, 2), dz.td_from_field(3, 3)), 1),
    (lambda: cp.diag_product(dz.unit_hole_htd(3, 3), dz.td_from_field(3, 8),
                             fixture_htd_k3()), 1),
    (lambda: cp.wilson_compose(*wilson_ingredients(0)[:3]), 4),
    (lambda: cp.wilson_compose(*wilson_ingredients(4)), 4),
    (lambda: _truncate(None, 0), 1),
    (lambda: _truncate(dz.td_from_field(3, 2), 2), 1),
    (lambda: cp.product_itd(dz.td_from_field(3, 5), dz.td_from_field(3, 2)), 3),
    (lambda: cp.subfield_itd(3, 4, 2), 2)])
def test_every_composed_design_adopts_its_one_int32_buffer(monkeypatch, compose, built):
    calls, new = [], dz.BlockDesign.new

    def recording(*args, **kwargs):
        d = new(*args, **kwargs)
        if sys._getframe(1).f_globals["__name__"] == cp.__name__:
            calls.append((kwargs["blocks"], d))
        return d
    monkeypatch.setattr(dz.BlockDesign, "new", staticmethod(recording))
    out = compose()
    assert len(calls) == built and calls[-1][1] is out
    for blocks, d in calls:
        assert gf._is_frozen(blocks.T, np.int32)
        assert np.shares_memory(d.blocks, blocks)


def test_the_assembly_step_refuses_a_group_size_of_2_to_the_31(monkeypatch):
    # a piece's writer that records every slot it is handed
    verified, written = [], []
    monkeypatch.setattr(cp, "verify_design", verified.append)
    with pytest.raises(MalformedInput, match=r"group size 2147483648 must be below 2\^31"):
        cp._assembled("TD(3,2^31)", 3, 2**31, 1, [(1, written.append)])
    assert written == [] and verified == []


@pytest.mark.parametrize("truncation", [
    fixture_htd_k3,  # u = 4: HTD(3, 2^248), 245,024 blocks on g = 496
    # u = 52: HTD(3, 2^296) on g = 592, most of its blocks gathered
    lambda: cp.diag_product(dz.unit_hole_htd(3, 13), dz.td_from_field(3, 8),
                            fixture_htd_k3())], ids=["u=4", "u=52"])
def test_a_wilson_composition_holds_its_output_and_the_verifier_tables(truncation):
    """Every copy is written into the output's own buffer: the traced peak
    is what the step must hold, with no int64 piece of the output's size
    beside it.  The bound is counted from the shapes, not measured."""
    a, f = fixture_htd_k3(), truncation()
    r, b = dz.td_from_field(4, 61), dz.td_from_field(3, 8)
    e = cp.product_itd(dz.td_from_field(3, 5), dz.td_from_field(3, 2))
    tracemalloc.start()
    try:
        out = cp.wilson_compose(r, a, b, e, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    g, k = out.group_size, out.k
    meet = f.hole_count * r.group_size  # outer blocks meeting the truncated group
    must_hold = (out.blocks.nbytes
                 + k * meet * e.group_size * 4  # the int32 destination table
                 + 4 * g * g  # the verifier's 2 g^2 key table, its two g^2 masks
                 + dz.PIECE * (4 + 8)  # and its int32 and intp key buffers
                 + 4 * r.blocks.size * 8)  # the relabelled outer TD, int64 copies
    # numpy's cast buffers and Python objects fit in the last 256 KiB
    assert peak < must_hold + (256 << 10)
