"""The compositions against copy-by-copy loops.

The references below are the loops wilson_compose (its parallel-class
relabeling and its third kind, the ITD over every block meeting Y) and
itd_truncate_compose (its per-outer-block fill) ran before they placed
blocks as whole arrays, a point-by-point loop for the aligned fills, and
copy-by-copy loops for td_product and diag_product.  Outputs must agree
exactly: block arrays in their unsorted order, and holes.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmols import compose as cp
from hmols import cyclotomic as cy
from hmols import designs as dz
from hmols.designs import HOLE_NONE, HOLE_SINGLE, HOLE_UNIFORM
from hmols.fixtures import hmols_pair_2_4


# -- reference loops ---------------------------------------------------------------

def ref_parallel_class_relabel(r):
    k = r.k - 1
    t = r.group_size
    cls = r.blocks[r.blocks[:, k] == 0]
    order = np.lexsort(cls.T[::-1])
    cls = cls[order]
    perms = np.tile(np.arange(t, dtype=np.int64), (r.k, 1))
    for ell, blk in enumerate(cls):
        for i in range(k):
            perms[i, int(blk[i])] = ell
    return dz.relabel_points(r, perms)


def ref_wilson_compose(r, a, b, e_itd, f, u):
    h, m = a.hole_size, a.hole_count
    k = a.k
    t = r.group_size
    layer = h * m
    rr = ref_parallel_class_relabel(r)
    y_base = t * layer
    pieces = []
    for ell in range(t):
        pieces.append(a.blocks.astype(np.int64) + ell * layer)
    non_class = rr.blocks[rr.blocks[:, k] != 0]
    miss = non_class[non_class[:, k] > u]
    meet = non_class[non_class[:, k] <= u]
    if len(miss):
        offs = miss[:, :k].astype(np.int64) * layer
        pieces.append((offs[:, None, :] + b.blocks[None, :, :].astype(np.int64))
                      .reshape(-1, k))
    if len(meet):
        hole = sorted(e_itd.holes[0])
        rest = [x for x in range(e_itd.group_size) if x not in set(hole)]
        hole_rank = {x: r_ for r_, x in enumerate(hole)}
        rest_rank = {x: r_ for r_, x in enumerate(rest)}
        f_holes = f.holes
        for blk in meet:
            y0 = int(blk[k]) - 1
            dest = np.empty((e_itd.group_size, k), dtype=np.int64)
            for i in range(k):
                x_i = int(blk[i])
                for p in range(e_itd.group_size):
                    if p in hole_rank:
                        dest[p, i] = y_base + f_holes[y0][hole_rank[p]]
                    else:
                        dest[p, i] = x_i * layer + rest_rank[p]
            cols = [dest[e_itd.blocks[:, i], i] for i in range(k)]
            pieces.append(np.stack(cols, axis=1))
    if u > 0:
        pieces.append(f.blocks.astype(np.int64) + y_base)
    blocks = np.concatenate(pieces)
    holes = tuple(tuple(ell * layer + x for x in cell)
                  for ell in range(t) for cell in a.holes)
    if u > 0:
        holes = holes + tuple(tuple(y_base + x for x in cell) for cell in f.holes)
    return dz.BlockDesign.new(k=k, group_size=t * layer + u * h, index=1,
                              blocks=blocks, hole_kind=HOLE_UNIFORM, holes=holes)


def ref_aligned_fill(d, rows, positions):
    """d without the blocks `rows`, relabelled group by group: the point of
    block rows[j] goes to positions[j], and the other points fill the other
    positions in order."""
    perms = []
    for i in range(d.k):
        sent = [int(d.blocks[r, i]) for r in rows]
        rest = [x for x in range(d.group_size) if x not in sent]
        slots = [p for p in range(d.group_size) if p not in positions]
        perms.append(dict(zip(sent, positions)) | dict(zip(rest, slots)))
    kept = [[perms[i][int(x)] for i, x in enumerate(blk)]
            for j, blk in enumerate(d.blocks) if j not in rows]
    return np.array(kept, dtype=np.int64).reshape(-1, d.k)


def ref_itd_truncate_compose(k, m, t, u, v, r2, dm, dm1, dm2, du):
    fill1 = ref_aligned_fill(dm1, [0], [m])
    fill2 = ref_aligned_fill(dm2, cp._find_disjoint_blocks(dm2), [m, m + 1])
    main = v + u
    pieces = []
    for blk in r2.blocks:
        x = blk[:k].astype(np.int64)
        y = int(blk[k]) if int(blk[k]) < u else None
        z = int(blk[k + 1]) if int(blk[k + 1]) < v else None
        offs = main + x * m
        if y is None and z is None:
            pieces.append(offs[None, :] + dm.blocks.astype(np.int64))
            continue
        fill = fill2 if y is not None and z is not None else fill1
        dest = np.empty((m + 2, k), dtype=np.int64)
        dest[:m] = offs[None, :] + np.arange(m, dtype=np.int64)[:, None]
        dest[m] = (v + y) if y is not None else z
        if y is not None and z is not None:
            dest[m + 1] = z
        cols = [dest[fill[:, i], i] for i in range(k)]
        pieces.append(np.stack(cols, axis=1))
    if u > 0:
        pieces.append(du.blocks.astype(np.int64) + v)
    blocks = np.concatenate(pieces)
    size = m * t + u + v
    if v > 0:
        return dz.BlockDesign.new(k=k, group_size=size, index=1, blocks=blocks,
                                  hole_kind=HOLE_SINGLE, holes=(tuple(range(v)),))
    return dz.BlockDesign.new(k=k, group_size=size, index=1, blocks=blocks)


def ref_td_product(d1, d2):
    """A copy of d2 on every block of d1, in d1's block order."""
    blocks = np.concatenate([blk.astype(np.int64) * d2.group_size + d2.blocks
                             for blk in d1.blocks])
    return dz.BlockDesign.new(k=d1.k, group_size=d1.group_size * d2.group_size,
                              index=d1.index * d2.index, blocks=blocks)


def ref_diag_product(a, b, c):
    """A copy of c on each of a's layers, layer by layer, then a copy of b
    across the layers of every block of a, in a's block order."""
    layer = c.group_size
    pieces = [c.blocks.astype(np.int64) + ell * layer for ell in range(a.group_size)]
    pieces += [blk.astype(np.int64) * layer + b.blocks for blk in a.blocks]
    holes = [tuple(ell * layer + x for x in cell)
             for ell in range(a.group_size) for cell in c.holes]
    return dz.BlockDesign.new(k=a.k, group_size=a.group_size * layer, index=1,
                              blocks=np.concatenate(pieces), hole_kind=HOLE_UNIFORM,
                              holes=holes)


def assert_same(out, ref):
    assert np.array_equal(out.blocks, ref.blocks)
    assert np.array_equal(out.holes, ref.holes)
    assert (out.group_size, out.hole_kind) == (ref.group_size, ref.hole_kind)


# -- ingredients -------------------------------------------------------------------

PRIME_POWERS = [3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32]


def shuffled(rng, d):
    """The same design with its blocks in a random order."""
    return dz.BlockDesign.new(k=d.k, group_size=d.group_size, index=d.index,
                              blocks=rng.permutation(d.blocks),
                              hole_kind=d.hole_kind, holes=d.holes)


def pair_design(rng, g, hole_kind=HOLE_NONE, holes=()):
    """The two-group design on g points of every pair outside a common
    hole, in a random block order: a TD(2, g), an ITD or an HTD."""
    hole_of = np.full(g, -1)
    for i, cell in enumerate(holes):
        hole_of[list(cell)] = i
    x, y = np.divmod(np.arange(g * g), g)
    keep = (hole_of[x] < 0) | (hole_of[x] != hole_of[y])
    blocks = rng.permutation(np.stack([x[keep], y[keep]], axis=1))
    return dz.BlockDesign.new(k=2, group_size=g, index=1, blocks=blocks,
                              hole_kind=hole_kind, holes=holes)


def random_partition(rng, count, size):
    return tuple(map(tuple, rng.permutation(count * size).reshape(count, size).tolist()))


def cyclic_td(rng, k, n):
    """TD(k, n) for k <= 3 and any n: blocks (x, y, x + y mod n), shuffled."""
    x, y = np.divmod(np.arange(n * n), n)
    blocks = np.stack([x, y, (x + y) % n], axis=1)[:, :k]
    return dz.BlockDesign.new(k=k, group_size=n, index=1,
                              blocks=rng.permutation(blocks))


def fixture_htd_k3():
    return dz.restrict_groups(dz.hmols_to_htd(hmols_pair_2_4()), [0, 1, 2])


# -- wilson -----------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(t=st.sampled_from(PRIME_POWERS), data=st.data(),
       h=st.integers(1, 3), m=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_wilson_gather_matches_reference_loop(t, data, h, m, seed):
    # two groups, so an HTD(2, h^u) exists for every u; random block orders,
    # a random ITD hole and random HTD hole cells exercise the gather
    u = data.draw(st.integers(1, t - 1), label="u")
    rng = np.random.default_rng(seed)
    layer = h * m
    r = shuffled(rng, dz.td_from_field(3, t))
    a = pair_design(rng, layer, HOLE_UNIFORM, random_partition(rng, m, h))
    b = pair_design(rng, layer)
    e = pair_design(rng, layer + h, HOLE_SINGLE,
                    (tuple(rng.choice(layer + h, h, replace=False).tolist()),))
    f = pair_design(rng, u * h, HOLE_UNIFORM, random_partition(rng, u, h))
    assert_same(cp.wilson_compose(r, a, b, e, f),
                ref_wilson_compose(r, a, b, e, f, u))


def _htd_3_2(u):
    if u == 1:
        return dz.BlockDesign.new(k=3, group_size=2, index=1,
                                  blocks=np.empty((0, 3), dtype=np.int32),
                                  hole_kind=HOLE_UNIFORM, holes=((0, 1),))
    if u == 4:
        return fixture_htd_k3()
    return cp.diag_product(dz.unit_hole_htd(3, 3), dz.td_from_field(3, 8),
                           fixture_htd_k3())  # u = 12


@pytest.mark.parametrize("t, u", [(5, 1), (5, 4), (7, 4), (13, 12), (16, 12)])
def test_wilson_gather_matches_reference_loop_k3(t, u):
    r = dz.td_from_field(4, t)
    a = fixture_htd_k3()
    b = dz.td_from_field(3, 8)
    e = cp.product_itd(dz.td_from_field(3, 5), dz.td_from_field(3, 2))
    f = _htd_3_2(u)
    assert_same(cp.wilson_compose(r, a, b, e, f),
                ref_wilson_compose(r, a, b, e, f, u))


# -- products -----------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(n1=st.integers(1, 6), n2=st.integers(1, 6), k=st.sampled_from([2, 3]),
       seed=st.integers(0, 2**32 - 1))
def test_td_product_matches_reference_loop(n1, n2, k, seed):
    rng = np.random.default_rng(seed)
    d1, d2 = cyclic_td(rng, k, n1), cyclic_td(rng, k, n2)
    assert_same(cp.td_product(d1, d2), ref_td_product(d1, d2))


def test_td_product_of_index_two_matches_reference_loop():
    rng = np.random.default_rng(2)
    d1 = shuffled(rng, cy.td_projection(2, 2, 3))  # TD_2(3, 2)
    d2 = shuffled(rng, dz.td_from_field(3, 4))
    assert_same(cp.td_product(d1, d2), ref_td_product(d1, d2))
    assert_same(cp.td_product(d2, d1), ref_td_product(d2, d1))


@settings(max_examples=40, deadline=None)
@given(m=st.integers(3, 7), h=st.integers(1, 3), n=st.integers(2, 4),
       seed=st.integers(0, 2**32 - 1))
def test_diag_product_matches_reference_loop(m, h, n, seed):
    # two groups: random block orders and random hole cells on every ingredient
    rng = np.random.default_rng(seed)
    a = pair_design(rng, m, HOLE_UNIFORM, random_partition(rng, m, 1))
    b = pair_design(rng, h * n)
    c = pair_design(rng, h * n, HOLE_UNIFORM, random_partition(rng, n, h))
    assert_same(cp.diag_product(a, b, c), ref_diag_product(a, b, c))


def test_diag_product_matches_reference_loop_k3():
    rng = np.random.default_rng(3)
    a = shuffled(rng, dz.unit_hole_htd(3, 4))
    b = shuffled(rng, dz.td_from_field(3, 8))
    c = shuffled(rng, fixture_htd_k3())
    assert_same(cp.diag_product(a, b, c), ref_diag_product(a, b, c))


# -- truncate-and-fill --------------------------------------------------------------

@pytest.mark.parametrize("k, m, t", [(2, 1, 4), (2, 3, 5), (3, 1, 4), (3, 2, 5),
                                     (3, 3, 7), (3, 4, 8)])
def test_truncate_gather_matches_reference_loop(k, m, t):
    rng = np.random.default_rng(1000 * k + 10 * m + t)
    r2 = shuffled(rng, dz.td_from_field(k + 2, t))
    dm, dm1, dm2 = (cyclic_td(rng, k, n) for n in (m, m + 1, m + 2))
    for u, v in itertools.product(sorted({0, 1, t // 2, t}), (0, 1, t - 1, t)):
        du = cyclic_td(rng, k, u) if u else None
        assert_same(cp.itd_truncate_compose(r2, dm, dm1, dm2, du, v),
                    ref_itd_truncate_compose(k, m, t, u, v, r2, dm, dm1, dm2, du))


def relabelled(rng, d):
    """The same design with a random permutation of every group's points
    and its blocks in a random order."""
    return shuffled(rng, dz.relabel_points(
        d, [rng.permutation(d.group_size) for _ in range(d.k)]))


@settings(max_examples=40, deadline=None)
@given(k=st.sampled_from([2, 3]), m=st.integers(1, 4),
       t=st.sampled_from([4, 5, 7, 8, 9]), data=st.data(),
       seed=st.integers(0, 2**32 - 1))
def test_truncate_with_relabelled_fills_verifies(k, m, t, data, seed):
    # the fills' blocks are sent to the weight-1 points block by block:
    # a fill that sent each group's points in sorted order would tear the
    # two disjoint blocks of the TD(k, m+2) apart once relabelled
    u = data.draw(st.integers(0, t), label="u")
    v = data.draw(st.integers(0, t), label="v")
    rng = np.random.default_rng(seed)
    r2 = relabelled(rng, dz.td_from_field(k + 2, t))
    dm, dm1, dm2 = (relabelled(rng, cyclic_td(rng, k, n)) for n in (m, m + 1, m + 2))
    du = relabelled(rng, cyclic_td(rng, k, u)) if u else None
    out = cp.itd_truncate_compose(r2, dm, dm1, dm2, du, v)
    assert dz.verify_design(out).valid
    assert_same(out, ref_itd_truncate_compose(k, m, t, u, v, r2, dm, dm1, dm2, du))
