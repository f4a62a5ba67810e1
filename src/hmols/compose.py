"""Recursive constructions: index-multiplying products, the diagonal
product joining holey squares on the diagonal and plain MOLS off it,
the Wilson-style composition with a truncated group, incomplete TDs
from a deleted product copy or subfield sub-TD, and the truncate-and-fill
ITD composition.

Every operation verifies its ingredients, assembles the block set
exactly as the underlying proof prescribes, and verifies the output
before returning, so the constructions are proof-carrying: an invalid
result can only escape as an exception.  Composed designs use
structured point labels internally (layer offsets into each group's
index space), flattened so holes stay explicit index lists.

Blocks are placed as whole arrays, never block by block, and column by
column, in the layout a design keeps: (k, B) block columns (d.blocks.T).
Every output, and the sub-TD a mark names, ends in one assembly step
(`_assembled`): it refuses a group size of 2^31 or more, has each piece
write its own (k, width) column slot of the output's one frozen int32
buffer in one numpy step, and verifies the design, which adopts that
buffer.  A copy of a small design that only shifts each group's points
is a broadcast sum of offsets and blocks (`_shifted`).  Any other
placement is a gather: through the small design's block columns, one
np.take per group from a group-major int32 table `dest[i, c, p]`, the
point that point p of group i becomes in copy c (`_gather`).  Both list
the copies one after another, each in the small design's block order,
so block order is the one a copy-by-copy loop would give.

Every incomplete TD and every aligned fill comes from one cut-and-relabel
step (`_cut`): delete some blocks and send chosen points of every group,
block by block, onto fixed slots, the other points keeping their order.
"""

from __future__ import annotations

import numpy as np

from .designs import (
    HOLE_NONE,
    HOLE_SINGLE,
    HOLE_UNIFORM,
    BlockDesign,
    relabel_points,
    td_from_field,
    verify_design,
)
from . import gf
from .errors import MalformedInput


def _assembled(what: str, k: int, group_size: int, index: int, pieces,
               hole_kind=HOLE_NONE, holes=()) -> BlockDesign:
    """The design whose blocks are the pieces' columns one after another,
    once verify_design finds it valid; MalformedInput naming `what`
    otherwise.  A piece (width, write) writes its (k, width) slot of the
    int32 buffer, after a group size of 2^31 or more is refused: every
    composed entry is below the group size, so int32 loses nothing."""
    if group_size >= 2**31:
        raise MalformedInput(f"{what}: group size {group_size} must be below 2^31")
    cols = gf.frozen_written(np.int32, (k, sum(width for width, _ in pieces)), pieces, 1)
    out = BlockDesign.new(k=k, group_size=group_size, index=index, blocks=cols.T,
                          hole_kind=hole_kind, holes=holes)
    verify_design(out).require(what)
    return out


def _shifted(offsets: np.ndarray, cols: np.ndarray):
    """The piece of one copy of the block columns `cols` per column of
    `offsets`, each point shifted by its group's offset in that column (one
    row shifts all groups alike): an int32 sum, cast when it is written."""
    copies, width = offsets.shape[1], cols.shape[1]
    return copies * width, lambda slot: np.add(
        offsets.astype(np.int32)[:, :, None], cols[:, None, :],
        out=slot.reshape(len(cols), copies, width, copy=False))


def _gather(dest: np.ndarray, cols: np.ndarray):
    """The piece of one copy of the block columns `cols` per copy c of the
    group-major table `dest`: point p of group i goes to dest[i, c, p].  A
    valid design's points fit the table, so "clip" clips none, and it
    spares the copy of the row that "raise" buffers."""
    copies, width = dest.shape[1], cols.shape[1]

    def fill(slot):
        for i, col in enumerate(cols):
            np.take(dest[i], col, axis=1, mode="clip",
                    out=slot[i].reshape(copies, width, copy=False))
    return copies * width, fill


def _side_ranks(mask: np.ndarray) -> np.ndarray:
    """Each point's rank among the points on its own side of `mask` (along
    the last axis): marked points count 0, 1, ..., and so do the rest."""
    return np.where(mask, np.cumsum(mask, axis=-1), np.cumsum(~mask, axis=-1)) - 1


def _cut(d: BlockDesign, rows, points, slots) -> np.ndarray:
    """The columns of d's blocks without the blocks `rows`, relabelled so
    that in every group i the point points[i][j] becomes slots[j] and the
    other points keep their order in the remaining slots."""
    slots = np.asarray(slots, dtype=np.int64)
    groups = np.arange(d.k)[:, None]
    sent = np.zeros((d.k, d.group_size), dtype=bool)
    sent[groups, points] = True
    # every point's place in the order "sent points by j, then the rest"
    place = _side_ranks(sent) + len(slots)
    place[groups, points] = np.arange(len(slots))
    perms = np.concatenate([slots, np.delete(np.arange(d.group_size), slots)])[place]
    perms = perms.astype(np.int32)
    keep = np.ones(len(d.blocks), dtype=bool)
    keep[rows] = False
    return perms[groups, d.blocks.T[:, keep]]


# ---------------------------------------------------------------------------
# marked sub-designs
# ---------------------------------------------------------------------------
# A mark on a TD is a distinguished sub-TD(k, h') whose deletion opens a
# hole: sub_points lists, per group, the h' points it lives on (the
# subsets may differ between groups); sub_blocks indexes its blocks.

def validate_mark(design: BlockDesign, sub_points, sub_blocks) -> None:
    """The marked blocks, restricted to the marked points, must form a
    plain TD(k, h')."""
    d = design
    sizes = {len(c) for c in sub_points}
    if len(sub_points) != d.k or len(sizes) != 1:
        raise MalformedInput("need one equal-size point subset per group")
    h_sub = sizes.pop()
    if h_sub == 0:
        raise MalformedInput("a mark needs at least one point per group")
    rank = np.full((d.k, d.group_size), -1, dtype=np.int32)
    for i, cell in enumerate(sub_points):
        if len(set(cell)) != len(cell) or \
                min(cell) < 0 or max(cell) >= d.group_size:
            raise MalformedInput(f"group {i} marks repeated or foreign points")
        rank[i, sorted(cell)] = np.arange(h_sub)
    idxs = sorted(set(map(int, sub_blocks)))
    if len(idxs) != len(sub_blocks) or \
            idxs and (idxs[0] < 0 or idxs[-1] >= len(d.blocks)):
        raise MalformedInput("sub-block indices repeat or leave range")
    sub = rank[np.arange(d.k), d.blocks[idxs]]
    if (sub < 0).any():
        row, i = np.argwhere(sub < 0)[0]
        raise MalformedInput(f"block {idxs[row]} leaves the marked points in group {i}")
    _assembled(f"marked sub-TD(k,{h_sub})", d.k, h_sub, 1, [_shifted(np.zeros((1, 1)), sub.T)])


def subfield_itd(k: int, q: int, sub_order: int) -> BlockDesign:
    """ITD(k, (q; h')): the field TD(k, q) with a sub-TD(k, h') aligned on
    a subfield of order h' deleted.

    The block set of the field TD is indexed by (a, u); a sub-TD arises
    from any rank-2 module W over the subfield F such that each group's
    coordinate map collapses W onto just h' points.  Found by exhaustive
    search over generator pairs (w1, w2): for each w1 in turn, the spans
    with every w2 are built at once as arrays, and the first w2 whose span
    has h'^2 points and h' images per group wins.
    """
    fq = gf.field_new(q)
    sub_factors = gf.factorize(sub_order) if sub_order >= 1 else []
    if len(sub_factors) != 1 or sub_factors[0][0] != fq.p or \
            fq.e % sub_factors[0][1] != 0:
        raise MalformedInput(f"GF({sub_order}) is not a subfield of GF({q})")
    td = td_from_field(k, q)
    # 0 and the powers of omega^((q-1)/(h'-1)), the units of order dividing h'-1
    subfield = np.append(0, fq.exp_table[::(q - 1) // (sub_order - 1)])
    al, be = (x.ravel() for x in np.meshgrid(subfield, subfield))
    w2a, w2u = np.divmod(np.arange(q * q), q)
    bea, beu = fq.mul(be, w2a[:, None]), fq.mul(be, w2u[:, None])

    def distinct(rows):
        rows = np.sort(rows, axis=1)
        return 1 + (rows[:, 1:] != rows[:, :-1]).sum(axis=1)

    for w1 in range(1, q * q):
        a = fq.add(fq.mul(al, w1 // q), bea)  # row: the span with that w2
        u = fq.add(fq.mul(al, w1 % q), beu)
        images = [u if i == q else fq.add(a, fq.mul(u, i)) for i in range(k)]
        found = distinct(a * q + u) == sub_order * sub_order
        for img in images:
            found &= distinct(img) == sub_order
        if found.any():
            w2 = int(np.argmax(found))
            return itd_from_marked(
                td, tuple(tuple(np.unique(img[w2]).tolist()) for img in images),
                tuple(np.unique(a[w2] * q + u[w2]).tolist()))
    raise MalformedInput(f"no subfield sub-TD({k},{sub_order}) in TD({k},{q})")


def itd_from_marked(design: BlockDesign, sub_points, sub_blocks) -> BlockDesign:
    """Delete the marked sub-TD: an ITD(k, (n; h')) with the hole relabeled
    onto the first h' points of every group."""
    validate_mark(design, sub_points, sub_blocks)
    d = design
    h_sub = len(sub_points[0])
    cols = _cut(d, list(sub_blocks), [sorted(c) for c in sub_points], range(h_sub))
    return _assembled(f"ITD({d.k},({d.group_size};{h_sub}))", d.k, d.group_size, d.index,
                      [_shifted(np.zeros((1, 1)), cols)], HOLE_SINGLE, [range(h_sub)])


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------

def td_product(d1: BlockDesign, d2: BlockDesign) -> BlockDesign:
    """TD_(l1*l2)(k, n1*n2): a copy of d2's block set on every block of d1."""
    if d1.k != d2.k:
        raise MalformedInput(f"{d1.k} groups vs {d2.k}")
    if d1.hole_kind != HOLE_NONE or d2.hole_kind != HOLE_NONE:
        raise MalformedInput("the product multiplies plain TDs")
    verify_design(d1).require("first factor")
    verify_design(d2).require("second factor")
    return _assembled("product TD", d1.k, d1.group_size * d2.group_size,
                      d1.index * d2.index,
                      [_shifted(d1.blocks.T.astype(np.int64) * d2.group_size, d2.blocks.T)])


def product_itd(d1: BlockDesign, d2: BlockDesign) -> BlockDesign:
    """ITD(k, (n1*n2; n2)): td_product(d1, d2) with the copy of d2 on the
    lexicographically first block of d1 deleted."""
    prod = td_product(d1, d2)
    first = int(np.lexsort(d1.blocks.T[::-1])[0])
    n2, b2 = d2.group_size, len(d2.blocks)
    return itd_from_marked(prod,
                           tuple(tuple(range(x * n2, (x + 1) * n2))
                                 for x in d1.blocks[first].tolist()),
                           tuple(range(first * b2, (first + 1) * b2)))


def diag_product(a: BlockDesign, b: BlockDesign, c: BlockDesign) -> BlockDesign:
    """HTD(k, h^(m*n)) from an HTD(k, 1^m), a TD(k, h*n) and an HTD(k, h^n):
    a copy of c on each of the m layers, and a copy of b across the layers
    selected by every block of a."""
    for d, role in ((a, "layer design"), (b, "cross design"), (c, "diagonal design")):
        if d.k != a.k:
            raise MalformedInput(f"{role} has {d.k} groups, expected {a.k}")
    if a.hole_kind != HOLE_UNIFORM or a.hole_size != 1:
        raise MalformedInput("first ingredient must be an HTD(k,1^m)")
    if c.hole_kind != HOLE_UNIFORM:
        raise MalformedInput("third ingredient must be a holey TD")
    if b.hole_kind != HOLE_NONE or b.index != 1 or c.index != 1 or a.index != 1:
        raise MalformedInput("cross ingredient must be a plain TD of index 1")
    h, n = c.hole_size, c.hole_count
    m = a.group_size
    if b.group_size != h * n:
        raise MalformedInput(f"TD group size {b.group_size} != h*n = {h * n}")
    if n == 1 and h > 1:
        # an HTD(k,h^1) has no blocks; the composition is degenerate
        raise MalformedInput("diagonal ingredient of type h^1 is degenerate")
    verify_design(a).require("layer HTD")
    verify_design(b).require("cross TD")
    verify_design(c).require("diagonal HTD")
    k = a.k
    layer = n * h
    layers = np.arange(m)[None, :] * layer
    return _assembled(f"HTD({k},{h}^{m * n})", k, m * layer, 1,
                      [_shifted(layers, c.blocks.T),
                       _shifted(a.blocks.T.astype(np.int64) * layer, b.blocks.T)],
                      HOLE_UNIFORM, np.add.outer(layers, c.holes).reshape(-1, h))


# ---------------------------------------------------------------------------
# Wilson-style composition
# ---------------------------------------------------------------------------

def parallel_class_reduction(r: BlockDesign) -> BlockDesign:
    """Normalize a TD(k+1, t) for composition: relabel the first k groups
    so the blocks through symbol 0 of the last group become the constant
    blocks (x, ..., x, 0).  The other blocks, projected to the first k
    groups, then form an HTD(k, 1^t) with singleton holes.
    """
    k = r.k - 1
    t = r.group_size
    cls = r.blocks[r.blocks[:, k] == 0]
    cls = cls[np.lexsort(cls.T[::-1])]
    perms = np.tile(np.arange(t, dtype=np.int64), (r.k, 1))
    perms[np.arange(k), cls[:, :k]] = np.arange(len(cls))[:, None]
    return relabel_points(r, perms)


def wilson_compose(r: BlockDesign, a: BlockDesign, b: BlockDesign,
                   e: BlockDesign | None = None,
                   f: BlockDesign | None = None) -> BlockDesign:
    """HTD(k, h^(m*t+u)) assembled in four kinds of blocks: copies of the
    HTD(k,h^m) on the layers of one parallel class of the TD(k+1,t),
    copies of the TD(k,hm) on blocks missing the truncated part Y, copies
    of the ITD(k,(hm+h;h)) with the hole aligned over the Y point the
    block meets, and one HTD(k,h^u) on Y itself.

    k, h, m and t come from a and r, and u is f's hole count.  e and f
    come together: without them u = 0 and there is no third or fourth kind.
    """
    if a.hole_kind != HOLE_UNIFORM:
        raise MalformedInput("second ingredient must be a holey TD")
    h, m = a.hole_size, a.hole_count
    if r.k != a.k + 1:
        raise MalformedInput(f"resolvable TD needs {a.k + 1} groups, has {r.k}")
    if b.k != a.k:
        raise MalformedInput("cross TD group count differs")
    t = r.group_size
    u = 0 if f is None else f.hole_count
    if not u < t:
        raise MalformedInput(f"need u < t, got u = {u}, t = {t}")
    if r.index != 1 or r.hole_kind != HOLE_NONE:
        raise MalformedInput("first ingredient must be a plain TD(k+1,t)")
    if b.group_size != h * m or b.index != 1 or b.hole_kind != HOLE_NONE:
        raise MalformedInput(f"cross TD must be a TD(k,{h * m})")
    k = a.k
    layer = h * m
    if (e is None) != (f is None):
        raise MalformedInput(f"need an ITD({k},({layer + h};{h})) and an "
                             f"HTD({k},{h}^u) together, or neither")
    verify_design(r).require("resolvable TD")
    verify_design(a).require("layer HTD")
    verify_design(b).require("cross TD")

    if f is not None:
        if e.hole_kind != HOLE_SINGLE or e.hole_size != h or \
                e.group_size != layer + h or e.k != k:
            raise MalformedInput(f"need an ITD({k},({layer + h};{h}))")
        if f.hole_kind != HOLE_UNIFORM or f.hole_size != h or f.k != k:
            raise MalformedInput(f"need an HTD({k},{h}^u)")
        verify_design(e).require("incomplete TD")
        verify_design(f).require("truncation HTD")

    rr = parallel_class_reduction(r)
    y_base = t * layer  # the Y part sits after the t layers

    layers = np.arange(t)[None, :] * layer
    non_class = rr.blocks[rr.blocks[:, k] != 0].astype(np.int64)
    miss = non_class[non_class[:, k] > u]
    pieces = [
        # first kind: the HTD(k,h^m) on each layer of the parallel class
        _shifted(layers, a.blocks.T),
        # second kind: TD(k,hm) across the layers of blocks missing Y
        _shifted(miss[:, :k].T * layer, b.blocks.T)]
    holes = [np.add.outer(layers, a.holes).reshape(-1, h)]
    if u > 0:
        # third kind: the ITD over each block meeting Y, its hole's points
        # sent in order onto the hole of Y the block meets, its other
        # points in order onto the block's layers
        meet = non_class[non_class[:, k] <= u]
        in_hole = np.zeros(e.group_size, dtype=bool)
        in_hole[list(e.holes[0])] = True
        dest = np.empty((k, len(meet), e.group_size), dtype=np.int32)
        np.add(meet[:, :k].T[:, :, None] * layer, _side_ranks(in_hole), out=dest,
               casting="unsafe")
        y_holes = y_base + np.asarray(f.holes, dtype=np.int64)
        dest[:, :, in_hole] = y_holes[meet[:, k] - 1]
        pieces.append(_gather(dest, e.blocks.T))
        # fourth kind: the HTD(k,h^u) on Y
        pieces.append(_shifted(np.full((1, 1), y_base), f.blocks.T))
        holes.append(y_holes)
    return _assembled(f"HTD({k},{h}^{m * t + u})", k, t * layer + u * h, 1, pieces,
                      HOLE_UNIFORM, np.concatenate(holes))


# ---------------------------------------------------------------------------
# truncate-and-fill ITD composition
# ---------------------------------------------------------------------------

def _find_disjoint_blocks(d: BlockDesign) -> tuple[int, int]:
    """First pair i < j (by i, then j) of blocks sharing no point in any
    group; each block is compared with all later blocks at once."""
    blocks = d.blocks
    for i in range(len(blocks) - 1):
        later = np.flatnonzero((blocks[i + 1:] != blocks[i]).all(axis=1))
        if len(later):
            return i, i + 1 + int(later[0])
    raise MalformedInput(f"no two disjoint blocks among {len(blocks)}")


def itd_truncate_compose(r2: BlockDesign, dm: BlockDesign, dm1: BlockDesign,
                         dm2: BlockDesign, du: BlockDesign | None = None,
                         v: int = 0) -> BlockDesign:
    """ITD(k, (mt+u+v; v)): truncate two groups of a TD(k+2, t) to u and v
    points, inflate full-group points by weight m and truncated points by
    weight 1, and fill blocks by size: TD(k,m), TD(k,m+1) minus a block
    aligned on the weight-1 point, TD(k,m+2) minus two disjoint aligned
    blocks; the u side is filled with a TD(k,u), the v side is the hole.

    k and m are dm's, t is r2's group size and u is du's (0 without du);
    only v is chosen.
    """
    k, m, t = dm.k, dm.group_size, r2.group_size
    u = 0 if du is None else du.group_size
    fills = [(dm, m, "TD(k,m)"), (dm1, m + 1, "TD(k,m+1)"), (dm2, m + 2, "TD(k,m+2)")]
    if du is not None:
        fills.append((du, u, "TD(k,u)"))
    for d, order, role in fills:
        if d.index != 1 or d.hole_kind != HOLE_NONE:
            raise MalformedInput(f"{role} must be a TD of index 1 without holes")
        if d.k != k or d.group_size != order:
            raise MalformedInput(f"{role} has the wrong shape")
    if not (u <= t and 0 <= v <= t):
        raise MalformedInput(f"need u <= t and 0 <= v <= t, got u={u}, v={v}, t={t}")
    if r2.k != k + 2 or r2.index != 1 or r2.hole_kind != HOLE_NONE:
        raise MalformedInput(f"first ingredient must be a TD({k + 2},{t})")
    for d, _, role in fills:
        verify_design(d).require(role)
    verify_design(r2).require("outer TD")

    # the fills without the blocks that the weight-1 points stand for
    fill1 = _cut(dm1, [0], dm1.blocks[[0]].T, [m])
    pair = list(_find_disjoint_blocks(dm2))
    fill2 = _cut(dm2, pair, dm2.blocks[pair].T, [m, m + 1])

    main = v + u  # main points (w, x) start after the hole and the u side
    outer = r2.blocks.astype(np.int64)
    y, z = outer[:, k], outer[:, k + 1]
    has_y, has_z = y < u, z < v
    # every outer block's points: its m main points per group, then the
    # weight-1 point of Y if it meets one (else of Z), then that of Z
    dest = np.empty((k, len(outer), m + 2), dtype=np.int32)
    dest[:, :, :m] = main + outer[:, :k].T[:, :, None] * m + np.arange(m)
    dest[:, :, m] = np.where(has_y, v + y, z)
    dest[:, :, m + 1] = z
    # each outer block takes the fill for the number of weight-1 points it
    # meets; its copy starts where those of the blocks before it end
    cases = has_y.astype(np.int64) + has_z
    fill_cols = [dm.blocks.T, fill1, fill2]
    widths = np.array([fill.shape[1] for fill in fill_cols])[cases]
    starts = np.cumsum(widths) - widths

    def fill_blocks(slot):  # the copy on outer block j: each row's window at starts[j]
        for case in np.unique(cases):  # the fills in use, whose windows fit the row
            blocks = np.flatnonzero(cases == case)
            for i, col in enumerate(fill_cols[case]):
                windows = np.lib.stride_tricks.sliding_window_view(
                    slot[i], len(col), writeable=True)
                windows[starts[blocks]] = np.take(dest[i, blocks], col, axis=1)
    pieces = [(int(widths.sum()), fill_blocks)]
    if du is not None:
        pieces.append(_shifted(np.full((1, 1), v), du.blocks.T))
    size = m * t + u + v
    return _assembled(f"ITD({k},({size};{v}))", k, size, 1, pieces,
                      HOLE_SINGLE if v else HOLE_NONE, [range(v)] if v else [])
