"""Core design objects and their exhaustive verifiers.

Latin squares, holey MOLS sets, incomplete MOLS sets, and block designs
(transversal designs TD_lam(k,n), holey HTD(k,h^n), incomplete
ITD(k,(n;h))) share one convention: symbols and points are 0-based
integers internally and 1-based in the printed grid surface syntax,
with -1 marking a blank cell.

Verifiers count every pair exactly through one kernel, _count_pairs,
k holey or incomplete MOLS as the k + 2 columns of their design.
Where a pair's expected counts are all 0 or 1, its keys clear a reused
boolean table of the 1-cells: as many keys as 1-cells that leave none
set hit each once and nothing else.  A pair's columns are read flat,
and its keys made and scattered a cache-sized slice (PIECE entries) at a
time in small reused buffers, whatever the shape of the object, so a
passing pair allocates nothing of the design's size.  The pairs of a
small object are tested as many at a time as fit one slice, in keys and
in table cells, each in its own region of the table, in one scatter; a
batch that fails is tested again pair by pair.  Any other pair, or one
that fails, has its keys made once in full and counted by one bincount;
only a failed check is searched for witnesses, and then every violation
is listed, for mutation tests and composition debugging.
Objects are immutable and canonical however they are made: __post_init__,
which the constructor, dataclasses.replace and the named builders all run,
freezes their arrays as int32 (gf.frozen) and their holes (holes_new), or
raises MalformedInput.  Verifiers read canonical objects; verification is pure.

A block design holds its blocks column-major: one frozen, C-ordered
int32 buffer of shape (k, B), row i holding every block's point in
group i.  BlockDesign.blocks is its (B, k) view, buffer.T, so a block is
a row of it as ever; the pair counts read the buffer's rows in place.
Every builder writes it once, as int32, through gf.frozen_written or
frozen_from, and the design adopts it as it is.

Holes are disjoint, non-empty sets of points, checked by holes_new alone:
kind none has no hole, single has one (an ITD; incomplete MOLS with an
empty hole have none), uniform has holes of one size that partition the
points (an HTD, holey MOLS).  .holes: sorted tuples, by least point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gf
from .errors import MalformedInput

BLANK = -1
MAX_EXEC_BLOCKS = 5_000_000  # the most blocks a built design may have
PIECE = 1 << 14  # keys made and scattered at a time: 128 KiB of intp stays in cache

# violation kinds
ROW_DUP = "RowDup"
COL_DUP = "ColDup"
HOLE_SYMBOL = "HoleSymbol"
PAIR_MISSING = "PairMissing"
PAIR_REPEATED = "PairRepeated"
BLOCK_SHAPE = "BlockShape"
COUNT_MISMATCH = "CountMismatch"

HOLE_NONE = "none"
HOLE_UNIFORM = "uniform"
HOLE_SINGLE = "single"


def _array(a) -> np.ndarray:
    """np.asarray(a), or for ragged rows a 0-d array, which no shape check passes."""
    try:
        return np.asarray(a)
    except ValueError:
        return np.asarray(None)


def holes_new(kind: str, holes, points: int) -> tuple:
    """Holes of a kind on the points 0..points-1, given as one integer array
    of a row per hole, in the form .holes keeps; MalformedInput for an
    unknown kind or for holes that break its rules (module docstring)."""
    cells = _array(holes)  # no rows, or rows of one size of (up to 64-bit) integers
    if cells.size and (cells.ndim != 2 or cells.dtype.kind not in "iu"):
        raise MalformedInput("holes must be 64-bit integer rows of one size")
    count, size = cells.shape if cells.size else (len(cells), 0)
    rules = {HOLE_NONE: count == 0, HOLE_SINGLE: count == 1,
             HOLE_UNIFORM: count * size == points}
    if kind not in rules:
        raise MalformedInput(f"unknown hole kind {kind!r}")
    if not rules[kind] or count and not size:
        raise MalformedInput(f"{count} holes of size {size} do not make hole kind "
                             f"{kind!r} on {points} points")
    if not count:
        return ()
    cells = np.sort(cells, axis=1)
    every = np.sort(cells, axis=None)
    if every[0] < 0 or every[-1] >= points or (every[1:] == every[:-1]).any():
        raise MalformedInput(f"hole points repeat or leave 0..{points - 1}")
    return tuple(map(tuple, cells[np.argsort(cells[:, 0])].tolist()))


def _hole_of_array(holes, size: int) -> np.ndarray:
    """Map point -> hole id, or -1 when the point is in no hole."""
    hole_of = np.full(size, -1, dtype=np.int32)
    hole_of[np.array(holes, dtype=np.intp).T] = np.arange(len(holes))
    return hole_of


def _same_hole(holes, size: int) -> np.ndarray:
    """(x, y) -> both points lie in one hole: the cells a valid object
    leaves blank and the pairs a valid design never covers, each hole's
    h x h block written into a zeroed mask."""
    same = np.zeros((size, size), dtype=bool)
    cells = np.array(holes or [[]], dtype=np.intp)  # no holes: one hole of no points
    same[cells[:, :, None], cells[:, None, :]] = True
    return same


def _scaled_sum(width: int):
    """keys(x, y, out) = x * width + y, made in out, in its dtype."""
    def keys(x, y, out):
        return np.add(np.multiply(x, width, out=out, dtype=out.dtype), y, out=out)
    return keys


def _exact_test(expected, blanks=0):
    """test(pairs, keys) yields (n, counts, wrong), in order, for each pair
    n of pairs, (x, y), whose keys(x, y, out) do not hit each cell as often
    as `expected` says: counts their bincount and wrong the flat mask
    counts != expected, from one compare; nothing when every pair passes.
    x and y are arrays of one size, read flat.

    keys maps equal slices of flat arrays x and y to their keys, made in
    out, an integer buffer of the slices' length, where it can: int32
    while twice the key space fits it (int32 arithmetic is the cheap
    part), else intp.  For a boolean `expected` the pairs are tested in
    batches, as many as fit PIECE keys and PIECE cells together or else
    one, so a pair with few keys cannot grow the table past 2 max(size,
    PIECE) cells: a batch's x and y are joined and its keys made once, a
    PIECE at a time, then moved to their pair's region of the table,
    [1-cells | empty half], copied into one reused intp buffer, and
    cleared.  As many keys per pair as 1-cells that leave no 1-cell set
    hit each once and no other cell: a pair's keys in [size, 2 size) fall
    in its own empty half, those in [-size, 0) in the one before (the
    first pair's wrap round to the table's end), and no key reaches
    another pair's 1-cells.  `blanks` more keys per pair, those of the
    cells a square with its blanks in place leaves blank, are below zero.
    A batch that fails, or whose keys drop cells and so lose their pairs,
    is tested again pair by pair.  Any other `expected`, or a pair that
    fails, has its keys made once in full and counted by one bincount."""
    flat = expected.ravel()
    size = flat.size
    n_ones = np.count_nonzero(flat) if flat.dtype == bool else -1
    key_type = np.int32 if 2 * size < 2**31 else np.intp
    made, index = np.empty(PIECE, key_type), np.empty(PIECE, np.intp)
    table = np.zeros(2 * max(size, PIECE), dtype=bool)

    def cleared(batch, keys) -> bool:
        n = len(batch)
        if n_ones < 0:
            return False
        ones = table[:2 * n * size].reshape(n, 2, size)[:, 0]  # each pair's 1-cells
        np.copyto(ones, flat)
        x, y = ((np.concatenate(a, axis=None) for a in zip(*batch)) if n > 1
                else (a.ravel() for a in batch[0]))
        offset = np.arange(2 * size, 2 * n * size, 2 * size)[:, None]  # pairs 1, 2, ...
        count = 0
        for a in range(0, len(x), PIECE):
            piece = keys(x[a:a + PIECE], y[a:a + PIECE], made[:len(x) - a])
            at = index[:piece.size]
            np.copyto(at, piece)
            if n > 1:  # one piece: pair p's region starts at p * 2 size
                if piece.size != len(x):
                    return False
                at.reshape(n, -1)[1:] += offset
            table[at] = False
            count += piece.size
        return count == n * (n_ones + blanks) and not np.count_nonzero(ones)

    def test(pairs, keys):
        per = max(1, PIECE // max(1, size, pairs[0][0].size)) if pairs else 1
        for b in range(0, len(pairs), per):
            batch = pairs[b:b + per]
            if cleared(batch, keys):
                continue
            for n, (x, y) in enumerate(batch, b):
                if len(batch) > 1 and cleared([(x, y)], keys):
                    continue
                every = keys(x.ravel(), y.ravel(), np.empty(x.size, key_type))
                counts = np.bincount(every[every >= 0] if blanks else every, minlength=size)
                wrong = counts != flat
                if wrong.any():
                    yield n, counts, wrong
    return test


def _count_pairs(v, cols, expected, keys=None, blanks=0, pairs=None) -> None:
    """The one exact pair-counting kernel behind every verifier.

    For each pair (r, s) of pairs, by default every r < s of cols, test
    keys(cols[r], cols[s], out), by default cols[r] * expected.shape[-1] +
    cols[s], through one _exact_test; a failed pair hands its witnesses
    back in v, in pair order: (PAIR_MISSING, (r, s, *cell, count)) in cell
    order, then PAIR_REPEATED likewise, from one scan of its mask of wrong
    counts.  Columns are read in place, a piece at a time (a design's own
    buffer), and a small object's pairs are tested in a few batches.
    """
    keys = keys or _scaled_sum(expected.shape[-1])
    if pairs is None:
        pairs = [(r, s) for r in range(len(cols)) for s in range(r + 1, len(cols))]
    flat = expected.ravel()
    for n, counts, wrong in _exact_test(expected, blanks)(
            [(cols[r], cols[s]) for r, s in pairs], keys):
        r, s = pairs[n]
        cells = np.flatnonzero(wrong)
        missing = counts[cells] < flat[cells]
        for kind, part in ((PAIR_MISSING, missing), (PAIR_REPEATED, ~missing)):
            at = cells[part]
            for *cell, count in zip(*(c.tolist() for c in np.unravel_index(at, expected.shape)),
                                    counts[at].tolist()):
                v.append((kind, (r, s, *cell, count)))


@dataclass(frozen=True)
class VerificationReport:
    valid: bool
    violations: tuple

    def kinds(self) -> set[str]:
        return {kind for kind, _ in self.violations}

    def require(self, what: str) -> None:
        """Refuse what failed: MalformedInput naming it and its first
        three violations, unless the report is valid."""
        if not self.valid:
            raise MalformedInput(f"{what} fails verification: {self.violations[:3]}")


def _report(violations) -> VerificationReport:
    return VerificationReport(valid=not violations, violations=tuple(violations))


def _frozen_squares(squares, side: int) -> np.ndarray:
    """k squares of the given side over the symbols 0..side-1 and blanks,
    as a frozen int32 array; MalformedInput for any other shape or entry."""
    arr = _array(squares)
    if arr.ndim != 3 or arr.shape[1:] != (side, side):
        raise MalformedInput(f"expected (k, {side}, {side}) squares, got {arr.shape}")
    if arr.size and arr.dtype.kind not in "iu":  # no squares hold no such entry
        raise MalformedInput(f"squares must hold integers, got {arr.dtype}")
    if arr.size and (arr.min() < BLANK or arr.max() >= side):
        raise MalformedInput("symbol out of range")
    return gf.frozen(arr, np.int32)


# ---------------------------------------------------------------------------
# latin squares
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LatinSquare:
    """An n x n array over symbols 0..n-1, blanks allowed, n >= 1."""

    cells: np.ndarray

    def __post_init__(self):
        arr = _array(self.cells)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
            raise MalformedInput(f"latin square must be square, got {arr.shape}")
        object.__setattr__(self, "cells", _frozen_squares(arr[None], len(arr))[0])

    @property
    def n(self) -> int:
        return len(self.cells)

    @staticmethod
    def from_array(cells) -> "LatinSquare":
        return LatinSquare(cells)


def _duplicates(square: np.ndarray):
    """(ROW_DUP, row, symbol) for every symbol a row repeats, then
    (COL_DUP, column, symbol) likewise, each in (line, symbol) order."""
    n = len(square)
    filled = square != BLANK
    for kind, line in ((ROW_DUP, np.arange(n)[:, None]), (COL_DUP, np.arange(n))):
        counts = np.bincount((line * n + square)[filled], minlength=n * n)
        for key in np.nonzero(counts > 1)[0]:
            yield kind, int(key // n), int(key % n)


def verify_latin(sq: LatinSquare) -> VerificationReport:
    """Each row and column holds each symbol at most once."""
    return _report([(kind, (i, s)) for kind, i, s in _duplicates(sq.cells)])


# ---------------------------------------------------------------------------
# holey MOLS
# ---------------------------------------------------------------------------

class _SquareSet:
    """What the square sets share: k, their number, and hole_of()."""

    @property
    def k(self) -> int:
        return len(self.squares)

    def hole_of(self) -> np.ndarray:
        return _hole_of_array(self.holes, self.squares.shape[-1])


@dataclass(frozen=True)
class HoleyLatinSquareSet(_SquareSet):
    """k squares of side h*n over a shared partition into n holes of size h.

    Every square is blank exactly on the union of H_t x H_t, symbols of a
    hole never meet rows or columns of that hole, and the squares are
    pairwise orthogonal off the holes.
    """

    h: int
    n: int
    holes: tuple
    squares: np.ndarray  # (k, hn, hn)

    def __post_init__(self):
        object.__setattr__(self, "squares", _frozen_squares(self.squares, self.h * self.n))
        holes = holes_new(HOLE_UNIFORM, self.holes, self.h * self.n)
        if len(holes) != self.n:
            raise MalformedInput(f"expected {self.n} holes, got {len(holes)}")
        object.__setattr__(self, "holes", holes)

    @staticmethod
    def from_arrays(h: int, n: int, holes, squares) -> "HoleyLatinSquareSet":
        return HoleyLatinSquareSet(h=h, n=n, holes=holes, squares=squares)


def _square_witnesses(v, sq_idx, square, hole_of, same_hole):
    """Per-square violations: blank placement, duplicates, hole symbols."""
    blank = square == BLANK
    for i, j in zip(*np.nonzero(blank != same_hole)):
        v.append((COUNT_MISMATCH, (sq_idx, int(i), int(j))))
    v.extend((kind, (sq_idx, i, s)) for kind, i, s in _duplicates(square))
    fi, fj = np.nonzero(~blank)
    syms = square[fi, fj]
    # a symbol of hole t may not appear in rows or columns indexed by hole t
    bad = (hole_of[syms] >= 0) & \
        ((hole_of[syms] == hole_of[fi]) | (hole_of[syms] == hole_of[fj]))
    for i, j, s in zip(fi[bad], fj[bad], syms[bad]):
        v.append((HOLE_SYMBOL, (sq_idx, int(i), int(j), int(s))))


def verify_hmols(s: HoleyLatinSquareSet) -> VerificationReport:
    """Exact check of holey (or incomplete) MOLS as the k + 2 columns of
    their design: the squares, then each cell's row and column, views of
    one arange(g).  A square with its blanks in place has no duplicate and
    no hole symbol exactly when its line pairs count as its square pairs
    do, a blank's key below zero; a square with a blank misplaced is
    paired over filled cells."""
    squares, k, g = s.squares, s.k, s.squares.shape[-1]
    hole_of, same_hole = s.hole_of(), _same_hole(s.holes, g)
    expected = ~same_hole
    blanks = np.count_nonzero(same_hole)  # in a square with its blanks in place
    placed = ((squares == BLANK) == same_hole).reshape(k, -1).all(1).tolist()
    column = np.ndarray((g, g), np.int32, np.arange(g, dtype=np.int32), strides=(0, 4))
    cols = [*squares, column.T, column]  # each cell's row, then its column
    lines = [(idx, at) for idx in range(k) if placed[idx] for at in (k, k + 1)]
    pairs = [(r, s) for r in range(k) for s in range(r + 1, k)]
    w = []
    if all(placed):  # a cell blank in one square is blank in both: key -g - 1
        _count_pairs(w, cols, expected, blanks=blanks, pairs=lines + pairs)
    else:
        _count_pairs(w, cols, expected, blanks=blanks, pairs=lines)
        _count_pairs(w, cols, expected, keys=lambda x, y, out: _scaled_sum(g)(x, y, out)[
            (x != BLANK) & (y != BLANK)], pairs=pairs)
    failed = {r for _, (r, s, *_) in w if s >= k}  # the squares of failed line pairs
    v = []
    for idx in range(k):
        if not placed[idx] or idx in failed:
            _square_witnesses(v, idx, squares[idx], hole_of, same_hole)
    v.extend(witness for witness in w if witness[1][1] < k)
    return _report(v)


# ---------------------------------------------------------------------------
# incomplete MOLS (single common hole)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IncompleteMolsSet(_SquareSet):
    """k squares of order n with a single common hole H: cells H x H blank,
    hole symbols absent from hole rows/columns, orthogonal off the hole;
    an empty hole is no hole."""

    n: int
    hole: tuple
    squares: np.ndarray  # (k, n, n)

    def __post_init__(self):
        object.__setattr__(self, "squares", _frozen_squares(self.squares, self.n))
        object.__setattr__(self, "hole", holes_new(HOLE_SINGLE, [self.hole], self.n)[0]
                           if len(self.hole) else ())

    @property
    def holes(self) -> tuple:
        """The hole as a tuple of holes, as the other objects keep them."""
        return (self.hole,) if self.hole else ()

    @staticmethod
    def from_arrays(n: int, hole, squares) -> "IncompleteMolsSet":
        return IncompleteMolsSet(n=n, hole=hole, squares=squares)


verify_imols = verify_hmols  # one hole is a holey set's holes


# ---------------------------------------------------------------------------
# block designs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlockDesign:
    """k groups of group_size points with blocks transverse to the groups,
    every group sharing the holes, of kind hole_kind.

    Blocks are ordered k-tuples of per-group point indices, kept as a list
    with multiset semantics: TD_lam with lam > 1 legitimately repeats
    blocks.  blocks is the (B, k) view of one frozen (k, B) int32 buffer,
    blocks.T, which holds the blocks column by column.
    """

    k: int
    group_size: int
    index: int
    hole_kind: str
    holes: tuple
    blocks: np.ndarray  # (B, k), the view .T of a frozen (k, B) buffer

    def __post_init__(self):
        # (B, k) rows of integers, range-checked in their own dtype; .T is
        # copied once, or adopted when it is a frozen int32 buffer already
        k, arr = self.k, _array(self.blocks)
        if arr.size and arr.dtype.kind not in "iu":
            if not all(type(x) is int for x in np.asarray(self.blocks, dtype=object).flat):
                raise MalformedInput(f"block entries must be integers, got {arr.dtype}"
                                     if arr.dtype.kind in "bfc" else
                                     f"blocks must be rows of {k} integers")
            arr = None  # Python integers, some beyond int64, that numpy read as floats or objects
        if arr is None or arr.size and not np.can_cast(arr.dtype, np.int32) and \
                not -2**31 <= arr.min() <= arr.max() < 2**31:
            raise MalformedInput("block entries must fit in 32-bit integers")
        if arr.shape[:1] == (0,):  # no rows is no blocks; rows of no entries are refused
            arr = arr.reshape(0, k)
        if arr.ndim != 2 or arr.shape[1] != k:
            raise MalformedInput(f"blocks must be (B, {k}), got {arr.shape}")
        if k < 2:
            raise MalformedInput("a block design needs at least two groups")
        sizes = f"group size {self.group_size} and index {self.index}"
        if self.group_size < 1 or self.index < 1:
            raise MalformedInput(f"{sizes} must be at least 1")
        if self.group_size >= 2**31 or self.index >= 2**31:
            raise MalformedInput(f"{sizes} must be below 2^31")
        object.__setattr__(self, "holes", holes_new(self.hole_kind, self.holes, self.group_size))
        object.__setattr__(self, "blocks", gf.frozen(arr.T, np.int32).T)

    @staticmethod
    def new(k, group_size, index, blocks, hole_kind=HOLE_NONE, holes=()) -> "BlockDesign":
        return BlockDesign(k, group_size, index, hole_kind, holes, blocks)

    @property
    def hole_size(self) -> int:
        return len(self.holes[0]) if self.holes else 0

    @property
    def hole_count(self) -> int:
        return len(self.holes)

    def hole_of(self) -> np.ndarray:
        return _hole_of_array(self.holes, self.group_size)

    def sorted_blocks(self) -> np.ndarray:
        """Blocks in canonical (lexicographic) order.

        Sorting on the first two coordinates alone gives that order when
        they tell all blocks apart, as they do for the HTD of any HMOLS
        set (distinct keys have one sorted order, so any sort will do); the
        full sort runs only when they do not.  Each column is gathered on
        its own, and the result is the (B, k) view of them.
        """
        cols = self.blocks.T
        out = np.empty(cols.shape, dtype=cols.dtype)
        order = _lexicographic_order(cols, self.group_size)
        for col, row in zip(cols, out):  # order is a permutation: nothing to clip
            np.take(col, order, out=row, mode="clip")
        return out.T


def _lexicographic_order(cols, g: int) -> np.ndarray:
    """The permutation that puts the blocks, held as columns (k, B), in
    lexicographic order."""
    if cols.shape[1] > 1 and 0 <= cols[1].min() and cols[1].max() < g:
        key = cols[0].astype(np.int64) * g + cols[1]
        order = np.argsort(key)
        key = key[order]
        if (key[1:] != key[:-1]).all():
            return order
    return np.lexsort(cols[::-1])


def expected_block_count(d: BlockDesign) -> int:
    """index * (number of cross-hole ordered pairs per group pair)."""
    g = d.group_size
    return d.index * (g * g - sum(len(c) ** 2 for c in d.holes))


def verify_design(d: BlockDesign) -> VerificationReport:
    """Exact pair-coverage check: every cross-group pair outside the holes
    in exactly `index` blocks, same-hole pairs in none, block count and
    shapes consistent with the profile."""
    v = []
    g, cols = d.group_size, d.blocks.T
    entries = cols.view(np.uint32)  # a negative entry is 2^31 or more, so at least g
    if entries.size and entries.max() >= g:
        return _report([(BLOCK_SHAPE, (b,))
                        for b in np.unique(np.nonzero(entries >= g)[1]).tolist()])
    expected_count = expected_block_count(d)
    if len(d.blocks) != expected_count:
        v.append((COUNT_MISMATCH, (len(d.blocks), expected_count)))
    same = _same_hole(d.holes, g)
    _count_pairs(v, cols, np.where(same, 0, d.index) if d.index > 1 else ~same)
    return _report(v)


# ---------------------------------------------------------------------------
# HMOLS <-> HTD equivalence and relatives
# ---------------------------------------------------------------------------

def _cell_design(s, hole_kind: str) -> BlockDesign:
    """The design of a verified square set: one block (row, column, each
    square's symbol) per cell off the holes, each column written in its slot."""
    g = s.squares.shape[-1]
    cells = np.flatnonzero(~_same_hole(s.holes, g))
    flat = s.squares.reshape(s.k, -1)  # verified: each symbol off the holes is a point
    cols = gf.frozen_written(np.int32, (s.k + 2, len(cells)), (
        (2, lambda lines: np.divmod(cells, g, out=tuple(lines))),
        (s.k, lambda rows: np.take(flat, cells, axis=1, out=rows, mode="clip"))))
    return BlockDesign.new(k=s.k + 2, group_size=g, index=1, blocks=cols.T,
                           hole_kind=hole_kind, holes=s.holes)


def hmols_to_htd(s: HoleyLatinSquareSet) -> BlockDesign:
    """k HMOLS of type h^n to HTD(k+2, h^n): groups are rows, columns, and
    one group per square; one block per filled cell."""
    verify_hmols(s).require("HMOLS set")
    return _cell_design(s, HOLE_UNIFORM)


def htd_to_hmols(d: BlockDesign) -> HoleyLatinSquareSet:
    """HTD(k, h^n) with k >= 3 to the equivalent k-2 HMOLS of type h^n:
    group 0 gives the rows, group 1 the columns."""
    if d.hole_kind != HOLE_UNIFORM or d.k < 3:
        raise MalformedInput(f"need a uniform-hole design on >= 3 groups, "
                             f"got {d.hole_kind} on {d.k}")
    # a valid design of index 2 or more repeats every off-hole cell
    if d.index != 1:
        raise MalformedInput(f"need an HTD of index 1, got index {d.index}")
    verify_design(d).require("HTD")
    g = d.group_size
    cols = d.blocks.T
    cells = np.multiply(cols[0], g, dtype=np.intp)
    cells += cols[1]

    def fill(square, symbols):
        square.fill(BLANK)
        square.reshape(-1)[cells] = symbols

    # each square filled in its own slot of the buffer the square set adopts
    squares = gf.frozen_written(np.int32, (d.k - 2, g, g), (
        (1, lambda slot, symbols=symbols: fill(slot, symbols)) for symbols in cols[2:]))
    return HoleyLatinSquareSet.from_arrays(h=d.hole_size, n=d.hole_count, holes=d.holes,
                                           squares=squares)


def imols_to_itd(s: IncompleteMolsSet) -> BlockDesign:
    """k incomplete MOLS with a common hole to ITD(k+2, (n; h)), read the
    same way as the holey conversion."""
    verify_imols(s).require("incomplete MOLS set")
    return _cell_design(s, HOLE_SINGLE if s.hole else HOLE_NONE)


# ---------------------------------------------------------------------------
# base constructions from finite fields
# ---------------------------------------------------------------------------

def td_from_field(k: int, q: int) -> BlockDesign:
    """TD(k, q) over GF(q): blocks (a + u*g_i) for the first k field
    elements g_i, over all a, u.

    A (q+1)-st group is supported by adjoining the coordinate u itself
    (the slope of the line), the usual projective completion; this is
    what makes TD(3, 2) constructible.
    """
    f = gf.field_new(q)  # refuses a q that is not a prime power
    if k > q + 1:
        raise MalformedInput(f"TD({k},{q}) needs k <= q + 1")
    if k < 2:
        raise MalformedInput("need at least two groups")
    a, u = np.divmod(np.arange(q * q), q)
    cols = gf.frozen_from(((u if i == q else f.add(a, f.mul(u, i)))[None] for i in range(k)),
                          np.int32, (k, q * q))  # field elements, below q
    return BlockDesign.new(k=k, group_size=q, index=1, blocks=cols.T)


def unit_hole_htd(k: int, q: int) -> BlockDesign:
    """HTD(k, 1^q) from the idempotent squares L_a(x,y) = a*x + (1-a)*y over
    GF(q), a not in {0, 1}: one block per off-diagonal cell."""
    f = gf.field_new(q)
    if q < 3:
        raise MalformedInput(f"HTD(k,1^q) needs q >= 3, got {q}")
    if k > q:
        raise MalformedInput(f"HTD({k},1^{q}) supports at most q groups")
    if k < 3:
        raise MalformedInput("need at least three groups")
    x, y = np.divmod(np.arange(q * q), q)
    off_diagonal = x != y
    x, y = x[off_diagonal], y[off_diagonal]
    cols = [x, y] + [f.add(f.mul(a, x), f.mul(f.sub(1, a), y))
                     for a in range(2, k)]  # the k-2 chosen values of a
    return BlockDesign.new(k=k, group_size=q, index=1,
                           blocks=gf.frozen_from((c[None] for c in cols), np.int32, (k, len(x))).T,
                           hole_kind=HOLE_UNIFORM, holes=np.arange(q)[:, None])


def restrict_groups(d: BlockDesign, keep) -> BlockDesign:
    """Project every block to the kept groups; hole and index profile carry over."""
    keep = [int(i) for i in keep]
    if len(keep) < 2 or len(set(keep)) != len(keep) or \
            any(not 0 <= i < d.k for i in keep):
        raise MalformedInput(f"bad group selection {keep} for k = {d.k}")
    return BlockDesign.new(k=len(keep), group_size=d.group_size, index=d.index,
                           blocks=gf.frozen_from((d.blocks.T[i:i + 1] for i in keep), np.int32,
                                                 (len(keep), len(d.blocks))).T,
                           hole_kind=d.hole_kind, holes=d.holes)


def relabel_points(d: BlockDesign, perms) -> BlockDesign:
    """Apply one permutation of the point set per group (perms[i][old] = new).

    Only hole-free designs: per-group relabeling would tear a shared hole
    partition apart.
    """
    if d.hole_kind != HOLE_NONE:
        raise MalformedInput("per-group relabeling needs a hole-free design")
    perms = _array(perms)
    if perms.shape != (d.k, d.group_size) or perms.dtype.kind not in "iu" or \
            (np.sort(perms, axis=1) != np.arange(d.group_size)).any():
        raise MalformedInput("need one full permutation per group")
    cols = gf.frozen_written(np.int32, (d.k, len(d.blocks)), (  # permuted points fit int32
        (1, lambda row, p=p, col=col: np.take(p, col, out=row[0]))
        for p, col in zip(perms, d.blocks.T)))
    return BlockDesign.new(k=d.k, group_size=d.group_size, index=d.index, blocks=cols.T)
