"""Core design objects and their exhaustive verifiers.

Latin squares, holey MOLS sets, incomplete MOLS sets, and block designs
(transversal designs TD_lam(k,n), holey HTD(k,h^n), incomplete
ITD(k,(n;h))) share one convention: symbols and points are 0-based
integers internally and 1-based in the printed grid surface syntax,
with -1 marking a blank cell.

Verifiers count every pair exactly through one kernel, _count_pairs.
Where a pair's expected counts are all 0 or 1, its keys clear a reused
boolean table of the 1-cells: as many keys as 1-cells that leave none
set hit each once and nothing else.  Any other pair, or one that fails,
is counted by one bincount; only a failed check is searched for
witnesses, and then every violation is listed, for mutation tests and
composition debugging.  Objects are immutable, their arrays made by
gf.frozen in the constructors; verification is pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gf
from .errors import MalformedInput

BLANK = -1

# violation kinds
ROW_DUP = "RowDup"
COL_DUP = "ColDup"
HOLE_SYMBOL = "HoleSymbol"
PAIR_MISSING = "PairMissing"
PAIR_REPEATED = "PairRepeated"
BLOCK_SHAPE = "BlockShape"
COUNT_MISMATCH = "CountMismatch"


def _check_holes_partition(holes, size: int, cell_size: int | None = None):
    """Holes must be disjoint subsets of range(size); returns them sorted by
    minimum element with sorted members."""
    seen = set()
    norm = []
    for h in holes:
        cell = tuple(sorted(int(x) for x in h))
        if not cell:
            raise MalformedInput("empty hole cell")
        if cell_size is not None and len(cell) != cell_size:
            raise MalformedInput(f"hole cell {cell} is not of size {cell_size}")
        for x in cell:
            if not 0 <= x < size or x in seen:
                raise MalformedInput(f"hole element {x} repeated or out of range")
            seen.add(x)
        norm.append(cell)
    return tuple(sorted(norm, key=lambda c: c[0]))


def _hole_of_array(holes, size: int) -> np.ndarray:
    """Map point -> hole id (or -1 when the point is in no hole)."""
    hole_of = np.full(size, -1, dtype=np.int32)
    for t, cell in enumerate(holes):
        for x in cell:
            hole_of[x] = t
    return hole_of


def _same_hole(hole_of: np.ndarray) -> np.ndarray:
    """(x, y) -> both points lie in one hole: the cells a valid object
    leaves blank and the pairs a valid design never covers."""
    return (hole_of[:, None] == hole_of[None, :]) & (hole_of >= 0)[:, None]


def _exact_test(expected):
    """test(keys) -> None when the keys hit each cell as often as `expected`
    says, else their bincount.  For a boolean `expected`, as many keys as
    1-cells that clear every 1-cell of a reused table hit each once and no
    other cell; keys in [-size, 0) and [size, 2 size) fall in its empty half."""
    flat = expected.ravel()
    n_ones = np.count_nonzero(flat) if flat.dtype == bool else -1
    table = np.zeros(2 * flat.size, dtype=bool)
    low = table[:flat.size]

    def test(keys):
        if len(keys) == n_ones:
            np.copyto(low, flat)
            table[keys] = False
            if not np.count_nonzero(low):
                return None
        counts = np.bincount(keys, minlength=flat.size)
        return None if np.array_equal(counts, flat) else counts
    return test


def _count_pairs(v, blocks, expected, keys=None) -> None:
    """The one exact pair-counting kernel behind every verifier.

    For each column pair r < s of blocks (N, m), test keys(col_r, col_s),
    by default col_r * expected.shape[-1] + col_s in a reused buffer; a
    pair that fails adds witnesses to v, (PAIR_MISSING, (r, s, *cell,
    count)) in cell order and then PAIR_REPEATED likewise.
    """
    cols = np.ascontiguousarray(blocks.T, dtype=np.int32)
    exact = _exact_test(expected)
    scaled, buf = (np.empty(cols.shape[1], dtype=np.intp) for _ in range(2))
    for r in range(len(cols)):
        if keys is None:
            np.multiply(cols[r], expected.shape[-1], out=scaled, dtype=np.intp)
        for s in range(r + 1, len(cols)):
            pair = np.add(scaled, cols[s], out=buf) if keys is None \
                else keys(cols[r], cols[s])
            if (counts := exact(pair)) is None:
                continue
            counts = counts.reshape(expected.shape)
            for kind, bad in ((PAIR_MISSING, counts < expected),
                              (PAIR_REPEATED, counts > expected)):
                for cell in zip(*np.nonzero(bad)):
                    v.append((kind, (r, s, *map(int, cell), int(counts[cell]))))


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
    frozen as int32; MalformedInput for any other shape or symbol."""
    arr = np.asarray(squares)
    if arr.ndim != 3 or arr.shape[1:] != (side, side):
        raise MalformedInput(f"expected (k, {side}, {side}) squares, got {arr.shape}")
    if arr.size and (arr.min() < BLANK or arr.max() >= side):
        raise MalformedInput("symbol out of range")
    return gf.frozen(arr, np.int32)


# ---------------------------------------------------------------------------
# latin squares
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LatinSquare:
    """An n x n array over symbols 0..n-1, blanks allowed."""

    n: int
    cells: np.ndarray

    @staticmethod
    def from_array(cells) -> "LatinSquare":
        arr = np.asarray(cells)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
            raise MalformedInput(f"latin square must be square, got {arr.shape}")
        return LatinSquare(n=len(arr), cells=_frozen_squares(arr[None], len(arr))[0])


def _duplicates(square: np.ndarray):
    """(ROW_DUP, row, symbol) for every symbol a row repeats, then
    (COL_DUP, column, symbol) likewise, each in (line, symbol) order."""
    n = len(square)
    fi, fj = np.nonzero(square != BLANK)
    for kind, idx in ((ROW_DUP, fi), (COL_DUP, fj)):
        counts = np.bincount(idx * n + square[fi, fj], minlength=n * n)
        for key in np.nonzero(counts > 1)[0]:
            yield kind, int(key // n), int(key % n)


def verify_latin(sq: LatinSquare) -> VerificationReport:
    """Each row and column holds each symbol at most once."""
    return _report([(kind, (i, s)) for kind, i, s in _duplicates(sq.cells)])


# ---------------------------------------------------------------------------
# holey MOLS
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HoleyLatinSquareSet:
    """k squares of side h*n over a shared partition into n holes of size h.

    Every square is blank exactly on the union of H_t x H_t, symbols of a
    hole never meet rows or columns of that hole, and the squares are
    pairwise orthogonal off the holes.
    """

    k: int
    h: int
    n: int
    holes: tuple
    squares: np.ndarray  # (k, hn, hn)

    @staticmethod
    def from_arrays(h: int, n: int, holes, squares) -> "HoleyLatinSquareSet":
        arr = _frozen_squares(squares, h * n)
        norm = _check_holes_partition(holes, h * n, cell_size=h)
        if len(norm) != n:
            raise MalformedInput(f"expected {n} holes, got {len(norm)}")
        return HoleyLatinSquareSet(k=len(arr), h=h, n=n, holes=norm, squares=arr)

    def hole_of(self) -> np.ndarray:
        return _hole_of_array(self.holes, self.h * self.n)


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


def _verify_squares(squares, hole_of) -> VerificationReport:
    """Holey and incomplete MOLS: a square with its blanks on the same-hole
    cells has no duplicate and no hole symbol exactly when its (row,
    symbol) and (column, symbol) counts are 0 on those cells and 1 off them."""
    g = len(hole_of)
    # from_arrays checks the range, but the plain dataclass constructor does not
    if squares.size and (squares.min() < BLANK or squares.max() >= g):
        raise MalformedInput("symbol out of range")
    v = []
    same_hole = _same_hole(hole_of)
    expected = ~same_hole
    flat = squares.reshape(len(squares), g * g)
    cols = flat.compress(expected.ravel(), axis=1)  # filled, if blanks are placed
    line_keys = [x * g for x in np.nonzero(expected)]  # row, column
    placed = [np.array_equal(square == BLANK, same_hole) for square in squares]
    exact, buf = _exact_test(expected), np.empty(cols.shape[1], dtype=np.intp)
    for idx, square in enumerate(squares):
        if not (placed[idx] and all(exact(np.add(keys, cols[idx], out=buf)) is None
                                    for keys in line_keys)):
            _square_witnesses(v, idx, square, hole_of, same_hole)
    if all(placed):
        _count_pairs(v, cols.T, expected)
    else:  # count each pair over the cells both squares fill
        _count_pairs(v, flat.T, expected,
                     keys=lambda a, b: (a.astype(np.intp) * g + b)[
                         (a != BLANK) & (b != BLANK)])
    return _report(v)


def verify_hmols(s: HoleyLatinSquareSet) -> VerificationReport:
    """Exact check of the holey-MOLS conditions by counting all pairs."""
    return _verify_squares(s.squares, s.hole_of())


# ---------------------------------------------------------------------------
# incomplete MOLS (single common hole)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IncompleteMolsSet:
    """k squares of order n with a single common hole H: cells H x H blank,
    hole symbols absent from hole rows/columns, orthogonal off the hole."""

    k: int
    n: int
    hole: tuple
    squares: np.ndarray  # (k, n, n)

    @staticmethod
    def from_arrays(n: int, hole, squares) -> "IncompleteMolsSet":
        arr = _frozen_squares(squares, n)
        cell = tuple(sorted(int(x) for x in hole))
        if len(set(cell)) != len(cell) or any(not 0 <= x < n for x in cell):
            raise MalformedInput("hole repeats or leaves range")
        return IncompleteMolsSet(k=len(arr), n=n, hole=cell, squares=arr)

    def hole_of(self) -> np.ndarray:
        return _hole_of_array((self.hole,), self.n)


def verify_imols(s: IncompleteMolsSet) -> VerificationReport:
    return _verify_squares(s.squares, s.hole_of())


# ---------------------------------------------------------------------------
# block designs
# ---------------------------------------------------------------------------

HOLE_NONE = "none"
HOLE_UNIFORM = "uniform"
HOLE_SINGLE = "single"


@dataclass(frozen=True)
class BlockDesign:
    """k groups of group_size points with blocks transverse to the groups.

    The hole structure, shared by all groups, is either absent, a uniform
    partition into n holes of size h (holey TD), or one hole (incomplete
    TD).  Blocks are ordered k-tuples of per-group point indices, kept as
    a list with multiset semantics: TD_lam with lam > 1 legitimately
    repeats blocks.
    """

    k: int
    group_size: int
    index: int
    hole_kind: str
    holes: tuple
    blocks: np.ndarray  # (B, k)

    @staticmethod
    def new(k, group_size, index, blocks, hole_kind=HOLE_NONE, holes=()) -> "BlockDesign":
        # an integer array is range-checked in its own dtype (int32 and
        # narrower need no check), then frozen: an int32 array that is
        # frozen already, such as the design reader's, is adopted as it is
        if isinstance(blocks, np.ndarray) and blocks.dtype.kind in "iu":
            arr = blocks
        else:
            try:
                arr = np.asarray(blocks, dtype=np.int64)
            except OverflowError:
                arr = None
        if arr is None or arr.size and not np.can_cast(arr.dtype, np.int32) and \
                not -2**31 <= arr.min() <= arr.max() < 2**31:
            raise MalformedInput("block entries must fit in 32-bit integers")
        if arr.size == 0:
            arr = arr.reshape(0, k)
        if arr.ndim != 2 or arr.shape[1] != k:
            raise MalformedInput(f"blocks must be ({arr.shape[0]}, {k}), got {arr.shape}")
        if k < 2:
            raise MalformedInput("a block design needs at least two groups")
        if group_size < 1 or index < 1:
            raise MalformedInput(f"group size {group_size} and index {index} "
                                 f"must be at least 1")
        if group_size >= 2**31 or index >= 2**31:
            raise MalformedInput(f"group size {group_size} and index {index} "
                                 f"must be below 2^31")
        if hole_kind == HOLE_NONE:
            norm = ()
            if holes:
                raise MalformedInput("holes given for hole_kind 'none'")
        elif hole_kind == HOLE_UNIFORM:
            sizes = {len(c) for c in holes}
            if len(sizes) != 1:
                raise MalformedInput("uniform holes must have equal sizes")
            h = sizes.pop()
            norm = _check_holes_partition(holes, group_size, cell_size=h)
            if len(norm) * h != group_size:
                raise MalformedInput("uniform holes must partition the points")
        elif hole_kind == HOLE_SINGLE:
            if len(holes) != 1:
                raise MalformedInput("single profile takes exactly one hole")
            norm = _check_holes_partition(holes, group_size)
        else:
            raise MalformedInput(f"unknown hole kind {hole_kind!r}")
        return BlockDesign(k=k, group_size=group_size, index=index, hole_kind=hole_kind,
                           holes=norm, blocks=gf.frozen(arr, np.int32))

    # derived uniform profile parameters
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
        set; the full sort runs only when they do not.
        """
        b = self.blocks
        if len(b) > 1 and 0 <= b[:, 1].min() and b[:, 1].max() < self.group_size:
            key = b[:, 0].astype(np.int64) * self.group_size + b[:, 1]
            order = np.argsort(key, kind="stable")
            key = key[order]
            if (key[1:] != key[:-1]).all():
                return b[order]
        return b[np.lexsort(b.T[::-1])]


def expected_block_count(d: BlockDesign) -> int:
    """index * (number of cross-hole ordered pairs per group pair)."""
    g = d.group_size
    return d.index * (g * g - sum(len(c) ** 2 for c in d.holes))


def verify_design(d: BlockDesign) -> VerificationReport:
    """Exact pair-coverage check: every cross-group pair outside the holes
    in exactly `index` blocks, same-hole pairs in none, block count and
    shapes consistent with the profile."""
    v = []
    g = d.group_size
    blocks = d.blocks
    if blocks.size and (blocks.min() < 0 or blocks.max() >= g):
        bad = np.nonzero((blocks < 0) | (blocks >= g))[0]
        for b in np.unique(bad):
            v.append((BLOCK_SHAPE, (int(b),)))
        return _report(v)
    expected_count = expected_block_count(d)
    if blocks.shape[0] != expected_count:
        v.append((COUNT_MISMATCH, (blocks.shape[0], expected_count)))
    same = _same_hole(d.hole_of())
    _count_pairs(v, blocks, np.where(same, 0, d.index) if d.index > 1 else ~same)
    return _report(v)


# ---------------------------------------------------------------------------
# HMOLS <-> HTD equivalence and relatives
# ---------------------------------------------------------------------------

def _cell_blocks(squares, hole_of) -> np.ndarray:
    """One block (row, column, each square's symbol) per cell off the holes."""
    off_hole = ~_same_hole(hole_of)
    return np.column_stack([*np.nonzero(off_hole), *squares[:, off_hole]])


def hmols_to_htd(s: HoleyLatinSquareSet) -> BlockDesign:
    """k HMOLS of type h^n to HTD(k+2, h^n): groups are rows, columns, and
    one group per square; one block per filled cell."""
    verify_hmols(s).require("HMOLS set")
    return BlockDesign.new(k=s.k + 2, group_size=s.h * s.n, index=1,
                           blocks=_cell_blocks(s.squares, s.hole_of()),
                           hole_kind=HOLE_UNIFORM, holes=s.holes)


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
    squares = np.full((d.k - 2, g, g), BLANK, dtype=np.int32)
    cells = d.blocks[:, 0].astype(np.intp) * g + d.blocks[:, 1]
    squares.reshape(d.k - 2, g * g)[:, cells] = d.blocks[:, 2:].T
    return HoleyLatinSquareSet.from_arrays(h=d.hole_size, n=d.hole_count,
                                           holes=d.holes, squares=squares)


def imols_to_itd(s: IncompleteMolsSet) -> BlockDesign:
    """k incomplete MOLS with a common hole to ITD(k+2, (n; h)), read the
    same way as the holey conversion."""
    verify_imols(s).require("incomplete MOLS set")
    blocks = _cell_blocks(s.squares, s.hole_of())
    if s.hole:
        return BlockDesign.new(k=s.k + 2, group_size=s.n, index=1, blocks=blocks,
                               hole_kind=HOLE_SINGLE, holes=(s.hole,))
    return BlockDesign.new(k=s.k + 2, group_size=s.n, index=1, blocks=blocks)


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
    cols = [u if i == q else f.add(a, f.mul(u, i)) for i in range(k)]
    return BlockDesign.new(k=k, group_size=q, index=1, blocks=np.stack(cols, axis=1))


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
    holes = tuple((t,) for t in range(q))
    return BlockDesign.new(k=k, group_size=q, index=1,
                           blocks=np.stack(cols, axis=1),
                           hole_kind=HOLE_UNIFORM, holes=holes)


def restrict_groups(d: BlockDesign, keep) -> BlockDesign:
    """Project every block to the kept groups; hole and index profile carry over."""
    keep = [int(i) for i in keep]
    if len(keep) < 2 or len(set(keep)) != len(keep) or \
            any(not 0 <= i < d.k for i in keep):
        raise MalformedInput(f"bad group selection {keep} for k = {d.k}")
    return BlockDesign.new(k=len(keep), group_size=d.group_size, index=d.index,
                           blocks=d.blocks[:, keep], hole_kind=d.hole_kind,
                           holes=d.holes)


def relabel_points(d: BlockDesign, perms) -> BlockDesign:
    """Apply one permutation of the point set per group (perms[i][old] = new).

    Only hole-free designs: per-group relabeling would tear a shared hole
    partition apart.
    """
    if d.hole_kind != HOLE_NONE:
        raise MalformedInput("per-group relabeling needs a hole-free design")
    perms = np.asarray(perms, dtype=np.int64)
    if perms.shape != (d.k, d.group_size):
        raise MalformedInput("need one full permutation per group")
    blocks = np.empty_like(d.blocks)
    for i in range(d.k):
        blocks[:, i] = perms[i][d.blocks[:, i]]
    return BlockDesign.new(k=d.k, group_size=d.group_size, index=d.index,
                           blocks=blocks)
