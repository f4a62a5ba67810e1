"""Template matrices, higher-index TD projection, allowed-coset tables,
difference-vector search over GF(q), relative difference families, and
the general expansion of an indexed TD into a holey TD.

The reduced search works over the rows of the dot-product template of
GF(h)^d, grouped into h blocks of lam = h^(d-1) consecutive rows; block
i reuses one free vector scaled by successive powers of the primitive
root.  A candidate passes when, for every column pair, the difference
quotients across row blocks avoid the cyclotomic classes excluded by
equal template differences.  The search places the vectors column by
column, so a quotient is checked as soon as its second column stands,
and one primitive gives a position's candidates from the placed entries
by reading two per-field tables of the cyclotomic context: the class of
a quotient of classes, and the class of y - x at every x as a row.  One
boolean table, built per template column difference, holds the allowed
classes for every reader.  Certificates record (h, d, q, omega,
columns, vectors, seed) and are never trusted without re-running the
exact difference count; identical seeds give identical certificates.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass

import numpy as np

from . import gf
from .designs import (
    HOLE_NONE,
    HOLE_UNIFORM,
    MAX_EXEC_BLOCKS,
    PIECE,
    BlockDesign,
    VerificationReport,
    _count_pairs,
    _report,
    verify_design,
)
from .errors import Exhausted, MalformedInput

TEMPLATE_ROWS = 4096  # the largest template built
MATCH_WORK = 1 << 26  # the largest size * lam^2 match_columns scans
DEFAULT_BUDGET = 200_000


# ---------------------------------------------------------------------------
# template matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TemplateMatrix:
    """The h^d x h^d table of dot products u.v over GF(h), rows and columns
    both in lexicographic order of the vectors of GF(h)^d."""

    h: int
    d: int
    field: gf.FieldSpec
    entries: np.ndarray  # (h^d, h^d) element indices

    @property
    def lam(self) -> int:
        return self.h ** (self.d - 1)

    @property
    def size(self) -> int:
        return self.h ** self.d


@functools.lru_cache(maxsize=8)
def template(h: int, d: int) -> TemplateMatrix:
    """entries[u][v] = u.v over GF(h) for all h^d lex-ordered vectors."""
    f = gf.field_new(h)  # refuses an h that is not a prime power
    if d < 1:
        raise MalformedInput("dimension must be positive")
    size = h ** d
    if size > TEMPLATE_ROWS:
        raise MalformedInput(f"template would have {size} rows (bound {TEMPLATE_ROWS})")
    entries = np.zeros((size, size), dtype=np.int32)
    for c in np.array(list(itertools.product(range(h), repeat=d)), dtype=np.int32).T:
        entries = f.add(entries, f.mul(c[:, None], c[None, :]))
    return TemplateMatrix(h=h, d=d, field=f, entries=gf.frozen(entries))


def td_projection(h: int, d: int, k: int, cols=None) -> BlockDesign:
    """TD of index h^(d-1) on k groups of size h: group v gets a + u.v over
    all a in GF(h), u in GF(h)^d, restricted to k template columns (the
    first k in lex order unless a selection is supplied)."""
    t = template(h, d)
    if k > t.size or k < 2:
        raise MalformedInput(f"need 2 <= k <= {t.size}, got {k}")
    if cols is None:
        cols = list(range(k))
    cols = _check_cols(t, cols)
    if k != len(cols):
        raise MalformedInput("column selection does not match k")
    # blocks a + rows for a = 0, 1, ..., h-1 in turn, each group's row written once
    a = np.arange(h)[:, None]
    blocks = gf.frozen_from((t.field.add(a, t.entries[:, c]).reshape(1, -1) for c in cols),
                            np.int32, (k, h * t.size))
    return BlockDesign.new(k=k, group_size=h, index=t.lam, blocks=blocks.T)


# ---------------------------------------------------------------------------
# allowed cosets
# ---------------------------------------------------------------------------

def _upper(n: int) -> np.ndarray:
    """(n, n) booleans: [i, j] says i < j."""
    return np.arange(n)[:, None] < np.arange(n)


def _check_cols(t: TemplateMatrix, cols) -> list[int]:
    cols = [int(c) for c in cols]
    if len(set(cols)) != len(cols) or any(not 0 <= c < t.size for c in cols):
        raise MalformedInput(f"columns {cols} repeat or leave 0..{t.size - 1}")
    return cols


@dataclass(frozen=True)
class AllowedCosetTable:
    """Read-only allowed[i, j, r, s, c]: for row blocks i < j and column
    positions r < s (into col_selection), may (u[i][r] - u[i][s]) /
    (u[j][r] - u[j][s]) lie in class c?  False off i < j, r < s.

    A class c is excluded when some row of block i and some row of block j
    at offsets e, e' have equal (r,s)-difference with e' - e = c mod lam.
    As u.a - u.b = u.(a - b), that difference is template column
    cols[r] - cols[s], so each distinct difference column is scanned once.
    """

    h: int
    d: int
    lam: int
    col_selection: tuple
    allowed: np.ndarray  # (h, h, k, k, lam) booleans


def _column_difference(t: TemplateMatrix, a, b) -> np.ndarray:
    """The column index of vector a - b in GF(h)^d, for column index arrays
    a and b: template column h^(d-1-n) is the unit vector e_n, so it holds
    digit n of every row, and those indices are also the lex weights."""
    unit = t.h ** np.arange(t.d - 1, -1, -1)
    digits = t.field.sub(t.entries[np.asarray(a)[..., None], unit],
                         t.entries[np.asarray(b)[..., None], unit])
    return digits @ unit


def _allowed_by_difference(t: TemplateMatrix, diffs) -> np.ndarray:
    """(len(diffs), h, h, lam) booleans: [n, i, j, c], i < j, says no row e
    of block i and e' of block j with e' - e = c mod lam hold equal entries
    in template column diffs[n].  Row i*lam + e is the vector (i, w), so
    its entry is x_i + y_e, x_i and y_e the entries of rows i*lam and e:
    rows agree when y_e' - y_e = x_i - x_j, a scan of block 0 alone.  The
    columns are scanned together, about PIECE (e, e') pairs at a time."""
    h, lam = t.h, t.lam
    e = np.arange(lam)
    later = np.add.outer(e, e) % lam  # [e, c] = e'
    diffs = np.asarray(diffs, dtype=np.intp)
    out = np.empty((len(diffs), h, h, lam), dtype=bool)
    step = max(1, PIECE // lam ** 2)
    for at in range(0, len(diffs), step):
        col = t.entries[:, diffs[at:at + step]].T  # [n, row]
        n = np.arange(len(col))[:, None, None]
        seen = np.zeros((len(col), h, lam), dtype=bool)  # [n, y_e' - y_e, e' - e]
        seen[n, t.field.sub(col[:, later], col[:, :lam, None]), e] = True
        out[at:at + step] = ~seen[n, t.field.sub(col[:, ::lam, None], col[:, None, ::lam])]
    return out & _upper(h)[..., None]


def allowed_cosets(t: TemplateMatrix, cols) -> AllowedCosetTable:
    """Scan each distinct difference column of the selection once and
    gather the scans at every column pair r < s."""
    cols = _check_cols(t, cols)
    if len(cols) < 2:
        raise MalformedInput("need at least two columns")
    r, s = np.nonzero(_upper(len(cols)))
    diffs, at = np.unique(_column_difference(t, np.take(cols, r), np.take(cols, s)),
                          return_inverse=True)
    allowed = np.zeros((t.h, t.h, len(cols), len(cols), t.lam), dtype=bool)
    allowed[:, :, r, s] = np.moveaxis(_allowed_by_difference(t, diffs)[at], 0, 2)
    return AllowedCosetTable(h=t.h, d=t.d, lam=t.lam,
                             col_selection=tuple(cols), allowed=gf.frozen(allowed))


# ---------------------------------------------------------------------------
# u-vector solutions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UVectorSolution:
    """h free vectors in GF(q)^k whose scaled copies, paired with the
    template rows, develop into a relative difference family."""

    h: int
    d: int
    q: int
    col_selection: tuple
    u: tuple      # h tuples of k field elements
    omega: int
    seed: int | None = None

    def to_cert(self) -> dict:
        return {"h": self.h, "d": self.d, "q": self.q, "omega": self.omega,
                "col_selection": list(self.col_selection),
                "u_vectors": [list(v) for v in self.u], "seed": self.seed}


def _difference_classes(ctx: gf.CyclotomyContext, v: np.ndarray) -> np.ndarray:
    """[..., r, s]: the cyclotomic class of v[..., r] - v[..., s], and -1
    where the two entries are equal.  The class of a quotient of two such
    differences is the difference of their classes mod lam."""
    return ctx.class_table[ctx.field.sub(v[..., :, None], v[..., None, :])]


def _uvector_violations(table: AllowedCosetTable, ctx: gf.CyclotomyContext, u):
    """All broken constraints of a full assignment: repeated entries within
    a vector, then cross-block quotients in a forbidden class, each in
    lexicographic order of its witness."""
    h, k = table.h, len(table.col_selection)
    cls = _difference_classes(ctx, np.array(u, dtype=np.int64).reshape(h, k))
    pairs = _upper(k)
    quotient = ctx.quotient_classes[cls[:, None], cls[None, :]]
    ok = table.allowed[(*np.indices(quotient.shape, sparse=True), quotient)]
    # a zero difference (class -1) is reported as EqualEntries only
    live = (cls[:, None] >= 0) & (cls[None, :] >= 0) & pairs
    forbidden = live & ~ok & _upper(h)[..., None, None]
    return ([("EqualEntries", tuple(w)) for w in np.argwhere((cls < 0) & pairs).tolist()]
            + [("ForbiddenCoset", tuple(w)) for w in np.argwhere(forbidden).tolist()])


def verify_uvectors(h: int, d: int, cols, q: int, u, omega: int | None = None,
                    seed=None) -> UVectorSolution:
    """Validate given vectors against the quotient-coset constraints and
    wrap them as a solution; raises MalformedInput when they fail."""
    t = template(h, d)
    table = allowed_cosets(t, cols)
    fq = gf.field_new(q)
    ctx = gf.cyclotomy_new(fq, t.lam)
    if omega is not None and omega != ctx.omega:
        raise MalformedInput(f"certificate omega {omega} is not the "
                             f"canonical primitive root {ctx.omega}")
    return _checked_solution(table, ctx, u, seed)


def _checked_solution(table: AllowedCosetTable, ctx: gf.CyclotomyContext, u,
                      seed) -> UVectorSolution:
    q, k = ctx.field.q, len(table.col_selection)
    u = tuple(tuple(int(x) for x in vec) for vec in u)
    if len(u) != table.h or any(len(vec) != k for vec in u):
        raise MalformedInput(f"need {table.h} vectors of width {k}")
    if any(not 0 <= x < q for vec in u for x in vec):
        raise MalformedInput("vector entry outside GF(q)")
    bad = _uvector_violations(table, ctx, u)
    if bad:
        raise MalformedInput(f"constraints violated: {bad[:4]}")
    return UVectorSolution(h=table.h, d=table.d, q=q,
                           col_selection=table.col_selection, u=u,
                           omega=ctx.omega, seed=seed)


def _candidates(allowed, ctx: gf.CyclotomyContext, u: np.ndarray, i: int,
                a: int) -> np.ndarray:
    """(q,) booleans: may u[i][a] = x beside the entries placed before it
    column by column?  x must repeat no u[i][r], r < a, and each quotient
    (u[j][r] - u[j][a]) / (u[i][r] - x), j < i, r < a, must lie in an
    allowed class.  The context's tables do the arithmetic: one read of
    quotient_classes gives, per (j, r), the class of the quotient for
    every class u[i][r] - x may take, and one row of difference_classes
    per r gives the class of u[i][r] - x at every x."""
    q, lam = ctx.field.q, ctx.lam
    cls = ctx.class_table[u[:i, :a] - u[:i, a, None]]  # never -1: placed entries differ
    ok = allowed[np.arange(i)[:, None, None], i, np.arange(a)[:, None], a,
                 ctx.quotient_classes[cls]].all(axis=0)  # [r, class of u[i][r] - x]
    # ok read flat: row r's classes from r * lam on
    at = ctx.difference_classes[q - 1 - u[i, :a]] + np.arange(0, a * lam, lam)[:, None]
    fits = ok.ravel()[at].all(axis=0)
    fits[u[i, :a]] = False  # x = u[i][r] has class -1: it read another row's last class
    return fits


class _RestartAbandoned(Exception):
    pass


def search_uvectors(h: int, d: int, cols, q: int, seed: int = 0,
                    budget: int = DEFAULT_BUDGET,
                    restart_nodes: int = 8192) -> UVectorSolution:
    """Seeded randomized search for the h free vectors.

    Entries are placed column by column: u[0][a], ..., u[h-1][a], then
    column a + 1.  u[i][0] = 0 and u[0][1] = 1 are pinned, with no draw or
    charge: translating one vector, or scaling all by one c != 0, keeps
    every quotient of differences.  A position tries its `_candidates` in
    an order of all q values drawn from a PCG64 stream seeded with seed
    (stable across NumPy versions); each value up to the one taken is an
    evaluation, and an exhausted order counts in full.  A position without
    candidates is dead at no draw or charge, so a value that leaves the
    next one none is rejected at once.  A restart with fresh orders begins
    every restart_nodes evaluations; the budget caps them all.  Exhausted
    is a retry signal, never a disproof; it counts the evaluations, the
    restarts and the deepest position (most entries placed, pins included).
    """
    if seed < 0:
        raise MalformedInput(f"seed must be non-negative, got {seed}")
    if budget < 0:
        raise MalformedInput(f"budget must be non-negative, got {budget}")
    if restart_nodes < 1:
        # a restart would be abandoned before its first evaluation, forever
        raise MalformedInput(f"restart_nodes must be at least 1, got {restart_nodes}")
    t = template(h, d)
    table = allowed_cosets(t, cols)
    k = len(table.col_selection)
    fq = gf.field_new(q)
    if fq.e != 1:
        raise MalformedInput("the vector search runs over prime fields only")
    ctx = gf.cyclotomy_new(fq, t.lam)
    if k > q:
        raise Exhausted(f"entries must be distinct: k = {k} > q = {q}")
    bits = np.random.PCG64(seed)
    state = {"budget": budget, "nodes": 0, "restarts": -1, "deepest": 0}

    def exhausted(reason):
        return Exhausted(f"{reason}: {budget - state['budget']} evaluations, "
                         f"{state['restarts']} restarts, deepest position "
                         f"{state['deepest']} of {h * k}")

    def spend(n):
        # as n evaluations one by one: each checks the budget, then the
        # restart cap; those made before a restart stay charged
        if n > min(state["budget"], state["nodes"]):
            if state["budget"] <= state["nodes"]:
                state["budget"] = 0
                raise exhausted(f"budget {budget} consumed")
            state["budget"] -= state["nodes"]
            raise _RestartAbandoned
        state["budget"] -= n
        state["nodes"] -= n

    def place(u, p):  # the p entries before u[p % h][p // h] stand
        state["deepest"] = max(state["deepest"], p)
        if p == h * k:
            return True
        fits = _candidates(table.allowed, ctx, u, p % h, p // h)
        if not fits.any():
            return False
        order = np.argsort(bits.random_raw(q), kind="stable")
        last = -1
        for n in np.flatnonzero(fits[order]).tolist():
            spend(n - last)
            last = n
            u[p % h, p // h] = order[n]
            if place(u, p + 1):
                return True
        spend(q - 1 - last)
        return False

    while True:
        u = np.zeros((h, k), dtype=np.int64)
        u[0, 1] = 1
        state.update(nodes=restart_nodes, restarts=state["restarts"] + 1)
        try:
            if not place(u, h + 1):
                # the whole tree was refuted within this restart's node cap;
                # callers treat Exhausted as a retry hint anyway
                raise exhausted(f"search space refuted or budget spent at q = {q}")
        except _RestartAbandoned:
            continue
        sol = _checked_solution(table, ctx, u, seed)
        # double-check by the independent difference count
        if not verify_rdm(assemble_rdf(sol)).valid:
            raise AssertionError("search acceptance disagrees with the "
                                 "difference count; this is a bug")
        return sol


def match_columns(t: TemplateMatrix, u_raw, q: int):
    """Recover an injective assignment of the nonblank vector positions to
    template columns under which the quotient constraints all hold.

    The backtracking is complete and deterministic (columns tried in lex
    order), so Exhausted here is a disproof for this template and field.
    Returns the list of assigned column ranks, ordered like the nonblank
    positions.  The scan of every template column costs size * lam^2;
    it is refused with MalformedInput when that exceeds MATCH_WORK.
    """
    if t.size * t.lam ** 2 > MATCH_WORK:
        raise MalformedInput(f"matching columns of the ({t.h}, {t.d}) template scans "
                             f"{t.size * t.lam ** 2} entries (bound {MATCH_WORK})")
    u_rows = [list(vec) for vec in u_raw]
    if len(u_rows) != t.h or any(len(vec) != t.size for vec in u_rows):
        raise MalformedInput(f"need {t.h} raw vectors of width {t.size}")
    positions = [p for p in range(t.size) if u_rows[0][p] is not None]
    for vec in u_rows:
        if [p for p in range(t.size) if vec[p] is not None] != positions:
            raise MalformedInput("vectors blank at different positions")
    k = len(positions)
    fq = gf.field_new(q)
    ctx = gf.cyclotomy_new(fq, t.lam)
    u_vals = np.array([[int(vec[p]) for p in positions] for vec in u_rows],
                      dtype=np.int64).reshape(t.h, k)
    if ((u_vals < 0) | (u_vals >= q)).any():
        raise MalformedInput("vector entry outside GF(q)")
    cls = _difference_classes(ctx, u_vals)
    if (cls < 0).sum() > t.h * k:  # beyond the diagonal x - x
        raise Exhausted("a vector repeats an entry; no assignment exists")
    # all quotients are well-defined once no vector repeats an entry
    quotient = (cls[:, None] - cls[None, :]) % t.lam
    bi, bj = np.triu_indices(t.h, 1)
    # both the quotient classes and the exclusions are invariant under
    # swapping two columns, so each difference serves both orientations
    table = _allowed_by_difference(t, range(t.size))
    assignment = []

    def extend(a: int) -> bool:
        if a == k:
            return True
        fits = np.ones(t.size, dtype=bool)  # the zero column allows no class
        for b, col in enumerate(assignment):
            diff = _column_difference(t, np.arange(t.size), col)[:, None]
            fits &= table[diff, bi, bj, quotient[bi, bj, b, a]].all(axis=1)
        for col in np.flatnonzero(fits).tolist():
            assignment.append(col)
            if extend(a + 1):
                return True
            assignment.pop()
        return False

    if not extend(0):
        raise Exhausted("no column assignment satisfies the constraints")
    return assignment


# ---------------------------------------------------------------------------
# relative difference families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RelativeDifferenceFamily:
    """Base blocks over G = GF(h) x GF(q) whose pairwise coordinate
    differences cover G minus the subgroup GF(h) x {0} exactly once.

    Group elements are flattened as z*h + alpha so the subgroup is the
    first h indices and its cosets are the h-point intervals.
    """

    h_field: gf.FieldSpec
    q_field: gf.FieldSpec
    k: int
    base_blocks: np.ndarray  # (B, k) flattened G indices

    @property
    def group_order(self) -> int:
        return self.h_field.q * self.q_field.q

    def g_sub(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        h = self.h_field.q
        za, zb = a // h, b // h
        return self.q_field.sub(za, zb) * h + self.h_field.sub(a - za * h, b - zb * h)

    def g_add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        h = self.h_field.q
        za, zb = a // h, b // h
        return self.q_field.add(za, zb) * h + self.h_field.add(a - za * h, b - zb * h)


def assemble_rdf(sol: UVectorSolution) -> RelativeDifferenceFamily:
    """Base blocks t_m paired with omega^e * u_(block of m), developed over
    x in C_0; h*(q-1) blocks of width k."""
    t = template(sol.h, sol.d)
    if len(sol.col_selection) != len(sol.u[0]) or len(sol.u) != sol.h:
        raise MalformedInput("vector widths do not match the columns")
    fq = gf.field_new(sol.q)
    ctx = gf.cyclotomy_new(fq, t.lam)
    if ctx.omega != sol.omega:
        raise MalformedInput("solution omega differs from the canonical root")
    # block (m, x) has entries x * omega^e * u[i][r] paired with t[m, col_r],
    # where m = i*lam + e, rows ordered by m and then by x in C_0
    k = len(sol.col_selection)
    w = fq.exp_table[:t.lam]
    u = np.array(sol.u, dtype=np.int64)
    u_m = fq.mul(w[None, :, None], u[:, None, :]).reshape(t.size, k)
    c0 = np.flatnonzero(ctx.class_table == 0)
    z = fq.mul(c0[None, :, None], u_m[:, None, :])
    t_rows = t.entries[:, list(sol.col_selection)]
    blocks = (z * sol.h + t_rows[:, None, :]).reshape(-1, k)
    return RelativeDifferenceFamily(h_field=t.field, q_field=fq, k=k,
                                    base_blocks=gf.frozen(blocks, np.int32))


def verify_rdm(fam: RelativeDifferenceFamily) -> VerificationReport:
    """Exact count: for every r < s the difference multiset must equal
    G minus the subgroup, each element exactly once."""
    g = fam.group_order
    h = fam.h_field.q
    if fam.q_field.q < 2 or fam.base_blocks.size == 0:
        raise MalformedInput("degenerate family: no differences to cover")
    expected = np.ones(g, dtype=bool)
    expected[:h] = False  # the subgroup GF(h) x {0}
    v = []
    _count_pairs(v, fam.base_blocks.T, expected, keys=lambda x, y, out: fam.g_sub(x, y))
    return _report(v)


def develop_rdf(fam: RelativeDifferenceFamily) -> BlockDesign:
    """Develop the base blocks additively over G: an HTD(k, h^q) whose
    holes are the cosets of the subgroup.  More than MAX_EXEC_BLOCKS
    output blocks are refused before anything is built."""
    g = fam.group_order
    h = fam.h_field.q
    count = g * len(fam.base_blocks)
    if count > MAX_EXEC_BLOCKS:
        raise MalformedInput(f"developing {len(fam.base_blocks)} base blocks over "
                             f"{g} shifts would build {count} blocks, over the cap "
                             f"{MAX_EXEC_BLOCKS}")
    verify_rdm(fam).require("difference family")
    shifts = np.arange(g, dtype=np.int32)
    # table[s, x] = x + s in G, made in int32 and smaller than the output,
    # is taken at every entry x of a base column for each shift s in turn
    # (shift-major) straight into that column's row of the design's buffer
    # (mode "raise" would buffer the row; "wrap" reads x modulo g, as G's
    # arithmetic in verify_rdm does)
    table = fam.g_add(shifts[:, None], shifts[None, :])
    cols = gf.frozen_written(np.int32, (fam.k, count), (
        (1, lambda row, col=col: np.take(table, col, axis=1, out=row.reshape(g, -1),
                                         mode="wrap"))
        for col in fam.base_blocks.T))
    return BlockDesign.new(k=fam.k, group_size=g, index=1, blocks=cols.T,
                           hole_kind=HOLE_UNIFORM, holes=shifts.reshape(-1, h))


# ---------------------------------------------------------------------------
# general expansion of an indexed TD
# ---------------------------------------------------------------------------

def expand_td_to_htd(td: BlockDesign, q: int, seed: int = 0,
                     budget: int = DEFAULT_BUDGET) -> BlockDesign:
    """Expand a TD of index lam and group size h into an HTD(k, h^q).

    Incidence pairs are labeled 0..lam-1 by enumerating, for each cross
    pair of cells, its lam containing blocks in canonical order; each
    block then needs a k-tuple over GF(q) whose pairwise differences lie
    in the labeled cyclotomic classes, found by seeded search with the
    given per-block budget.  The output is verified before return; more
    than MAX_EXEC_BLOCKS output blocks are refused before any field
    table is built.
    """
    if seed < 0:  # random.Random would alias seed and -seed
        raise MalformedInput(f"seed must be non-negative, got {seed}")
    if budget < 0:
        raise MalformedInput(f"budget must be non-negative, got {budget}")
    lam = td.index
    fq = gf.field_new(q)
    if fq.e != 1:
        raise MalformedInput("the expansion search runs over prime fields only")
    count = len(td.blocks) * q * (q - 1) // lam
    if count > MAX_EXEC_BLOCKS:
        raise MalformedInput(f"expanding {len(td.blocks)} blocks over GF({q}) would "
                             f"build {count} blocks, over the cap {MAX_EXEC_BLOCKS}")
    ctx = gf.cyclotomy_new(fq, lam)
    if td.hole_kind != HOLE_NONE:
        raise MalformedInput("expansion starts from a plain TD")
    verify_design(td).require("input TD")
    h, k = td.group_size, td.k
    blocks = td.sorted_blocks()
    labels = _pair_labels(blocks, h, lam)

    rng = random.Random(seed)
    values = list(range(q))
    phis = np.empty((len(blocks), k), dtype=np.int64)
    for b in range(len(blocks)):
        phis[b] = _search_phi(fq, ctx, labels[b], k, q, rng, values, budget)

    c0 = np.flatnonzero(ctx.class_table == 0)
    shifts = np.arange(q, dtype=np.int32)
    # point (b, a, c) of column r = (y + c) * h + block[b, r] over GF(q) with
    # y = a * phi[b, r]: row y of the symmetric table[y, c] = ((y + c) % q) * h
    # (prime q, so plain mod), taken whole into the column's row, plus the point
    table = (shifts[:, None] + shifts) % q * h

    def column(row, r):
        points = row.reshape(len(blocks), -1, q, copy=False)
        np.take(table, c0 * phis[:, r, None] % q, axis=0, out=points, mode="clip")
        points += blocks[:, r, None, None]

    cols = gf.frozen_written(np.int32, (k, count),
                             ((1, functools.partial(column, r=r)) for r in range(k)))
    out = BlockDesign.new(k=k, group_size=h * q, index=1, blocks=cols.T,
                          hole_kind=HOLE_UNIFORM, holes=np.arange(h * q).reshape(q, h))
    out_rep = verify_design(out)
    if not out_rep.valid:
        raise AssertionError(f"expanded design fails verification: "
                             f"{out_rep.violations[:3]}; this is a bug")
    return out


def _pair_labels(blocks: np.ndarray, h: int, lam: int) -> np.ndarray:
    """(B, k, k) labels, [b, i, j] for i < j: block b's rank, in block
    order, among the lam blocks that hold its points in groups i and j.
    The blocks form a verified TD of index lam, so in a stable sort of the
    pair keys every pair's lam blocks are adjacent, from a multiple of lam."""
    k = blocks.shape[1]
    i, j = np.triu_indices(k, 1)
    keys = (np.arange(len(i))[:, None] * h + blocks[:, i].T) * h + blocks[:, j].T
    rank = np.empty(keys.size, dtype=np.int32)
    rank[np.argsort(keys, axis=None, kind="stable")] = np.arange(keys.size) % lam
    labels = np.zeros((len(blocks), k, k), dtype=np.int32)
    labels[:, i, j] = rank.reshape(len(i), -1).T
    return labels


def _search_phi(fq, ctx, label_matrix, k, q, rng, values, budget):
    """One k-tuple over GF(q) with phi_i - phi_j in C_(label[i][j]); the
    first coordinate is pinned to 0 since only differences matter.  Each
    later one shuffles the values and charges each up to the first that
    fits; if none fits, it charges all q and the tuple starts over."""
    budget_left = budget
    while True:
        phi = [0]
        for i in range(1, k):
            rng.shuffle(values)
            cls = ctx.class_table[fq.sub(np.array(phi), np.array(values)[:, None])]
            fits = np.flatnonzero((cls == label_matrix[:i, i]).all(axis=1))
            cost = int(fits[0]) + 1 if fits.size else q
            if cost > budget_left:
                raise Exhausted(f"per-block budget {budget} consumed")
            budget_left -= cost
            if not fits.size:
                break
            phi.append(values[fits[0]])
        else:
            return phi
