"""Exact arithmetic in small finite fields GF(p^e), read from tables,
with primitive roots and cyclotomic class tables.

Elements are canonical integer indices 0..q-1 that encode coefficient
vectors in base p, least significant first: 0 is zero, 1 is one and,
for e > 1, p is the generator X.  Extension fields reduce modulo the
lexicographically smallest monic irreducible of degree e over GF(p),
found by exhaustive search, so no external tables are needed.

The multiplicative group is one table, exp_table[t] = omega^t, where the
canonical primitive root omega is the smallest index of order q - 1: the
first c = 1, 2, ... whose multiplication map x -> x*c (one numpy pass
over the base-p digits of all q elements) moves 1 around all q - 1
nonzero elements.  dlog_table is its inverse permutation.

FieldSpec has one method per operation, and add, sub and mul take
element indices or index arrays alike, broadcast as numpy does.  Prime
fields add, subtract and multiply modulo p directly.  Over GF(p^e),
sums and differences are digitwise base-p q x q tables, while products
and inverses are exp/dlog reads: no q x q product table is built.

All objects here are immutable and every operation is pure, so they
are safe to share between threads: every array that an immutable object
or a cache hands out, in any module, comes from frozen() or frozen_from().
"""

from __future__ import annotations

import functools
import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import MalformedInput


def frozen(a, dtype=None) -> np.ndarray:
    """a as a C-ordered array on a bytes buffer, so that neither it nor any
    view of it can be made writable.  An array that is one already, of the
    dtype asked for and spanning its whole buffer, is returned as it is;
    any other is copied once, cast on the way, by frozen_from, and the
    caller's array stays theirs."""
    a = np.asarray(a)
    dtype = a.dtype if dtype is None else np.dtype(dtype)
    if _is_frozen(a, dtype):
        return a
    return frozen_from([a], dtype, a.shape)


def _is_frozen(a: np.ndarray, dtype: np.dtype) -> bool:
    base = a.base
    while isinstance(base, np.ndarray):
        base = base.base
    return isinstance(base, bytes) and a.dtype == dtype and \
        a.flags.c_contiguous and a.nbytes == len(base)


def frozen_from(pieces, dtype, shape) -> np.ndarray:
    """A frozen array of the given shape whose entries are those of the
    arrays in pieces, in order, each cast to dtype: the pieces are written
    in place into one bytes buffer, so that the result is the only
    full-size copy and a cast makes no temporary array."""
    dtype = np.dtype(dtype)
    # a zeroed bytes object is allocated lazily, and a BytesIO that holds
    # the only reference to it writes into it in place
    buf = io.BytesIO(bytes(math.prod(shape) * dtype.itemsize))
    with buf.getbuffer() as view:
        out, at = np.frombuffer(view, dtype), 0
        for piece in pieces:
            np.copyto(out[at:at + piece.size].reshape(piece.shape), piece,
                      casting="unsafe")
            at += piece.size
        del out  # the view is released only when no array holds it
    if at != math.prod(shape):
        raise AssertionError(f"pieces of {at} entries for shape {shape}")
    # getvalue hands the buffer over without copying it
    return np.frombuffer(buf.getvalue(), dtype).reshape(shape)


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 by trial division, as (prime, exponent) pairs."""
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def _poly_rem(a: list[int], m: tuple[int, ...], p: int) -> list[int]:
    """Remainder of polynomial a modulo monic m, coefficients ascending, over GF(p)."""
    a = list(a)
    dm = len(m) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i] % p
        if c:
            for j in range(dm + 1):
                a[i - dm + j] = (a[i - dm + j] - c * m[j]) % p
    return [c % p for c in a[:dm]]


def _smallest_irreducible(p: int, e: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree e over GF(p):
    candidates go in base-p order of their lower coefficients (lexicographic,
    most significant first), each checked for monic factors of degree <= e/2."""
    def monic(tail: int, deg: int) -> tuple[int, ...]:
        return tuple(tail // p**i % p for i in range(deg)) + (1,)

    for tail in range(p**e):
        m = monic(tail, e)
        if all(any(_poly_rem(m, monic(t, d), p))
               for d in range(1, e // 2 + 1) for t in range(p**d)):
            return m
    raise AssertionError(f"no irreducible of degree {e} over GF({p})")


@dataclass(frozen=True)
class FieldSpec:
    """A finite field of order q = p^e under the canonical index encoding.

    modulus holds the ascending coefficients of the reduction polynomial,
    including the leading 1; it is empty for prime fields.
    """

    q: int
    p: int
    e: int
    modulus: tuple[int, ...]

    # -- arithmetic on element indices or index arrays ----------------------

    def add(self, a, b):
        if self.e == 1:
            return (a + b) % self.p
        return self.add_table[a, b]

    def sub(self, a, b):
        if self.e == 1:
            return (a - b) % self.p
        return self.sub_table[a, b]

    def mul(self, a, b):
        if self.e == 1:
            return (a * b) % self.p
        # dlog_table[0] = -1 reads some unit; the mask turns it back to 0
        log = self.dlog_table
        return self.exp_table[(log[a] + log[b]) % (self.q - 1)] * ((a != 0) & (b != 0))

    def inv(self, a: int) -> int:
        if a == 0:
            raise MalformedInput(f"0 has no inverse in GF({self.q})")
        return int(self.exp_table[-int(self.dlog_table[a]) % (self.q - 1)])

    def _digitwise_table(self, sign: int) -> np.ndarray:
        """Table of a + sign*b, computed digit by digit in base p."""
        x = np.arange(self.q, dtype=np.int32)
        t = np.zeros((self.q, self.q), dtype=np.int32)
        for i in range(self.e):
            d = x // self.p ** i % self.p
            t += (d[:, None] + sign * d[None, :]) % self.p * self.p ** i
        return frozen(t)

    def _times(self, c: int) -> np.ndarray:
        """x * c for every element x: over GF(p^e), the sum of c_i * (x * X^i)
        over the digits c_i of c, where each step to x * X^(i+1) shifts the
        digits up and folds the top one back through the monic modulus."""
        p, e = self.p, self.e
        x = np.arange(self.q, dtype=np.int64)
        if e == 1:
            return x * c % p
        weights = p ** np.arange(e, dtype=np.int64)
        xs = x[:, None] // weights % p  # digits of x * X^i, from i = 0
        m = np.array(self.modulus[:e], dtype=np.int64)
        acc = np.zeros_like(xs)
        for i in range(e):
            acc += c // p**i % p * xs
            top = xs[:, -1:]
            xs = (np.hstack([np.zeros_like(top), xs[:, :-1]]) - top * m) % p
        return acc % p @ weights

    @functools.cached_property
    def add_table(self) -> np.ndarray:
        return self._digitwise_table(1)

    @functools.cached_property
    def sub_table(self) -> np.ndarray:
        return self._digitwise_table(-1)

    @functools.cached_property
    def exp_table(self) -> np.ndarray:
        """exp_table[t] = omega^t for t < q-1: the orbit of 1 under x -> x*c
        for the smallest c whose orbit holds all q-1 units."""
        for c in range(1, self.q):
            step = self._times(c).tolist()
            orbit, x = [1], step[1]
            while x != 1:
                orbit.append(x)
                x = step[x]
            if len(orbit) == self.q - 1:
                return frozen(orbit, np.int32)
        raise AssertionError(f"no primitive root in GF({self.q})")

    @functools.cached_property
    def dlog_table(self) -> np.ndarray:
        """dlog_table[x] = t with x = omega^t, and -1 at x = 0."""
        dlog = np.full(self.q, -1, dtype=np.int64)
        dlog[self.exp_table] = np.arange(self.q - 1)
        return frozen(dlog)


@functools.lru_cache(maxsize=None)
def field_new(q: int) -> FieldSpec:
    """The canonical field of order q, identical across runs and processes.
    Elements are int32 indices, so q must be below 2^31."""
    if q >= 2**31:
        raise MalformedInput(f"field order {q} is not below 2^31")
    factors = factorize(q) if q >= 2 else []
    if len(factors) != 1:
        raise MalformedInput(f"{q} is not a prime power")
    p, e = factors[0]
    modulus = () if e == 1 else _smallest_irreducible(p, e)
    return FieldSpec(q=q, p=p, e=e, modulus=modulus)


def primitive_root(f: FieldSpec) -> int:
    """Smallest element (by canonical index) of multiplicative order q-1."""
    if f.q < 3:
        raise ValueError("primitive roots need q >= 3")
    return int(f.exp_table[1])


@dataclass(frozen=True)
class CyclotomyContext:
    """A field with a fixed primitive root omega and the index-lam coset
    partition of its multiplicative group.

    class_table[x] is the class index of nonzero x (and -1 at x = 0);
    class i is the coset omega^i * <omega^lam>.
    """

    field: FieldSpec
    lam: int
    omega: int
    class_table: np.ndarray


@functools.lru_cache(maxsize=None)
def cyclotomy_new(f: FieldSpec, lam: int) -> CyclotomyContext:
    """Full cyclotomic class table of index lam; class_of(omega^t) = t mod lam."""
    if lam < 1 or (f.q - 1) % lam != 0:
        raise MalformedInput(f"q = {f.q} is not 1 mod {lam}")
    dlog = f.dlog_table
    return CyclotomyContext(field=f, lam=lam, omega=primitive_root(f),
                            class_table=frozen(np.where(dlog < 0, -1, dlog % lam),
                                               np.int32))


def class_of(ctx: CyclotomyContext, x: int) -> int:
    """The unique i with x in C_i."""
    if not 0 <= x < ctx.field.q:
        raise MalformedInput(f"element {x} outside GF({ctx.field.q})")
    if x == 0:
        raise MalformedInput("zero belongs to no cyclotomic class")
    return int(ctx.class_table[x])
