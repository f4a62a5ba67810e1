"""Exact arithmetic in small finite fields GF(p^e) with primitive roots
and cyclotomic class tables.

Elements are canonical integer indices 0..q-1: the index encodes the
element's coefficient vector in base p, so index 0 is the zero element
and index 1 is the one element.  Prime fields work directly modulo p.
Extension fields reduce polynomials modulo the lexicographically
smallest monic irreducible polynomial of degree e over GF(p), found by
exhaustive search at construction time, which keeps the representation
deterministic without external tables.

All objects here are immutable after construction and every operation
is pure, so they are safe to share between threads.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (
    IndexNotDividing,
    IndexOutOfRange,
    NotPrimePower,
    ZeroHasNoClass,
    ZeroInverse,
)


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


def _digits(x: int, p: int, e: int) -> tuple[int, ...]:
    """Base-p digits of x, least significant first, padded to length e."""
    out = []
    for _ in range(e):
        out.append(x % p)
        x //= p
    return tuple(out)


def _undigits(ds, p: int) -> int:
    x = 0
    for d in reversed(ds):
        x = x * p + d
    return x


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


def _poly_is_irreducible(m: tuple[int, ...], p: int) -> bool:
    """Exhaustive divisor check: no monic factor of degree 1..deg/2."""
    deg = len(m) - 1
    for d in range(1, deg // 2 + 1):
        for tail in range(p**d):
            div = list(_digits(tail, p, d)) + [1]
            rem = _poly_rem(list(m), tuple(div), p)
            if not any(rem):
                return False
    return True


def _smallest_irreducible(p: int, e: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree e over GF(p).

    Candidates are ordered by the base-p value of their non-leading
    coefficient vector, which coincides with lexicographic order on the
    coefficients written most-significant first.
    """
    for tail in range(p**e):
        cand = _digits(tail, p, e) + (1,)
        if _poly_is_irreducible(cand, p):
            return cand
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

    # -- scalar arithmetic ---------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a + b) % self.p
        da, db = _digits(a, self.p, self.e), _digits(b, self.p, self.e)
        return _undigits([(x + y) % self.p for x, y in zip(da, db)], self.p)

    def sub(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a - b) % self.p
        da, db = _digits(a, self.p, self.e), _digits(b, self.p, self.e)
        return _undigits([(x - y) % self.p for x, y in zip(da, db)], self.p)

    def neg(self, a: int) -> int:
        return self.sub(0, a)

    def mul(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a * b) % self.p
        da, db = _digits(a, self.p, self.e), _digits(b, self.p, self.e)
        prod = [0] * (2 * self.e - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] = (prod[i + j] + x * y) % self.p
        return _undigits(_poly_rem(prod, self.modulus, self.p), self.p)

    def pow(self, a: int, n: int) -> int:
        if n < 0:
            return self.pow(self.inv(a), -n)
        if self.e == 1:
            return pow(a, n, self.p)
        out, base = 1, a
        while n:
            if n & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            n >>= 1
        return out

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroInverse(f"inv(0) undefined in GF({self.q})")
        if self.e == 1:
            return pow(a, self.p - 2, self.p)
        return self.pow(a, self.q - 2)

    def elements(self) -> range:
        return range(self.q)

    # -- vectorized arithmetic on index arrays -------------------------------

    def add_arr(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.e == 1:
            return (a + b) % self.p
        return self.add_table[a, b]

    def sub_arr(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.e == 1:
            return (a - b) % self.p
        return self.sub_table[a, b]

    def mul_arr(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.e == 1:
            return (a * b) % self.p
        return self.mul_table[a, b]

    def _digitwise_table(self, sign: int) -> np.ndarray:
        """Table of a + sign*b, computed digit by digit in base p."""
        x = np.arange(self.q, dtype=np.int32)
        t = np.zeros((self.q, self.q), dtype=np.int32)
        for i in range(self.e):
            d = x // self.p ** i % self.p
            t += (d[:, None] + sign * d[None, :]) % self.p * self.p ** i
        t.setflags(write=False)
        return t

    @functools.cached_property
    def add_table(self) -> np.ndarray:
        return self._digitwise_table(1)

    @functools.cached_property
    def sub_table(self) -> np.ndarray:
        return self._digitwise_table(-1)

    @functools.cached_property
    def dlog_table(self) -> np.ndarray:
        """dlog_table[x] = t with x = omega^t for the canonical primitive
        root omega, and -1 at x = 0."""
        dlog = np.full(self.q, -1, dtype=np.int64)
        x, omega = 1, primitive_root(self)
        for t in range(self.q - 1):
            dlog[x] = t
            x = self.mul(x, omega)
        dlog.setflags(write=False)
        return dlog

    @functools.cached_property
    def mul_table(self) -> np.ndarray:
        """Products by adding discrete logs; read by extension fields only."""
        log = self.dlog_table.astype(np.int32)
        exp = np.argsort(log)[1:].astype(np.int32)  # exp[t] = omega^t
        t = exp[(log[:, None] + log[None, :]) % (self.q - 1)]
        t[0, :] = t[:, 0] = 0
        t.setflags(write=False)
        return t


@functools.lru_cache(maxsize=None)
def field_new(q: int) -> FieldSpec:
    """The canonical field of order q.

    For extension degrees the modulus is the lexicographically smallest
    monic irreducible polynomial, so fields of equal order are identical
    across runs and processes.
    """
    if q < 2:
        raise NotPrimePower(f"{q} is not a prime power")
    factors = factorize(q)
    if len(factors) != 1:
        raise NotPrimePower(f"{q} is not a prime power")
    p, e = factors[0]
    modulus = () if e == 1 else _smallest_irreducible(p, e)
    return FieldSpec(q=q, p=p, e=e, modulus=modulus)


def field_op(f: FieldSpec, which: str, a: int, b: int | None = None) -> int:
    """Dispatch one field operation with full index validation."""
    if not 0 <= a < f.q:
        raise IndexOutOfRange(f"element {a} outside GF({f.q})")
    if which == "inv":
        return f.inv(a)
    if b is None or not 0 <= b < f.q:
        raise IndexOutOfRange(f"element {b} outside GF({f.q})")
    if which == "add":
        return f.add(a, b)
    if which == "sub":
        return f.sub(a, b)
    if which == "mul":
        return f.mul(a, b)
    raise ValueError(f"unknown field operation {which!r}")


def _multiplicative_order_is_full(f: FieldSpec, x: int, prime_divisors) -> bool:
    return all(f.pow(x, (f.q - 1) // r) != 1 for r in prime_divisors)


@functools.lru_cache(maxsize=None)
def primitive_root(f: FieldSpec) -> int:
    """Smallest element (by canonical index) of multiplicative order q-1."""
    if f.q < 3:
        raise ValueError("primitive roots need q >= 3")
    prime_divisors = [p for p, _ in factorize(f.q - 1)]
    for x in range(2, f.q):
        if _multiplicative_order_is_full(f, x, prime_divisors):
            return x
    raise AssertionError(f"no primitive root in GF({f.q})")


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
    dlog_table: np.ndarray

    def class_members(self, i: int) -> list[int]:
        return [int(x) for x in np.nonzero(self.class_table == i % self.lam)[0]]

    def coset_zero(self) -> list[int]:
        """C_0 in ascending element order."""
        return self.class_members(0)

    def omega_pow(self, t: int) -> int:
        return self.field.pow(self.omega, t % (self.field.q - 1))

    def quotient_class(self, a, b):
        """Class of a/b for nonzero a and b, which may be index arrays:
        (dlog a - dlog b) mod lam."""
        return (self.dlog_table[a] - self.dlog_table[b]) % self.lam


@functools.lru_cache(maxsize=None)
def cyclotomy_new(f: FieldSpec, lam: int) -> CyclotomyContext:
    """Full cyclotomic class table of index lam; class_of(omega^t) = t mod lam."""
    if lam < 1 or (f.q - 1) % lam != 0:
        raise IndexNotDividing(f"index {lam} does not divide q-1 = {f.q - 1}")
    dlog = f.dlog_table
    class_table = np.where(dlog < 0, -1, dlog % lam).astype(np.int32)
    class_table.setflags(write=False)
    return CyclotomyContext(field=f, lam=lam, omega=primitive_root(f),
                            class_table=class_table, dlog_table=dlog)


def class_of(ctx: CyclotomyContext, x: int) -> int:
    """The unique i with x in C_i."""
    if not 0 <= x < ctx.field.q:
        raise IndexOutOfRange(f"element {x} outside GF({ctx.field.q})")
    if x == 0:
        raise ZeroHasNoClass("zero belongs to no cyclotomic class")
    return int(ctx.class_table[x])
