import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmols import gf
from hmols.errors import MalformedInput


def brute_force_irreducible_quadratics_gf2():
    """Oracle: enumerate monic quadratics over GF(2), keep those with no root
    and no factorization into linear terms (degree 2: no root == irreducible)."""
    out = []
    for c0, c1 in itertools.product(range(2), repeat=2):
        # x^2 + c1 x + c0, evaluated at 0 and 1 mod 2
        if (c0) % 2 != 0 and (1 + c1 + c0) % 2 != 0:
            out.append((c0, c1, 1))
    return out


def brute_force_order(q, x):
    """Oracle: multiplicative order of x modulo q (prime q only)."""
    t, v = 1, x % q
    while v != 1:
        v = (v * x) % q
        t += 1
    return t


def reference_mul(f, a, b):
    """The digit-loop product the field used before its tables: schoolbook
    multiplication of the base-p coefficient vectors, then reduction by
    the monic modulus."""
    p, e = f.p, f.e
    if e == 1:
        return a * b % p
    da = [a // p**i % p for i in range(e)]
    db = [b // p**i % p for i in range(e)]
    prod = [0] * (2 * e - 1)
    for i, x in enumerate(da):
        if x:
            for j, y in enumerate(db):
                prod[i + j] = (prod[i + j] + x * y) % p
    for i in range(2 * e - 2, e - 1, -1):
        c = prod[i]
        if c:
            for j in range(e + 1):
                prod[i - e + j] = (prod[i - e + j] - c * f.modulus[j]) % p
    return sum(d * p**i for i, d in enumerate(prod[:e]))


def reference_pow(f, a, n):
    """Square and multiply over reference_mul; negative n inverts first."""
    if n < 0:
        return reference_pow(f, reference_pow(f, a, f.q - 2), -n)
    out, base = 1, a
    while n:
        if n & 1:
            out = reference_mul(f, out, base)
        base = reference_mul(f, base, base)
        n >>= 1
    return out


def reference_order(f, x):
    t, v = 1, x
    while v != 1:
        v = reference_mul(f, v, x)
        t += 1
    return t


EXTENSION_FIELDS_TO_256 = [4, 8, 9, 16, 25, 27, 32, 49, 64, 81, 121, 125,
                           128, 169, 243, 256]


def test_field_new_prime():
    f = gf.field_new(7)
    assert (f.q, f.p, f.e) == (7, 7, 1)
    assert f.modulus == ()


def test_field_new_gf4_modulus_is_unique_irreducible():
    quads = brute_force_irreducible_quadratics_gf2()
    assert quads == [(1, 1, 1)]  # x^2 + x + 1 is the only one
    f = gf.field_new(4)
    assert (f.p, f.e) == (2, 2)
    assert f.modulus == (1, 1, 1)


def test_field_new_rejects_non_prime_powers():
    for q in (1, 6, 12, 100):
        with pytest.raises(MalformedInput, match=f"^{q} is not a prime power$"):
            gf.field_new(q)


@pytest.mark.parametrize("q", [2**31, 10**30 + 57])
def test_field_new_rejects_orders_beyond_int32_before_factoring(q):
    # elements are int32 indices; trial division of 10**30 + 57 would not end
    with pytest.raises(MalformedInput, match=f"^field order {q} is not below 2\\^31$"):
        gf.field_new(q)


def test_field_new_accepts_the_largest_int32_prime():
    assert gf.field_new(2**31 - 1).p == 2**31 - 1


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 13, 16, 25, 27, 49, 64])
def test_field_axioms_exhaustive(q):
    """Every field law over all elements (all triples for the three-term
    laws), read through the operations on index arrays."""
    f = gf.field_new(q)
    a, b, c = np.ix_(np.arange(q), np.arange(q), np.arange(q))
    x = np.arange(q)
    zero, one = np.zeros(q, dtype=np.int64), np.ones(q, dtype=np.int64)
    # identities and inverses; the inverse of every nonzero x is unique
    assert np.array_equal(f.add(x, zero), x)
    assert np.array_equal(f.mul(x, one), x)
    assert np.array_equal(f.add(x, f.sub(zero, x)), zero)
    assert np.array_equal(f.add(f.sub(x[:, None], x), x), np.tile(x[:, None], q))
    units = f.mul(x[1:, None], x[1:]) == 1
    assert np.array_equal(units.sum(axis=1), one[1:])
    inverses = [f.inv(int(y)) for y in x[1:]]
    assert np.array_equal(f.mul(x[1:], np.array(inverses)), one[1:])
    assert np.array_equal(f.mul(x, zero), zero)
    # commutativity
    add, mul = f.add(x[:, None], x), f.mul(x[:, None], x)
    assert np.array_equal(add, add.T) and np.array_equal(mul, mul.T)
    # associativity and distributivity on every triple
    assert np.array_equal(f.add(a, f.add(b, c)), f.add(f.add(a, b), c))
    assert np.array_equal(f.mul(a, f.mul(b, c)), f.mul(f.mul(a, b), c))
    assert np.array_equal(f.mul(a, f.add(b, c)),
                          f.add(f.mul(a, b), f.mul(a, c)))


def test_vectorized_tables_match_scalar():
    for q in (5, 4, 9):
        f = gf.field_new(q)
        a = np.arange(q).repeat(q).reshape(q, q)
        b = np.arange(q).reshape(1, q).repeat(q, axis=0)
        add = f.add(a, b)
        sub = f.sub(a, b)
        for x in range(q):
            for y in range(q):
                assert add[x, y] == f.add(x, y)
                assert sub[x, y] == f.sub(x, y)


@pytest.mark.parametrize("q", [16, 27])
def test_scalar_mul_matches_mul_arr(q):
    f = gf.field_new(q)
    a, b = np.divmod(np.arange(q * q), q)  # every pair, zeros included
    assert [f.mul(x, y) for x, y in zip(a.tolist(), b.tolist())] == \
        f.mul(a, b).tolist()


FIELDS_TO_256 = [q for q in range(2, 257) if len(gf.factorize(q)) == 1]


@settings(max_examples=150, deadline=None)
@given(q=st.sampled_from(FIELDS_TO_256), dtype=st.sampled_from([np.int32, np.int64]),
       data=st.data())
def test_index_array_operations_match_per_element_calls(q, dtype, data):
    """add, sub and mul broadcast over index arrays, and each entry equals
    the same method called on the two Python ints; a scalar call gives a
    hashable integer, not a 0-d array."""
    f = gf.field_new(q)
    elements = st.lists(st.integers(0, q - 1), min_size=1, max_size=8)
    a = np.array(data.draw(elements), dtype=dtype)
    b = np.array(data.draw(elements), dtype=dtype)
    y = data.draw(st.integers(0, q - 1))
    for op in (f.add, f.sub, f.mul):
        per_element = [[op(s, t) for t in b.tolist()] for s in a.tolist()]
        assert all(isinstance(v, (int, np.integer)) for row in per_element for v in row)
        assert op(a[:, None], b[None, :]).tolist() == per_element
        assert op(a, y).tolist() == [op(s, y) for s in a.tolist()]
        assert op(y, b).tolist() == [op(y, t) for t in b.tolist()]


def test_scalar_mul_builds_no_product_table():
    # a fresh GF(4096), so no other test's cached tables count; a product
    # table would hold q^2 = 16.8M entries of at least one byte each
    f0 = gf.field_new(4096)
    f = gf.FieldSpec(f0.q, f0.p, f0.e, f0.modulus)
    x = np.arange(4096)
    tracemalloc.start()
    try:
        assert f.mul(2, 3) == 6  # X * (X + 1) = X^2 + X
        assert f.mul(0, 5) == f.mul(5, 0) == 0 and f.mul(1, 4095) == 4095
        assert all(f.mul(a, f.inv(a)) == 1 for a in range(1, 4096, 97))
        assert f.mul(x, 1).tolist() == x.tolist() and not f.mul(x, 0).any()
        assert (f.mul(x[1:], x[:0:-1]) != 0).all()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < f.q ** 2
    assert all(np.size(v) < f.q ** 2 for v in vars(f).values())


def test_primitive_root_small():
    assert gf.primitive_root(gf.field_new(3)) == 2
    f7 = gf.field_new(7)
    w = gf.primitive_root(f7)
    assert brute_force_order(7, 2) < 6 and brute_force_order(7, 3) == 6
    assert w == 3
    with pytest.raises(MalformedInput):
        gf.primitive_root(gf.field_new(2))


def test_primitive_root_401():
    f = gf.field_new(401)
    w = gf.primitive_root(f)
    # oracle: smallest x whose order is exactly 400
    smallest = next(x for x in range(2, 401) if brute_force_order(401, x) == 400)
    assert w == smallest == 3


def test_primitive_root_powers_never_one_early():
    for q in (9, 16, 27, 53):
        f = gf.field_new(q)
        w = gf.primitive_root(f)
        divisors = [d for d in range(1, q - 1) if (q - 1) % d == 0]
        for d in divisors:
            assert reference_pow(f, w, d) != 1
        assert reference_pow(f, w, q - 1) == 1


@pytest.mark.parametrize("q", EXTENSION_FIELDS_TO_256)
def test_tables_match_digit_loop_reference(q):
    f = gf.field_new(q)
    ref = [[reference_mul(f, a, b) for b in range(q)] for a in range(q)]
    assert f.mul(np.arange(q)[:, None], np.arange(q)).tolist() == ref
    omega = next(x for x in range(2, q) if reference_order(f, x) == q - 1)
    assert gf.primitive_root(f) == omega
    powers = [1]
    while len(powers) < q - 1:
        powers.append(ref[powers[-1]][omega])
    assert f.exp_table.tolist() == powers
    dlog = [-1] * q
    for t, x in enumerate(powers):
        dlog[x] = t
    assert f.dlog_table.tolist() == dlog
    assert [f.inv(a) for a in range(1, q)] == \
        [reference_pow(f, a, q - 2) for a in range(1, q)]
    with pytest.raises(MalformedInput, match="^0 has no inverse"):
        f.inv(0)


# (q, modulus, omega) of every extension field up to 4096; certificates
# and developed designs are written in these coordinates, so a change
# here changes every output over an extension field
CANONICAL_EXTENSION_FIELDS = [
    (4, (1, 1, 1), 2),
    (8, (1, 1, 0, 1), 2),
    (9, (1, 0, 1), 4),
    (16, (1, 1, 0, 0, 1), 2),
    (25, (2, 0, 1), 6),
    (27, (1, 2, 0, 1), 3),
    (32, (1, 0, 1, 0, 0, 1), 2),
    (49, (1, 0, 1), 9),
    (64, (1, 1, 0, 0, 0, 0, 1), 2),
    (81, (2, 1, 0, 0, 1), 3),
    (121, (1, 0, 1), 15),
    (125, (1, 1, 0, 1), 9),
    (128, (1, 1, 0, 0, 0, 0, 0, 1), 2),
    (169, (2, 0, 1), 15),
    (243, (1, 2, 0, 0, 0, 1), 3),
    (256, (1, 1, 0, 1, 1, 0, 0, 0, 1), 3),
    (289, (3, 0, 1), 19),
    (343, (2, 0, 0, 1), 22),
    (361, (1, 0, 1), 22),
    (512, (1, 1, 0, 0, 0, 0, 0, 0, 0, 1), 7),
    (529, (1, 0, 1), 25),
    (625, (2, 0, 0, 0, 1), 6),
    (729, (2, 1, 0, 0, 0, 0, 1), 3),
    (841, (2, 0, 1), 30),
    (961, (1, 0, 1), 35),
    (1024, (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1), 2),
    (1331, (4, 1, 0, 1), 11),
    (1369, (2, 0, 1), 41),
    (1681, (3, 0, 1), 43),
    (1849, (1, 0, 1), 45),
    (2048, (1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1), 2),
    (2187, (2, 0, 1, 0, 0, 0, 0, 1), 5),
    (2197, (2, 0, 0, 1), 15),
    (2209, (1, 0, 1), 49),
    (2401, (1, 1, 0, 0, 1), 12),
    (2809, (2, 0, 1), 54),
    (3125, (1, 4, 0, 0, 0, 1), 10),
    (3481, (1, 0, 1), 62),
    (3721, (2, 0, 1), 63),
    (4096, (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1), 3),
]


def test_canonical_extension_fields_are_pinned():
    extension_orders = [q for q in range(4, 4097)
                        if len(f := gf.factorize(q)) == 1 and f[0][1] > 1]
    assert [q for q, _, _ in CANONICAL_EXTENSION_FIELDS] == extension_orders
    for q, modulus, omega in CANONICAL_EXTENSION_FIELDS:
        f = gf.field_new(q)
        assert (f.modulus, gf.primitive_root(f)) == (modulus, omega), q


def test_prime_field_roots_are_smallest_of_full_order():
    for q in range(3, 4097):
        if gf.factorize(q) != [(q, 1)]:
            continue
        f = gf.field_new(q)
        divisors = [r for r, _ in gf.factorize(q - 1)]
        omega = next(x for x in range(2, q)
                     if all(pow(x, (q - 1) // r, q) != 1 for r in divisors))
        assert gf.primitive_root(f) == omega
        assert np.array_equal(f.exp_table, [pow(omega, t, q) for t in range(q - 1)])


def test_gf2_tables():
    f = gf.field_new(2)
    assert f.exp_table.tolist() == [1] and f.dlog_table.tolist() == [-1, 0]
    assert f.inv(1) == 1
    with pytest.raises(MalformedInput, match="^0 has no inverse"):
        f.inv(0)


def test_cyclotomy_classes_mod7():
    f = gf.field_new(7)
    ctx = gf.cyclotomy_new(f, 2)
    assert ctx.class_table.tolist() == [-1, 0, 0, 1, 0, 1, 1]  # squares mod 7 in C_0
    ctx1 = gf.cyclotomy_new(f, 1)
    assert ctx1.class_table.tolist() == [-1, 0, 0, 0, 0, 0, 0]
    with pytest.raises(MalformedInput, match=r"^q = 7 is not 1 mod 4$"):
        gf.cyclotomy_new(f, 4)


def test_cyclotomy_refuses_a_field_over_the_table_bound_before_any_table():
    f = gf.field_new(2097169)  # the least prime over 2^21 = MAX_TABLE_ORDER
    with pytest.raises(MalformedInput, match="^field order 2097169 is over the table "
                                             "bound 2097152$"):
        gf.cyclotomy_new(f, 2)
    assert vars(f).keys().isdisjoint({"exp_table", "dlog_table", "add_table"})


def test_class_of_examples():
    ctx = gf.cyclotomy_new(gf.field_new(7), 2)
    assert gf.class_of(ctx, 3) == 1  # 3 is a nonsquare mod 7
    assert gf.class_of(ctx, 1) == 0
    with pytest.raises(MalformedInput, match="^zero belongs to no cyclotomic class$"):
        gf.class_of(ctx, 0)
    with pytest.raises(MalformedInput, match=r"^element 9 outside GF\(7\)$"):
        gf.class_of(ctx, 9)


@pytest.mark.parametrize("q,lam", [(7, 2), (7, 3), (13, 4), (9, 2), (16, 5), (25, 8)])
def test_class_multiplicativity_and_sizes(q, lam):
    f = gf.field_new(q)
    ctx = gf.cyclotomy_new(f, lam)
    size = (q - 1) // lam
    seen = set()
    for i in range(lam):
        members = np.flatnonzero(ctx.class_table == i).tolist()
        assert len(members) == size
        assert not seen.intersection(members)
        seen.update(members)
    assert len(seen) == q - 1
    for x in range(1, q):
        for y in range(1, q):
            assert gf.class_of(ctx, f.mul(x, y)) == \
                (gf.class_of(ctx, x) + gf.class_of(ctx, y)) % lam
