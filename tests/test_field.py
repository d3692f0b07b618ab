import random

import numpy as np
import pytest

import toricode.field as field_module
from toricode.errors import (
    DegreeMismatch,
    DivisionByZero,
    NonPrimeCharacteristic,
    ReducibleModulus,
    TooLarge,
)
from toricode.code import SectionPoly, evaluate_section
from toricode.field import _is_prime, _poly_mod, _prime_power, field_from_order, make_field


def _mul_raw(f, a, b):
    """Product of two element codes by polynomial multiplication mod the modulus."""
    p, e = f.p, f.e
    da = [(a // p**i) % p for i in range(e)]
    db = [(b // p**i) % p for i in range(e)]
    prod = [0] * (2 * e - 1)
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            prod[i + j] += x * y
    return sum(d * p**i for i, d in enumerate(_poly_mod(prod, f.modulus, p)))


def _pow_raw(f, a, n):
    r = 1
    while n:
        if n & 1:
            r = _mul_raw(f, r, a)
        a = _mul_raw(f, a, a)
        n >>= 1
    return r


def _tables_by_products(f):
    """(primitive element, exp table, log table) from table-free products.

    The least g with g^((q-1)/r) != 1 for every prime r dividing q-1,
    and its powers by repeated multiplication; the oracle for the
    tables a FieldSpec builds.
    """
    q = f.q
    factors = [r for r in range(2, q) if (q - 1) % r == 0 and _is_prime(r)]
    g = next(g for g in range(1, q) if all(_pow_raw(f, g, (q - 1) // r) != 1 for r in factors))
    exp = [1]
    for _ in range(q - 2):
        exp.append(_mul_raw(f, exp[-1], g))
    log = [-1] * q
    for i, v in enumerate(exp):
        log[v] = i
    return g, exp, log


def _torus_points(f):
    """All (x, y) with x, y nonzero; index i*(q-1) + j holds (g^i, g^j)."""
    units = f.exp_table
    return [(x, y) for x in units for y in units]


def _evaluated_points(f):
    """The torus points in evaluate_section's order, read off x and y."""
    xs = evaluate_section(SectionPoly({(1, 0): 1}), f).tolist()
    ys = evaluate_section(SectionPoly({(0, 1): 1}), f).tolist()
    return list(zip(xs, ys))


def test_gf8_explicit_modulus_generator_and_cube():
    # with modulus 1 + u + u^3 the class of u generates the units,
    # and u^3 = 1 + u, which is element code 3
    f = field_from_order(8, modulus=[1, 1, 0, 1])
    assert f.p == 2 and f.e == 3 and f.q == 8
    assert f.primitive_element == 2
    assert f.pow(2, 3) == 3
    assert f.pow(2, 7) == 1
    assert sorted(f.exp_table) == list(range(1, 8))


def test_gf8_default_modulus_is_lex_first_irreducible():
    f = field_from_order(8)
    assert f.modulus == (1, 0, 1, 1)


def test_gf4_default_modulus_and_exp():
    f = field_from_order(4)
    assert f.modulus == (1, 1, 1)
    assert f.primitive_element == 2
    assert f.exp_table == [1, 2, 3]


def test_prime_field_tables():
    f = field_from_order(5)
    assert f.modulus == (0, 1)
    assert f.primitive_element == 2
    assert f.exp_table == [1, 2, 4, 3]
    assert f.add(3, 4) == 2
    assert f.mul(3, 4) == 2
    assert f.inv(3) == 2


def test_gf9_explicit_modulus():
    # u^2 + 1 is irreducible over GF(3) but u is not primitive there,
    # the search must move past it
    f = field_from_order(9, modulus=[1, 0, 1])
    assert f.primitive_element == 4  # 1 + u
    assert f.pow(3, 4) == 1  # u has order 4
    assert f.pow(4, 8) == 1
    assert f.pow(4, 4) != 1


def test_gf2_trivial_unit_group():
    f = field_from_order(2)
    assert f.exp_table == [1]
    assert f.primitive_element == 1
    assert _evaluated_points(f) == [(1, 1)]


def test_order_validation():
    with pytest.raises(NonPrimeCharacteristic):
        field_from_order(6)
    with pytest.raises(NonPrimeCharacteristic):
        field_from_order(12)
    with pytest.raises(NonPrimeCharacteristic):
        field_from_order(1)
    with pytest.raises(TooLarge):
        field_from_order(1 << 17)


def test_make_field_takes_characteristic_and_degree():
    f = make_field(2, 3)
    g = field_from_order(8)
    assert f.modulus == g.modulus
    assert f.exp_table == g.exp_table
    assert make_field(5).q == 5
    with pytest.raises(NonPrimeCharacteristic):
        make_field(4, 1)
    with pytest.raises(DegreeMismatch):
        make_field(3, 0)
    with pytest.raises(TooLarge):
        make_field(2, 17)


def test_characteristic_below_two_is_refused():
    assert not _is_prime(0) and not _is_prime(1)
    with pytest.raises(NonPrimeCharacteristic):
        make_field(1, 3)


def test_scale_np_by_zero():
    f = field_from_order(9)
    a = np.arange(9, dtype=f.dtype)
    assert np.array_equal(f.scale_np(a, 0), np.zeros(9, dtype=f.dtype))


def test_field_repr():
    assert repr(field_from_order(8)) == "FieldSpec(q=8, p=2, e=3, modulus=[1, 0, 1, 1])"


def test_modulus_validation():
    with pytest.raises(ReducibleModulus):
        field_from_order(4, modulus=[1, 0, 1])  # (u+1)^2
    with pytest.raises(DegreeMismatch):
        field_from_order(8, modulus=[1, 1, 1])
    with pytest.raises(DegreeMismatch):
        field_from_order(8, modulus=[1, 1, 0, 0])  # leading coefficient vanishes


def test_division_by_zero():
    f = field_from_order(7)
    with pytest.raises(DivisionByZero):
        f.inv(0)
    with pytest.raises(DivisionByZero):
        f.div(3, 0)
    with pytest.raises(DivisionByZero):
        f.pow(0, -2)
    assert f.div(0, 3) == 0
    assert f.pow(0, 0) == 1
    assert f.pow(0, 5) == 0


def test_torus_points_gf3_row_major():
    f = field_from_order(3)
    assert _torus_points(f) == [(1, 1), (1, 2), (2, 1), (2, 2)]
    assert _evaluated_points(f) == _torus_points(f)


def test_torus_points_count():
    for q in (4, 5, 8, 9):
        f = field_from_order(q)
        pts = _torus_points(f)
        assert _evaluated_points(f) == pts
        assert len(pts) == (q - 1) ** 2
        assert len(set(pts)) == len(pts)


FIELD_ORDERS = [2, 3, 4, 5, 7, 8, 9, 16, 25, 27]


def test_field_axioms_randomized():
    rng = random.Random(20260815)
    for q in FIELD_ORDERS:
        f = field_from_order(q)
        for _ in range(60):
            a, b, c = (rng.randrange(q) for _ in range(3))
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
            assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
            assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
            assert f.add(a, f.neg(a)) == 0
            assert f.sub(a, b) == f.add(a, f.neg(b))
            if a:
                assert f.mul(a, f.inv(a)) == 1
                assert f.pow(a, q - 1) == 1
            if b:
                assert f.mul(f.div(a, b), b) == a


def test_mul_matches_raw_polynomial_product():
    rng = random.Random(99)
    for q in (8, 9, 16, 27):
        f = field_from_order(q)
        for _ in range(50):
            a, b = rng.randrange(q), rng.randrange(q)
            assert f.mul(a, b) == _mul_raw(f, a, b)


def _prime_powers(top):
    out = []
    for q in range(2, top + 1):
        try:
            _prime_power(q)
        except NonPrimeCharacteristic:
            continue
        out.append(q)
    return out


@pytest.mark.parametrize("q", _prime_powers(1024) + [4096, 65536])
def test_tables_match_table_free_products(q):
    f = field_from_order(q)
    assert (f.primitive_element, f.exp_table, f.log_table) == _tables_by_products(f)


def test_add_table_matches_scalar():
    for q in (9, 25, 27):
        f = field_from_order(q)
        t = f.add_table()
        for a in range(q):
            for b in range(q):
                assert int(t[a, b]) == f.add(a, b)


PRIMES_TO_256 = [p for p in range(3, 257) if _is_prime(p)]
# 2(p-1) just fits the field dtype at 127 (uint8) and 32749 (uint16); the
# sum needs a wider dtype at 131 and 251 (uint8 fields) and at 32771 and
# 65521 (uint16 fields); 257 is the first prime with a uint16 field
DTYPE_EDGE_PRIMES = [257, 32749, 32771, 65521]


@pytest.mark.parametrize("q", [9, 25, 27, 49, 81, 243] + PRIMES_TO_256 + DTYPE_EDGE_PRIMES)
def test_add_np_matches_2d_gather_on_broadcast_shapes(q):
    # add_np must agree with the scalar sum of both operands, keep the
    # field dtype, and broadcast as a + b does, e.g. (m,1,n) with (1,q,n);
    # the fields that gather must agree with the (q, q) table too
    f = field_from_order(q)
    rng = np.random.default_rng(q)
    shapes = [((7,), (7,)), ((4, 1, 6), (1, 3, 6)), ((5, 1), (1, 4)), ((3, 8), (8,))]
    for sa, sb in shapes:
        a = rng.integers(0, q, sa).astype(f.dtype)
        b = rng.integers(0, q, sb).astype(f.dtype)
        # the largest codes, whose sums come closest to the dtype's top
        a.flat[0], b.flat[0] = q - 1, q - 1
        got = f.add_np(a, b)
        assert got.shape == np.broadcast_shapes(sa, sb) and got.dtype == f.dtype
        want = np.vectorize(f.add)(*np.broadcast_arrays(a.astype(np.int64), b.astype(np.int64)))
        assert np.array_equal(got, want)
        if f.e > 1:
            assert np.array_equal(got, f.add_table()[a.astype(np.int64), b.astype(np.int64)])


def test_prime_add_np_needs_no_addition_table():
    # above MAX_ADD_TABLE_Q the table is refused, and prime fields add without it
    f = field_from_order(65521)
    with pytest.raises(TooLarge):
        f.add_table()
    a = np.arange(65521, dtype=f.dtype)
    assert np.array_equal(f.add_np(a, a[::-1]), np.full(65521, 65520, dtype=f.dtype))
    assert np.array_equal(f.add_np(a, np.full_like(a, 1)), np.roll(a, -1))


def test_add_np_char2_is_xor():
    f = field_from_order(8)
    a = np.array([0, 1, 5, 7], dtype=f.dtype)
    b = np.array([3, 3, 3, 3], dtype=f.dtype)
    assert list(f.add_np(a, b)) == [3, 2, 6, 4]


def test_generator_is_smallest_primitive():
    # every code below the chosen generator must fail to generate
    for q in (7, 9, 13, 16):
        f = field_from_order(q)
        for g in range(1, f.primitive_element):
            order = next(
                k for k in range(1, q) if f.pow(g, k) == 1
            )
            assert order < q - 1


def test_fields_are_shared_per_modulus():
    f = field_from_order(8)
    assert field_from_order(8) is f and make_field(2, 3) is f
    assert make_field(2, 3, modulus=f.modulus) is f
    # the alternative modulus of the reproduce table is another field
    alt = make_field(2, 3, modulus=(1, 1, 0, 1))
    assert alt is not f and alt.modulus == (1, 1, 0, 1)
    assert make_field(2, 3, modulus=[1, 1, 0, 1]) is alt
    assert field_from_order(8, modulus=(1, 1, 0, 1)) is alt
    # a modulus scaled to monic names the same field
    assert make_field(3, 2, modulus=(2, 0, 2)) is make_field(3, 2, modulus=(1, 0, 1))
    assert field_from_order(7) is make_field(7) is not field_from_order(49)


def test_a_modulus_is_proved_irreducible_once_per_field(monkeypatch):
    calls = []
    real = field_module._poly_is_irreducible
    monkeypatch.setattr(
        field_module, "_poly_is_irreducible", lambda m, p: calls.append(m) or real(m, p)
    )
    monkeypatch.setattr(field_module, "_FIELDS", {})
    aes = [1, 1, 0, 1, 1, 0, 0, 0, 1]  # x^8 + x^4 + x^3 + x + 1
    f = field_from_order(256, modulus=aes)
    assert len(calls) == 1
    for _ in range(5):
        assert field_from_order(256, modulus=aes) is f
        assert make_field(2, 8, modulus=tuple(aes)) is f
    assert len(calls) == 1
    # a reducible modulus of a (p, e) already built is still proved and refused
    power = [1, 0, 0, 0, 0, 0, 0, 0, 1]  # (x + 1)^8
    for n in (2, 3):
        with pytest.raises(ReducibleModulus) as exc:
            field_from_order(256, modulus=power)
        assert str(exc.value) == f"{power} is reducible over GF(2)"
        assert len(calls) == n
