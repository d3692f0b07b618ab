"""Arithmetic in GF(p^e) for small q, backed by log/exp tables.

Elements are plain ints: the element with polynomial digits
c0 + c1*u + ... + c_{e-1}*u^{e-1} is stored as sum(c_i * p**i).
This keeps hot loops allocation-free and lets numpy tables index
directly by element code.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import (
    DegreeMismatch,
    DivisionByZero,
    InvariantViolation,
    NonPrimeCharacteristic,
    ReducibleModulus,
    TooLarge,
)

MAX_Q = 1 << 16

# full addition tables are only built for odd q that is not prime (add_np
# XORs in characteristic 2 and adds integers mod p in prime fields); this
# caps their memory at q*q entries of uint16
MAX_ADD_TABLE_Q = 4096


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _prime_power(q: int) -> tuple[int, int]:
    """Split q = p^e, p its least divisor above 1 and so prime, or raise NonPrimeCharacteristic."""
    if q < 2:
        raise NonPrimeCharacteristic(f"field order must be at least 2, got {q}")
    p = 2
    while p * p <= q and q % p:
        p += 1
    if q % p:
        p = q
    e, m = 0, q
    while m % p == 0:
        m //= p
        e += 1
    if m != 1:
        raise NonPrimeCharacteristic(f"{q} is not a prime power")
    return p, e


def _poly_mod(a, m, p):
    """Remainder of a modulo monic m over F_p (coefficient lists, low first)."""
    a = [x % p for x in a]
    dm = len(m) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i]
        if c:
            for j in range(dm + 1):
                a[i - dm + j] = (a[i - dm + j] - c * m[j]) % p
    return a[:dm]


def _poly_is_irreducible(m, p):
    """Trial division of m, of degree 1 or more, by every monic polynomial up to deg(m)/2."""
    e = len(m) - 1
    if e == 1:
        return True
    if m[0] == 0:
        return False
    for d in range(1, e // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            div = list(tail) + [1]
            if not any(_poly_mod(m, div, p)):
                return False
    return True


def _default_modulus(p, e):
    """Lexicographically first irreducible monic (c0, ..., c_{e-1}, 1)."""
    if e == 1:
        return (0, 1)
    for tail in itertools.product(range(p), repeat=e):
        cand = list(tail) + [1]
        if _poly_is_irreducible(cand, p):
            return tuple(cand)
    raise InvariantViolation(f"no irreducible polynomial of degree {e} over F_{p}")


class FieldSpec:
    """GF(p^e) with a fixed modulus and primitive element.

    Field elements are integer codes in [0, q).  self.primitive_element
    has every nonzero element as a power, and self.exp_table /
    self.log_table translate between codes and discrete logs.
    """

    def __init__(self, p: int, e: int, modulus: tuple[int, ...]):
        self.p = p
        self.e = e
        self.q = p**e
        self.modulus = modulus
        self._build_tables()
        self.dtype = np.uint8 if self.q <= 256 else np.uint16
        # doubled so exp2[la + lb] never needs a reduction mod q-1
        self.exp_np = np.array(self.exp_table + self.exp_table, dtype=self.dtype)
        self.log_np = np.array(self.log_table, dtype=np.int64)
        self._add_table = None
        # prime fields add in a dtype that holds 2(p-1)
        wide = e == 1 and 2 * (p - 1) > np.iinfo(self.dtype).max
        self._sum_dtype = np.uint32 if wide else self.dtype

    # -- tables --------------------------------------------------------------

    def _build_tables(self):
        """Least primitive element g, exp_table[i] = g^i and log_table.

        Multiplying by g is F_p-linear on digit vectors, so the products
        g*u^i of g with the basis powers of u give c -> g*c for every
        code c at once: add d_i * g*u^i digit-wise over the digits d_i of
        c.  g*u^(i+1) is g*u^i shifted up one digit, with the carried top
        digit t replaced by -t times the low coefficients of the monic
        modulus.  exp is the orbit of 1 under this map, read off by
        lookups that double its length; g is primitive exactly when the
        orbit returns to 1 first after q-1 steps.
        """
        q, p, e = self.q, self.p, self.e
        low = self.modulus[:e]
        powers = p ** np.arange(e, dtype=np.int64)
        # narrowest dtype holding a digit plus a digit product
        digit = np.min_scalar_type(p * (p - 1))
        scalars = np.arange(p, dtype=digit)[:, None, None]
        # 1 generates the units only in F_2
        for g in range(min(2, q - 1), q):
            rows = [[g // p**i % p for i in range(e)]]
            for _ in range(e - 1):
                top = rows[-1][-1]
                rows.append([(d - top * m) % p for d, m in zip([0] + rows[-1][:-1], low)])
            # digits of g*c for c = 0 .. p^(i+1) - 1, one digit more per pass
            prod = np.zeros((1, e), dtype=digit)
            for row in np.array(rows, dtype=digit):
                prod = (prod[None] + scalars * row).reshape(-1, e) % p
            # step[c] = g^len(exp) * c
            exp, step = np.ones(1, dtype=np.int64), prod @ powers
            while len(exp) < q - 1:
                exp = np.concatenate((exp, step[exp]))
                step = step[step]
            exp = exp[: q - 1]
            if not (exp[1:] == 1).any():
                break
        else:
            raise InvariantViolation(f"no primitive element found in F_{q}")
        self.primitive_element = g
        log = np.full(q, -1, dtype=np.int64)
        log[exp] = np.arange(q - 1)
        if (log[1:] < 0).any():
            raise InvariantViolation("generator failed to cover units")
        self.exp_table = exp.tolist()
        self.log_table = log.tolist()
        self._exp2 = self.exp_table + self.exp_table

    # -- scalar arithmetic -------------------------------------------------

    def add(self, a: int, b: int) -> int:
        """Sum of two element codes."""
        if self.p == 2:
            return a ^ b
        if self.e == 1:
            return (a + b) % self.p
        p, out, mult = self.p, 0, 1
        while a or b:
            out += ((a % p) + (b % p)) % p * mult
            a //= p
            b //= p
            mult *= p
        return out

    def neg(self, a: int) -> int:
        """Additive inverse."""
        if self.p == 2:
            return a
        p, out, mult = self.p, 0, 1
        while a:
            d = a % p
            if d:
                out += (p - d) * mult
            a //= p
            mult *= p
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp2[self.log_table[a] + self.log_table[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("inverse of zero")
        return self._exp2[self.q - 1 - self.log_table[a]]

    def div(self, a: int, b: int) -> int:
        if b == 0:
            raise DivisionByZero("division by zero")
        if a == 0:
            return 0
        return self._exp2[self.log_table[a] + self.q - 1 - self.log_table[b]]

    def pow(self, a: int, n: int) -> int:
        if a == 0:
            if n > 0:
                return 0
            if n == 0:
                return 1
            raise DivisionByZero("negative power of zero")
        return self.exp_table[(self.log_table[a] * n) % (self.q - 1)]

    # -- bulk helpers --------------------------------------------------------

    def add_table(self) -> np.ndarray:
        """Full (q, q) addition table; odd characteristic only."""
        if self._add_table is None:
            if self.q > MAX_ADD_TABLE_Q:
                raise TooLarge(
                    f"addition table needs q <= {MAX_ADD_TABLE_Q}, got {self.q}"
                )
            q, p = self.q, self.p
            codes = np.arange(q, dtype=np.int64)
            table = np.zeros((q, q), dtype=np.int64)
            mult, tmp = 1, codes.copy()
            for _ in range(self.e):
                d = tmp % p
                table += (d[:, None] + d[None, :]) % p * mult
                tmp //= p
                mult *= p
            self._add_table = table.astype(self.dtype)
        return self._add_table

    def add_np(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise field addition of two code arrays, broadcast like a + b.

        Characteristic 2 adds by XOR.  A prime field adds the codes as
        integers, s = a + b in a dtype that holds 2(p-1), and returns
        min(s, s - p) in the field's dtype: unsigned s - p wraps above
        every code when s < p.  Any other field gathers from the flat
        (q, q) addition table at a*q + b, an index built in uint16 while
        q*q fits it; numpy adds b into the product's buffer, a temporary,
        where the shapes allow.
        """
        if self.p == 2:
            return np.bitwise_xor(a, b)
        if self.e == 1:
            s = np.add(a, b, dtype=self._sum_dtype)
            np.minimum(s, s - self.p, out=s)
            return s.astype(self.dtype, copy=False)
        index = np.multiply(a, self.q, dtype=np.uint16 if self.q <= 256 else np.intp) + b
        return self.add_table().ravel().take(index)

    def scale_np(self, a: np.ndarray, s: int) -> np.ndarray:
        """Elementwise product of a code array with one scalar."""
        if s == 0:
            return np.zeros_like(a)
        if s == 1:
            return a.copy()
        ls = self.log_table[s]
        idx = self.log_np[a.astype(np.int64)] + ls
        out = self.exp_np[np.maximum(idx, 0)]
        out[a == 0] = 0
        return out

    def __repr__(self):
        return f"FieldSpec(q={self.q}, p={self.p}, e={self.e}, modulus={list(self.modulus)})"


# one FieldSpec per (p, e, monic modulus), and per (p, e, None) for the default
_FIELDS: dict = {}


def make_field(p: int, e: int = 1, modulus=None) -> FieldSpec:
    """GF(p^e), optionally with an explicit modulus polynomial.

    The modulus is given low degree first, length e+1.  When omitted, the
    lexicographically first irreducible monic polynomial is used, so field
    construction is deterministic.  Fields are immutable once built, and
    every call with the same p, e and monic modulus returns the same
    FieldSpec.
    """
    if not _is_prime(p):
        raise NonPrimeCharacteristic(f"characteristic {p} is not prime")
    if e < 1:
        raise DegreeMismatch(f"extension degree must be at least 1, got {e}")
    q = p**e
    if q > MAX_Q:
        raise TooLarge(f"field order {q} exceeds the supported maximum {MAX_Q}")
    if modulus is None:
        if (p, e, None) not in _FIELDS:
            _FIELDS[p, e, None] = make_field(p, e, _default_modulus(p, e))
        return _FIELDS[p, e, None]
    mod = [int(c) % p for c in modulus]
    if len(mod) != e + 1 or mod[-1] == 0:
        raise DegreeMismatch(f"modulus must have degree {e} for GF({q}), got {list(modulus)}")
    # scale to monic; the quotient ring does not change
    s = pow(mod[-1], p - 2, p)
    mod = tuple(c * s % p for c in mod)
    if (p, e, mod) not in _FIELDS:
        if not _poly_is_irreducible(mod, p):
            raise ReducibleModulus(f"{list(modulus)} is reducible over GF({p})")
        _FIELDS[p, e, mod] = FieldSpec(p, e, mod)
    return _FIELDS[p, e, mod]


def field_from_order(q: int, modulus=None) -> FieldSpec:
    """GF(q) from its order, factoring q = p^e; shared like make_field's."""
    if q > MAX_Q:
        raise TooLarge(f"field order {q} exceeds the supported maximum {MAX_Q}")
    p, e = _prime_power(q)
    return make_field(p, e, modulus)
