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

# full addition tables are only built for odd characteristic; this caps
# their memory at q*q entries of uint16
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
    """Split q into (p, e) with p prime, or raise NonPrimeCharacteristic."""
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
    if m != 1 or not _is_prime(p):
        raise NonPrimeCharacteristic(f"{q} is not a prime power")
    return p, e


def _prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, ascending."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


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
    """Trial division by every monic polynomial of degree up to deg(m)/2."""
    e = len(m) - 1
    if e < 1:
        return False
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
    raise AssertionError("no irreducible polynomial found, unreachable")


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

    # -- representation helpers -------------------------------------------

    def digits(self, code: int) -> list[int]:
        """Polynomial coefficients of an element code, low degree first."""
        p = self.p
        return [(code // p**i) % p for i in range(self.e)]

    def _encode(self, digits) -> int:
        c = 0
        for d in reversed(digits):
            c = c * self.p + d % self.p
        return c

    def _mul_raw(self, a, b):
        # table-free product, only used while bootstrapping exp/log
        da, db = self.digits(a), self.digits(b)
        prod = [0] * (2 * self.e - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] += x * y
        return self._encode(_poly_mod(prod, self.modulus, self.p))

    def _pow_raw(self, a, n):
        r = 1
        while n:
            if n & 1:
                r = self._mul_raw(r, a)
            a = self._mul_raw(a, a)
            n >>= 1
        return r

    def _build_tables(self):
        q = self.q
        factors = _prime_factors(q - 1)
        gen = None
        for g in range(1, q):
            if all(self._pow_raw(g, (q - 1) // f) != 1 for f in factors):
                gen = g
                break
        if gen is None:
            raise InvariantViolation(f"no primitive element found in F_{q}")
        self.primitive_element = gen
        exp = [1]
        for _ in range(q - 2):
            exp.append(self._mul_raw(exp[-1], gen))
        log = [-1] * q
        for i, v in enumerate(exp):
            log[v] = i
        if min(log[1:]) < 0:
            raise InvariantViolation("generator failed to cover units")
        self.exp_table = exp
        self.log_table = log
        self._exp2 = exp + exp

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
        """Elementwise field addition of two code arrays."""
        if self.p == 2:
            return np.bitwise_xor(a, b)
        # one gather from the flat table at a*q + b, broadcast like a + b
        return self.add_table().ravel().take(np.multiply(a, self.q, dtype=np.intp) + b)

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


def make_field(p: int, e: int = 1, modulus=None) -> FieldSpec:
    """Construct GF(p^e), optionally with an explicit modulus polynomial.

    The modulus is given low degree first, length e+1.  When omitted, the
    lexicographically first irreducible monic polynomial is used, so field
    construction is deterministic.
    """
    if not _is_prime(p):
        raise NonPrimeCharacteristic(f"characteristic {p} is not prime")
    if e < 1:
        raise DegreeMismatch(f"extension degree must be at least 1, got {e}")
    q = p**e
    if q > MAX_Q:
        raise TooLarge(f"field order {q} exceeds the supported maximum {MAX_Q}")
    if modulus is None:
        mod = _default_modulus(p, e)
    else:
        mod = [int(c) % p for c in modulus]
        if len(mod) != e + 1 or mod[-1] == 0:
            raise DegreeMismatch(
                f"modulus must have degree {e} for GF({q}), got {list(modulus)}"
            )
        if mod[-1] != 1:
            # scale to monic; the quotient ring does not change
            s = pow(mod[-1], p - 2, p)
            mod = [c * s % p for c in mod]
        if not _poly_is_irreducible(mod, p):
            raise ReducibleModulus(f"{list(modulus)} is reducible over GF({p})")
        mod = tuple(mod)
    return FieldSpec(p, e, mod)


def field_from_order(q: int, modulus=None) -> FieldSpec:
    """Construct GF(q) from its order, factoring q = p^e."""
    if q > MAX_Q:
        raise TooLarge(f"field order {q} exceeds the supported maximum {MAX_Q}")
    p, e = _prime_power(q)
    return make_field(p, e, modulus)
