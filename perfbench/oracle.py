"""Reference computations written apart from toricode.

Nothing here imports toricode.  The benchmark checks the program's
outputs against these routines:

- GF(p^e) arithmetic that finds the lexicographically first irreducible
  modulus by Rabin's test (the program uses trial division) and finds
  its own primitive element;
- lattice geometry by brute force: gift-wrapping hulls, point-in-polygon,
  lattice points by scanning the bounding box, Minkowski sums;
- codes built from the oracle field, with a brute-force minimum distance
  and weight distribution for codes small enough to enumerate;
- the MacWilliams transform of a weight distribution;
- closed-form and published distances, each with its source.

`python3 perfbench/oracle.py --recompute` recomputes the published table
by brute force (about half a minute on one core).
"""

from __future__ import annotations

import itertools
import sys

import numpy as np

# -- finite fields ------------------------------------------------------------------


def prime_power(q: int) -> tuple[int, int]:
    """(p, e) with p**e == q, or ValueError."""
    for p in range(2, q + 1):
        if q % p == 0:
            e, m = 0, q
            while m % p == 0:
                m //= p
                e += 1
            if m != 1 or any(p % f == 0 for f in range(2, p)):
                raise ValueError(f"{q} is not a prime power")
            return p, e
    raise ValueError(f"{q} is not a prime power")


def _trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _polymod(a, m, p):
    a = _trim([x % p for x in a])
    dm = len(m) - 1
    inv = pow(m[-1], p - 2, p)
    while len(a) - 1 >= dm:
        c = a[-1] * inv % p
        shift = len(a) - 1 - dm
        for i, mi in enumerate(m):
            a[shift + i] = (a[shift + i] - c * mi) % p
        _trim(a)
    return a


def _polymulmod(a, b, m, p):
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _polymod(out, m, p)


def _polypowmod(a, n, m, p):
    r, a = [1], _polymod(a, m, p)
    while n:
        if n & 1:
            r = _polymulmod(r, a, m, p)
        a = _polymulmod(a, a, m, p)
        n >>= 1
    return r


def _polygcd(a, b, p):
    a, b = _trim([x % p for x in a]), _trim([x % p for x in b])
    while b:
        a, b = b, _polymod(a, b, p)
    return a


def _prime_divisors(n):
    return [f for f in range(2, n + 1) if n % f == 0 and all(f % g for g in range(2, f))]


def is_irreducible(m, p) -> bool:
    """Rabin's test for a monic polynomial m over F_p (coefficients low first)."""
    e = len(m) - 1
    if e < 1 or m[-1] % p != 1:
        return False
    x = [0, 1]
    if _polypowmod(x, p**e, m, p) != _polymod(x, m, p):
        return False
    for r in _prime_divisors(e):
        h = _polypowmod(x, p ** (e // r), m, p)
        diff = h + [0] * (2 - len(h)) if len(h) < 2 else list(h)
        diff[1] -= 1
        if len(_polygcd(m, diff, p)) != 1:
            return False
    return True


def first_irreducible(p: int, e: int) -> tuple[int, ...]:
    """Lexicographically first monic irreducible (c0, ..., c_{e-1}, 1)."""
    for tail in itertools.product(range(p), repeat=e):
        cand = list(tail) + [1]
        if is_irreducible(cand, p):
            return tuple(cand)
    raise ValueError(f"no irreducible polynomial of degree {e} over F_{p}")


class Field:
    """GF(p^e); element codes are sum(c_i p^i) of polynomial digits."""

    def __init__(self, q: int, modulus=None):
        self.q = q
        self.p, self.e = prime_power(q)
        if modulus is None:
            modulus = first_irreducible(self.p, self.e)
        modulus = tuple(int(c) for c in modulus)
        if len(modulus) != self.e + 1 or not is_irreducible(list(modulus), self.p):
            raise ValueError(f"{list(modulus)} is not a monic irreducible of degree {self.e}")
        self.modulus = modulus
        self._build()

    def digits(self, a):
        return [(a // self.p**i) % self.p for i in range(self.e)]

    def encode(self, digits):
        return sum((d % self.p) * self.p**i for i, d in enumerate(digits))

    def mul_slow(self, a, b):
        prod = _polymulmod(self.digits(a), self.digits(b), list(self.modulus), self.p)
        return self.encode(prod)

    def _build(self):
        q = self.q
        for g in range(2 if q > 2 else 1, q):
            powers, x = [1], g
            while x != 1:
                powers.append(x)
                x = self.mul_slow(x, g)
            if len(powers) == q - 1:
                break
        else:
            raise ValueError(f"no primitive element in GF({q})")
        self.exp = np.array(powers + powers, dtype=np.int64)
        self.log = np.full(q, -1, dtype=np.int64)
        self.log[np.array(powers)] = np.arange(q - 1)
        codes = np.arange(q)
        table = np.zeros((q, q), dtype=np.int64)
        for i in range(self.e):
            d = (codes // self.p**i) % self.p
            table += (d[:, None] + d[None, :]) % self.p * self.p**i
        self.add_table = table

    def add(self, a, b):
        return self.add_table[a, b]

    def mul(self, a, b):
        a, b = np.asarray(a), np.asarray(b)
        out = self.exp[np.maximum(self.log[a], 0) + np.maximum(self.log[b], 0)]
        return np.where((a == 0) | (b == 0), 0, out)

    def monomial_row(self, a, b):
        """Values of x^a y^b at every torus point (g^i, g^j)."""
        qm = self.q - 1
        i = np.repeat(np.arange(qm), qm)
        j = np.tile(np.arange(qm), qm)
        return self.exp[(i * a + j * b) % qm]

    def evaluate(self, terms):
        """Values of sum c x^a y^b over the torus, for terms [(a, b, c)]."""
        acc = np.zeros((self.q - 1) ** 2, dtype=np.int64)
        for a, b, c in terms:
            acc = self.add(acc, self.mul(self.monomial_row(a, b), c))
        return acc


# -- lattice geometry -------------------------------------------------------------


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def hull(points):
    """Gift-wrapping hull: counterclockwise strict vertices from the lex-min point."""
    pts = sorted(set((int(x), int(y)) for x, y in points))
    if len(pts) <= 1:
        return pts
    start, out = pts[0], []
    cur = start
    while True:
        out.append(cur)
        cand = next(p for p in pts if p != cur)
        for p in pts:
            if p == cur:
                continue
            c = _cross(cur, cand, p)
            farther = (p[0] - cur[0]) ** 2 + (p[1] - cur[1]) ** 2 > (
                cand[0] - cur[0]
            ) ** 2 + (cand[1] - cur[1]) ** 2
            if c < 0 or (c == 0 and farther):
                cand = p
        cur = cand
        if cur == start:
            return out


def contains(vertices, pt) -> bool:
    """Point-in-polygon for a hull from `hull` (closed, boundary included)."""
    vs = list(vertices)
    if len(vs) == 1:
        return tuple(pt) == vs[0]
    if len(vs) == 2:
        (x0, y0), (x1, y1) = vs
        return _cross(vs[0], vs[1], pt) == 0 and min(x0, x1) <= pt[0] <= max(x0, x1) and min(
            y0, y1
        ) <= pt[1] <= max(y0, y1)
    n = len(vs)
    return all(_cross(vs[i], vs[(i + 1) % n], pt) >= 0 for i in range(n))


def lattice_points(vertices):
    """Lattice points of the hull of the vertices, by scanning the bounding box."""
    vs = hull(vertices)
    xs, ys = [x for x, _ in vs], [y for _, y in vs]
    return [
        (x, y)
        for x in range(min(xs), max(xs) + 1)
        for y in range(min(ys), max(ys) + 1)
        if contains(vs, (x, y))
    ]


def interior_count(vertices):
    vs = hull(vertices)
    if len(vs) < 3:
        return 0
    n = len(vs)
    return sum(
        1
        for p in lattice_points(vs)
        if all(_cross(vs[i], vs[(i + 1) % n], p) > 0 for i in range(n))
    )


def to_origin(points):
    pts = [tuple(p) for p in points]
    x0, y0 = min(x for x, _ in pts), min(y for _, y in pts)
    return sorted((x - x0, y - y0) for x, y in pts)


def minkowski_sum(*vertex_lists):
    """Vertices of the Minkowski sum of polygons given by vertex lists."""
    acc = [(0, 0)]
    for vs in vertex_lists:
        acc = hull([(a[0] + b[0], a[1] + b[1]) for a in acc for b in vs])
    return acc


# -- codes --------------------------------------------------------------------------


def generator(field: Field, monomials):
    return np.array([field.monomial_row(a, b) for a, b in monomials], dtype=np.int64)


def _span_blocks(field, base, rows, cap=1 << 19):
    """Blocks of codewords base + sum c_r rows[r] over every coefficient vector."""
    q, n = field.q, base.shape[0]
    t = 0
    while t < len(rows) and q ** (t + 1) * n <= cap:
        t += 1
    inner, outer = rows[len(rows) - t :], rows[: len(rows) - t]
    table = np.zeros((1, n), dtype=np.int64)
    for row in inner:
        table = np.concatenate([field.add(table, field.mul(row, c)[None, :]) for c in range(q)])
    for coeffs in itertools.product(range(q), repeat=len(outer)):
        v = base
        for row, c in zip(outer, coeffs):
            if c:
                v = field.add(v, field.mul(row, c))
        yield field.add(table, v[None, :])


def normalized_messages(q, k):
    return (q**k - 1) // (q - 1)


def weight_distribution(field: Field, monomials) -> dict[int, int]:
    """Weight distribution by enumerating every message with leading coefficient 1."""
    g = generator(field, monomials)
    k, n = g.shape
    hist = np.zeros(n + 1, dtype=np.int64)
    for h in range(k):
        for block in _span_blocks(field, g[h], g[h + 1 :]):
            hist += np.bincount(np.count_nonzero(block, axis=1), minlength=n + 1)
    dist = {0: 1}
    for w in np.nonzero(hist)[0]:
        dist[int(w)] = dist.get(int(w), 0) + int(hist[w]) * (field.q - 1)
    return dict(sorted(dist.items()))


def min_distance(field: Field, monomials) -> int:
    return min(w for w in weight_distribution(field, monomials) if w)


def macwilliams(dist: dict[int, int], n: int, q: int, k: int):
    """Dual weight distribution B_0..B_n, or None if some B_j is not an integer."""
    sums = [0] * (n + 1)
    for w, a in dist.items():
        # Krawtchouk recurrence: (j+1) K_{j+1} = (j + (q-1)(n-j) - qw) K_j - (q-1)(n-j+1) K_{j-1}
        prev, cur = 0, 1
        for j in range(n + 1):
            sums[j] += a * cur
            prev, cur = cur, ((j + (q - 1) * (n - j) - q * w) * cur - (q - 1) * (n - j + 1) * prev) // (j + 1)
    if any(s % q**k for s in sums):
        return None
    return [s // q**k for s in sums]


# -- closed forms and published values -------------------------------------------


def box_distance(d: int, e: int, q: int) -> int:
    """[0,d] x [0,e]: (q-1-d)(q-1-e).

    Source: Joyner, "Toric codes over finite fields", AAECC 15 (2004),
    rectangle theorem; a product section of d x-lines and e y-lines
    attains it.
    """
    return (q - 1 - d) * (q - 1 - e)


def segment_distance(a: int, q: int) -> int:
    """Lattice segment of length a: (q-1)(q-1-a).

    Source: the box formula with e = 0; a univariate polynomial of
    degree <= a has at most a roots in F_q*.
    """
    return box_distance(a, 0, q)


HEXAGON = ((1, 0), (2, 0), (0, 1), (1, 2), (3, 2), (3, 3))
PENTAGON = ((0, 0), (1, 0), (3, 1), (2, 2), (1, 2))

# (polygon name, q) -> minimum distance.  The hexagon is the example of
# Joyner (2004) taken up in Little and Schenck, "Toric surface codes and
# Minkowski sums" (arXiv math/0507598), which also treats the pentagon's
# split into a genus-one triangle and a segment.  Every value is
# recomputed by brute force with `python3 perfbench/oracle.py --recompute`.
PUBLISHED = {
    ("hexagon", 7): 20,
    ("hexagon", 8): 28,
    ("hexagon", 9): 42,
    ("pentagon", 8): 33,
}

PUBLISHED_POLYGONS = {"hexagon": HEXAGON, "pentagon": PENTAGON}


def recompute_published():
    ok = True
    for (name, q), want in sorted(PUBLISHED.items()):
        field = Field(q)
        got = min_distance(field, lattice_points(PUBLISHED_POLYGONS[name]))
        ok &= got == want
        print(f"{name} F{q}: stored {want}, brute force {got}", flush=True)
    return ok


if __name__ == "__main__":
    if sys.argv[1:] != ["--recompute"]:
        sys.exit("usage: python3 perfbench/oracle.py --recompute")
    sys.exit(0 if recompute_published() else 1)
