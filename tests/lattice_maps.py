"""Unimodular images of polygons, small polygon catalogs, and lattice
equivalence, shared by the property tests.

`lattice_equivalence` compares normal forms.  `find_equivalence` is the
vertex-cycle search it replaced; the tests keep it as the oracle.
"""

from math import gcd

from toricode.polygon import LatticePolygon, normal_form


def apply_map(poly, m, shift=(0, 0)):
    """Image of poly under x -> M x + shift, where M has determinant +-1."""
    (a, b), (c, d) = m
    if abs(a * d - b * c) != 1:
        raise ValueError(f"matrix {m} is not unimodular")
    sx, sy = shift
    return LatticePolygon([(a * x + b * y + sx, c * x + d * y + sy) for x, y in poly.vertices])


def random_unimodular(rng):
    """A seeded product of shears, possibly negated, possibly flipping orientation."""
    m = ((1, 0), (0, 1))
    for _ in range(rng.randint(1, 4)):
        k = rng.randint(-3, 3)
        if rng.random() < 0.5:
            s = ((1, k), (0, 1))
        else:
            s = ((1, 0), (k, 1))
        m = _mat_mul(m, s)
    if rng.random() < 0.5:
        m = ((-m[0][0], -m[0][1]), (-m[1][0], -m[1][1]))
    if rng.random() < 0.5:
        m = (m[1], m[0])  # swap rows, flips orientation
    return m


def classes_in_box(span):
    """Every polygon in [0, span]^2 up to translation, each mapped to the
    translation classes of its subpolygons, points left out.

    A proper subpolygon drawn on the lattice points misses some vertex
    v, so it lies in the hull of the other points; recursing on those
    hulls from the box reaches every class and every subpolygon.
    """
    memo = {}

    def classes(poly):
        key = poly.translate_to_origin().vertices
        if key not in memo:
            out = {key} if poly.dim else set()
            for v in poly.vertices:
                rest = [p for p in poly.lattice_points() if p != v]
                if rest:
                    out |= classes(LatticePolygon(rest))
            memo[key] = out
        return memo[key]

    classes(LatticePolygon([(0, 0), (span, 0), (span, span), (0, span)]))
    return {key: subs for key, subs in memo.items() if len(key) > 1}


def lattice_equivalence(p, q):
    """Find (M, t) with q = M p + t, M unimodular, or return None.

    The polygons are equivalent exactly when their normal forms agree;
    the map is then p's normal-form map followed by the inverse of q's,
    so orientation-reversing equivalences are found too.
    """
    form_p, (mp, tp) = normal_form(p)
    form_q, (mq, tq) = normal_form(q)
    if form_p != form_q:
        return None
    inv = _inverse(mq)
    return _mat_mul(inv, mp), _mat_apply(inv, _sub(tp, tq))


def find_equivalence(p, q):
    """Find (M, t) with q = M p + t, M unimodular, or return None.

    Checks every rotation of q's vertex cycle and the reflected cycle,
    solving for the map that sends p's first two edges onto the cycle's.
    """
    if p.dim != q.dim:
        return None
    if p.dim == 0:
        px, py = p.vertices[0]
        qx, qy = q.vertices[0]
        return ((1, 0), (0, 1)), (qx - px, qy - py)
    if p.dim == 1:
        return _segment_equivalence(p, q)
    if (
        len(p.vertices) != len(q.vertices)
        or p.volume2 != q.volume2
        or p.boundary_count != q.boundary_count
    ):
        return None
    vp = p.vertices
    n = len(vp)
    ep = [_sub(vp[(i + 1) % n], vp[i]) for i in range(n)]
    for cycle in _candidate_cycles(q.vertices):
        eq = [_sub(cycle[(i + 1) % n], cycle[i]) for i in range(n)]
        m = _solve_map(ep[0], ep[1], eq[0], eq[1])
        if m is None:
            continue
        t = _sub(cycle[0], _mat_apply(m, vp[0]))
        if all(_add(_mat_apply(m, vp[i]), t) == cycle[i] for i in range(n)):
            return m, t
    return None


def _sub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def _add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _mat_apply(m, v):
    (a, b), (c, d) = m
    return (a * v[0] + b * v[1], c * v[0] + d * v[1])


def _mat_mul(m, n):
    (a, b), (c, d) = m
    (e, f), (g, h) = n
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


def _candidate_cycles(vs):
    n = len(vs)
    fwd = list(vs)
    rev = [vs[0]] + list(reversed(vs[1:]))
    for r in range(n):
        yield fwd[r:] + fwd[:r]
        yield rev[r:] + rev[:r]


def _solve_map(a0, a1, b0, b1):
    # M [a0 a1] = [b0 b1], integral with |det| = 1, or None
    det = a0[0] * a1[1] - a0[1] * a1[0]
    if det == 0:
        return None
    # M = B adj(A) / det(A)
    num = (
        (b0[0] * a1[1] - b1[0] * a0[1], -b0[0] * a1[0] + b1[0] * a0[0]),
        (b0[1] * a1[1] - b1[1] * a0[1], -b0[1] * a1[0] + b1[1] * a0[0]),
    )
    if any(x % det for row in num for x in row):
        return None
    m = tuple(tuple(x // det for x in row) for row in num)
    if abs(m[0][0] * m[1][1] - m[0][1] * m[1][0]) != 1:
        return None
    return m


def _extend_to_basis(d):
    # a unimodular matrix with first column d, for d primitive
    x, y = d
    g, a, b = _xgcd(x, y)
    if g != 1:
        raise ValueError(f"direction {d} is not primitive")
    return ((x, -b), (y, a))


def _xgcd(a, b):
    if b == 0:
        return (a, 1, 0) if a >= 0 else (-a, -1, 0)
    g, x, y = _xgcd(b, a % b)
    return g, y, x - (a // b) * y


def _inverse(m):
    (a, b), (c, d) = m
    det = a * d - b * c
    return ((d * det, -b * det), (-c * det, a * det))


def _segment_equivalence(p, q):
    (px0, py0), (px1, py1) = p.vertices
    (qx0, qy0), (qx1, qy1) = q.vertices
    gp = gcd(abs(px1 - px0), abs(py1 - py0))
    gq = gcd(abs(qx1 - qx0), abs(qy1 - qy0))
    if gp != gq:
        return None
    dp = ((px1 - px0) // gp, (py1 - py0) // gp)
    dq = ((qx1 - qx0) // gq, (qy1 - qy0) // gq)
    ep = _extend_to_basis(dp)
    for target in (dq, (-dq[0], -dq[1])):
        m = _mat_mul(_extend_to_basis(target), _inverse(ep))
        img = [_mat_apply(m, v) for v in p.vertices]
        # translate the first image point onto the right endpoint
        cand = LatticePolygon(img)
        t = _sub(q.vertices[0], cand.vertices[0])
        if {_add(v, t) for v in img} == set(q.vertices):
            return m, t
    return None
