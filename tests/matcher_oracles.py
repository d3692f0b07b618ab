"""Closed-form matchers that try models one at a time, kept as oracles.

The rectangle, twisted-box and rank-3 matchers are the ones that
`bounds._closed_forms` used before it compared normal forms.  The
triangle oracle is brute force over every conv{(0,0),(a,0),(b,c)}
with a >= b + c.  All of them decide equivalence with the vertex-cycle
search of `lattice_maps.find_equivalence`.
"""

from math import isqrt

from lattice_maps import find_equivalence
from toricode.bounds import _RANK3_SCAN_CAP, _rank3_polygon, _rank3_volume2
from toricode.errors import InvariantViolation
from toricode.polygon import LatticePolygon


def match_triangle(poly):
    """Least (a, b, c) with a >= b + c and poly equivalent to conv{(0,0),(a,0),(b,c)}."""
    if poly.dim != 2 or len(poly.vertices) != 3:
        return None
    v2 = poly.volume2
    for a in range(1, v2 + 1):
        if v2 % a:
            continue
        c = v2 // a
        for b in range(a - c + 1):
            if find_equivalence(LatticePolygon([(0, 0), (a, 0), (b, c)]), poly) is not None:
                return a, b, c
    return None


def match_rectangle(poly):
    if poly.dim != 2 or len(poly.vertices) != 4 or poly.volume2 % 2:
        return None
    area = poly.volume2 // 2
    for d in range(1, isqrt(area) + 1):
        if area % d:
            continue
        e = area // d
        model = LatticePolygon([(0, 0), (d, 0), (d, e), (0, e)])
        if find_equivalence(poly, model) is not None:
            return d, e
    return None


def match_hirzebruch(poly):
    """(d, e, r) with r >= 1 for a twisted box, else None."""
    if poly.dim != 2 or len(poly.vertices) != 4:
        return None
    v2 = poly.volume2
    for d in range(1, isqrt(v2) + 1):
        for r in range(1, v2 // (d * d) + 1):
            rest = v2 - r * d * d
            if rest <= 0:
                break
            if rest % (2 * d):
                continue
            e = rest // (2 * d)
            model = LatticePolygon([(0, 0), (d, 0), (0, e), (d, e + r * d)])
            if find_equivalence(poly, model) is not None:
                return d, e, r
    return None


def match_rank3(poly, case):
    """Family parameters (a, b, c, r) matching poly, else None."""
    if poly.dim != 2:
        return None
    v2 = poly.volume2
    tgt = (v2, poly.num_lattice_points, poly.interior_count)
    r_range = (1,) if case == "III" else range(1, _RANK3_SCAN_CAP)
    for a in range(1, _RANK3_SCAN_CAP):
        for b in range(a + 1 if case == "III" else 1, _RANK3_SCAN_CAP):
            for c in range(1, _RANK3_SCAN_CAP):
                for r in r_range:
                    cv = _rank3_volume2(case, a, b, c, r)
                    if cv > v2 and case != "III":
                        break
                    if cv != v2:
                        continue
                    cand = _rank3_polygon(case, a, b, c, r)
                    if cand.volume2 != cv:
                        raise InvariantViolation(f"family-{case} area {cand.volume2} is not {cv}")
                    if (cand.num_lattice_points, cand.interior_count) != tgt[1:]:
                        continue
                    if find_equivalence(poly, cand) is not None:
                        return a, b, c, r
    return None
