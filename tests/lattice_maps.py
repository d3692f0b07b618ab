"""Unimodular images of polygons, shared by the property tests."""

from toricode.polygon import LatticePolygon


def apply_map(poly, m, shift=(0, 0)):
    """Image of poly under x -> M x + shift, where M has determinant +-1."""
    (a, b), (c, d) = m
    if abs(a * d - b * c) != 1:
        raise ValueError(f"matrix {m} is not unimodular")
    sx, sy = shift
    return LatticePolygon([(a * x + b * y + sx, c * x + d * y + sy) for x, y in poly.vertices])
