import itertools
import math
import random
from fractions import Fraction

import pytest

from factoring import edge_multiset, polygon_from_edges, sort_directions_ccw
from lattice_maps import (
    apply_map,
    classes_in_box,
    find_equivalence,
    lattice_equivalence,
    random_unimodular,
)
from toricode.errors import (
    CoordinateOverflow,
    DegeneratePolygon,
    EmptyInput,
    NotApplicable,
)
from toricode.polygon import (
    LatticePolygon,
    _run_directions,
    convex_hull,
    minkowski_sum,
    normal_form,
)

HEX9 = LatticePolygon([(1, 0), (2, 0), (0, 1), (1, 2), (3, 2), (3, 3)])
P54 = LatticePolygon([(0, 0), (1, 0), (3, 1), (2, 2), (1, 2)])
Q1 = LatticePolygon([(0, 0), (2, 1), (1, 2)])
T_1_4_4_1 = LatticePolygon([(0, 0), (1, 4), (4, 1)])


def test_hull_canonical_order():
    assert HEX9.vertices == ((0, 1), (1, 0), (2, 0), (3, 2), (3, 3), (1, 2))
    # interior and duplicate points never become vertices
    again = LatticePolygon(list(HEX9.vertices) + [(1, 1), (2, 1), (1, 0)])
    assert again == HEX9


def test_hull_degenerate():
    assert LatticePolygon([(2, 3)]).vertices == ((2, 3),)
    seg = LatticePolygon([(4, 2), (0, 0), (2, 1)])
    assert seg.vertices == ((0, 0), (4, 2))
    assert seg.dim == 1
    assert LatticePolygon([(1, 1), (1, 1)]).dim == 0
    with pytest.raises(EmptyInput):
        convex_hull([])


def test_counts_hexagon():
    assert HEX9.volume2 == 10
    assert HEX9.boundary_count == 6
    assert HEX9.interior_count == 3
    assert HEX9.num_lattice_points == 9


def test_counts_pentagon():
    assert P54.volume2 == 7
    assert P54.boundary_count == 5
    assert P54.interior_count == 2
    assert P54.num_lattice_points == 7


def test_counts_triangles():
    assert Q1.volume2 == 3
    assert Q1.interior_count == 1
    assert Q1.lattice_points() == [(0, 0), (1, 1), (1, 2), (2, 1)]
    assert T_1_4_4_1.volume2 == 15
    assert T_1_4_4_1.boundary_count == 5
    assert T_1_4_4_1.interior_count == 6
    assert T_1_4_4_1.num_lattice_points == 11


def test_counts_segment_and_point():
    seg = LatticePolygon([(0, 0), (6, 4)])
    assert seg.volume2 == 0
    assert seg.boundary_count == 3
    assert seg.num_lattice_points == 3
    assert seg.lattice_points() == [(0, 0), (3, 2), (6, 4)]
    pt = LatticePolygon([(5, -1)])
    assert pt.num_lattice_points == 1
    assert pt.lattice_points() == [(5, -1)]


def test_edge_multiset():
    assert edge_multiset(HEX9) == {
        (1, -1): 1,
        (1, 0): 1,
        (1, 2): 1,
        (0, 1): 1,
        (-2, -1): 1,
        (-1, -1): 1,
    }
    seg = LatticePolygon([(0, 0), (4, 2)])
    assert edge_multiset(seg) == {(2, 1): 2, (-2, -1): 2}
    assert edge_multiset(LatticePolygon([(3, 3)])) == {}


def test_minkowski_pentagon_splits():
    seg = LatticePolygon([(0, 0), (1, 0)])
    assert minkowski_sum(Q1, seg) == P54
    assert minkowski_sum(seg, Q1) == P54


def test_minkowski_of_segments():
    a = LatticePolygon([(0, 0), (1, 0)])
    b = LatticePolygon([(0, 0), (0, 1)])
    assert minkowski_sum(a, b).vertices == ((0, 0), (1, 0), (1, 1), (0, 1))
    assert minkowski_sum(a, a).vertices == ((0, 0), (2, 0))
    with pytest.raises(EmptyInput):
        minkowski_sum()


def test_contains():
    assert HEX9.contains((1, 1))
    assert HEX9.contains((3, 3))
    assert not HEX9.contains((0, 0))
    assert not HEX9.contains((2, 3))
    seg = LatticePolygon([(0, 0), (4, 2)])
    assert seg.contains((2, 1))
    assert not seg.contains((1, 1))
    assert not seg.contains((6, 3))


def test_transforms():
    assert HEX9.translate(2, -1).vertices[0] == (2, 0)
    assert P54.translate_to_origin() == P54
    shifted = P54.translate(3, 5)
    assert shifted.translate_to_origin() == P54
    sheared = apply_map(HEX9, ((1, 1), (0, 1)))
    assert sheared.volume2 == HEX9.volume2
    assert sheared.num_lattice_points == HEX9.num_lattice_points
    assert P54.translate(0, 0) is P54
    # translating keeps the canonical vertex order of a fresh hull
    rng = random.Random(11)
    for _ in range(200):
        pts = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(rng.randint(1, 6))]
        poly = LatticePolygon(pts)
        dx, dy = rng.randint(-9, 9), rng.randint(-9, 9)
        moved = poly.translate(dx, dy)
        hull = LatticePolygon([(x + dx, y + dy) for x, y in poly.vertices])
        assert moved.vertices == hull.vertices
        assert moved.lattice_points() == [(x + dx, y + dy) for x, y in poly.lattice_points()]


def test_fits_in_box():
    assert HEX9.fits_in_box(5) == (0, 0)
    assert HEX9.fits_in_box(4) is None
    assert HEX9.translate(2, -1).fits_in_box(5) == (-2, 1)
    assert LatticePolygon([(0, 0), (6, 0)]).fits_in_box(8) == (0, 0)
    assert LatticePolygon([(0, 0), (7, 0)]).fits_in_box(8) is None


def test_counts_record():
    assert HEX9.counts() == {"volume2": 10, "total": 9, "boundary": 6, "interior": 3}
    seg = LatticePolygon([(0, 0), (3, 0)])
    assert seg.counts() == {"volume2": 0, "total": 4, "boundary": 4, "interior": 0}


def test_genus_and_scott():
    assert HEX9.genus() == 3
    assert P54.genus() == 2
    assert LatticePolygon([(0, 0), (1, 4), (4, 1)]).genus() == 6
    d3 = LatticePolygon([(0, 0), (3, 0), (0, 3)])
    assert d3.genus() == 1
    # the full triangle of side 3 meets the bound with equality
    assert d3.num_lattice_points == 10 and d3.scott_check()
    assert HEX9.scott_check()
    with pytest.raises(DegeneratePolygon):
        LatticePolygon([(0, 0), (4, 2)]).genus()
    with pytest.raises(NotApplicable):
        LatticePolygon([(0, 0), (1, 0), (1, 1), (0, 1)]).scott_check()


def test_run_directions_are_lex_positive_in_any_point_order():
    pts = HEX9.lattice_points()
    want = _run_directions(pts)
    assert want == sorted(want)
    assert all(dx > 0 or (dx == 0 and dy > 0) for dx, dy in want)
    assert _run_directions(pts[::-1]) == want
    assert _run_directions([(1, 2), (0, 0), (2, 1)]) == [(1, -1), (1, 2), (2, 1)]


def test_repr_names_the_vertices():
    assert repr(Q1) == "LatticePolygon([(0, 0), (2, 1), (1, 2)])"


def test_coordinate_overflow():
    with pytest.raises(CoordinateOverflow):
        LatticePolygon([(0, 0), (1 << 31, 2)])
    big = LatticePolygon([(0, 0), ((1 << 31) - 1, 0), (0, 1)])
    with pytest.raises(CoordinateOverflow):
        big.translate(5, 0)


def test_sort_directions_ccw():
    dirs = [(0, -1), (-1, 1), (1, 0), (-1, -1), (0, 1), (1, 1), (-1, 0), (1, -1)]
    assert sort_directions_ccw(dirs) == [
        (1, 0),
        (1, 1),
        (0, 1),
        (-1, 1),
        (-1, 0),
        (-1, -1),
        (0, -1),
        (1, -1),
    ]


def test_polygon_from_edges():
    edges = [(1, -1), (1, 0), (1, 2), (0, 1), (-2, -1), (-1, -1)]
    assert polygon_from_edges((0, 1), edges) == HEX9
    with pytest.raises(DegeneratePolygon):
        polygon_from_edges((0, 0), [(1, 0), (0, 1)])


def test_lattice_equivalence_shear():
    m = ((1, 1), (0, 1))
    img = apply_map(HEX9, m, (4, -2))
    found = lattice_equivalence(HEX9, img)
    assert found is not None
    fm, ft = found
    assert apply_map(HEX9, fm, ft) == img


def test_lattice_equivalence_reflection():
    # x <-> y swap has determinant -1
    img = apply_map(Q1, ((0, 1), (1, 0)))
    found = lattice_equivalence(Q1, img)
    assert found is not None
    fm, ft = found
    assert apply_map(Q1, fm, ft) == img


def test_lattice_equivalence_rejects():
    d2 = LatticePolygon([(0, 0), (2, 0), (0, 2)])
    flat = LatticePolygon([(0, 0), (4, 0), (0, 1)])
    # same area, boundary count and vertex count, different edge lengths
    assert d2.volume2 == flat.volume2 == 4
    assert d2.boundary_count == flat.boundary_count == 6
    assert lattice_equivalence(d2, flat) is None
    assert lattice_equivalence(d2, LatticePolygon([(0, 0), (1, 0)])) is None


def test_lattice_equivalence_segments_and_points():
    a = LatticePolygon([(0, 0), (2, 4)])
    b = LatticePolygon([(1, 1), (3, 0), (5, -1)])  # collinear, same length
    found = lattice_equivalence(a, b)
    assert found is not None
    fm, ft = found
    assert apply_map(a, fm, ft) == b
    assert lattice_equivalence(a, LatticePolygon([(0, 0), (1, 2)])) is None
    pa, pb = LatticePolygon([(1, 2)]), LatticePolygon([(-3, 0)])
    assert lattice_equivalence(pa, pb) == (((1, 0), (0, 1)), (-4, -2))


def test_normal_form_shapes():
    assert normal_form(LatticePolygon([(3, -2)])) == (((0, 0),), (((1, 0), (0, 1)), (-3, 2)))
    assert normal_form(LatticePolygon([(1, 1), (7, 5)]))[0] == ((0, 0), (2, 0))
    # the standard triangle of side 2 and the hexagon, in every orientation
    for m in [((1, 0), (0, 1)), ((0, 1), (1, 0)), ((2, 1), (1, 1)), ((-1, 3), (0, -1))]:
        img = apply_map(LatticePolygon([(0, 0), (2, 0), (0, 2)]), m, (5, -3))
        assert normal_form(img)[0] == ((0, 0), (2, 0), (0, 2))
        assert normal_form(apply_map(HEX9, m, (1, 4)))[0] == (
            (0, 0), (1, 0), (0, 1), (-5, 4), (-7, 5), (-3, 2)
        )


def test_normal_form_agrees_with_cycle_search():
    # every pair of segments and polygons in [0,3]^2, up to translation,
    # that share the invariants the old search filtered on
    groups = {}
    for key in classes_in_box(3):
        p = LatticePolygon(key)
        groups.setdefault((p.dim, len(key), p.volume2, p.boundary_count), []).append(p)
    assert sum(len(group) for group in groups.values()) == 1657
    pairs = equivalent = 0
    for group in groups.values():
        forms = []
        for p in group:
            form, (m, t) = normal_form(p)
            # the form is the image's vertex cycle, counterclockwise, from
            # a first edge on (1, 0) and a next vertex with 0 <= x < y
            image = apply_map(p, m, t)
            i = image.vertices.index((0, 0))
            assert form == image.vertices[i:] + image.vertices[:i]
            assert form[1][0] > 0 == form[1][1]
            if len(form) > 2:
                assert 0 <= form[2][0] < form[2][1]
            forms.append(form)
        for (p, fp), (q, fq) in itertools.combinations(zip(group, forms), 2):
            want = find_equivalence(p, q)
            assert (fp == fq) == (want is not None), (p, q)
            found = lattice_equivalence(p, q)
            assert (found is None) == (want is None), (p, q)
            if found is not None:
                assert apply_map(p, *found) == q
                equivalent += 1
            pairs += 1
    assert (pairs, equivalent) == (29826, 13314)


def _random_polygon(rng, span=8, npts=8):
    pts = [(rng.randint(0, span), rng.randint(0, span)) for _ in range(npts)]
    return LatticePolygon(pts)


def test_property_point_count_matches_brute_force():
    rng = random.Random(1001)
    for _ in range(600):
        p = _random_polygon(rng, span=7)
        box = [
            (x, y)
            for x in range(-1, 9)
            for y in range(-1, 9)
            if p.contains((x, y))
        ]
        assert sorted(box) == p.lattice_points()
        assert len(box) == p.num_lattice_points


def scanline_oracle(vertices):
    """Lattice points column by column from Fraction heights, the routine
    the integer scanline replaced."""
    n = len(vertices)
    pts = []
    for x in range(min(x for x, _ in vertices), max(x for x, _ in vertices) + 1):
        lo = hi = None
        for i in range(n):
            (ax, ay), (bx, by) = vertices[i], vertices[(i + 1) % n]
            if ax == bx:
                if ax != x:
                    continue
                ys = (Fraction(ay), Fraction(by))
            else:
                if not (min(ax, bx) <= x <= max(ax, bx)):
                    continue
                ys = (ay + Fraction((x - ax) * (by - ay), bx - ax),)
            for y in ys:
                lo = y if lo is None or y < lo else lo
                hi = y if hi is None or y > hi else hi
        pts.extend((x, y) for y in range(math.ceil(lo), math.floor(hi) + 1))
    return pts


def test_property_scanline_matches_the_fraction_scanline():
    # random polygons with negative coordinates and their unimodular images,
    # whose thin slanted columns miss lattice points between edges
    rng = random.Random(1007)
    polys = [HEX9, P54, Q1, T_1_4_4_1, LatticePolygon([(0, 0), (3, 1), (3, 2)])]
    while len(polys) < 300:
        p = _random_polygon(rng, span=6, npts=rng.randint(3, 7)).translate(-3, -2)
        if p.dim == 2:
            polys += [p, apply_map(p, random_unimodular(rng))]
    for p in polys:
        assert p._scanline() == scanline_oracle(p.vertices), p.vertices


def test_property_minkowski_counts_and_edges():
    rng = random.Random(1002)
    for _ in range(500):
        a = _random_polygon(rng, span=6, npts=rng.randint(1, 7))
        b = _random_polygon(rng, span=6, npts=rng.randint(1, 7))
        s = minkowski_sum(a, b)
        assert s == minkowski_sum(b, a)
        # the sum can only gain points relative to sliding one summand
        assert s.num_lattice_points >= a.num_lattice_points + b.num_lattice_points - 1
        assert s.volume2 >= a.volume2 + b.volume2
        if a.dim == 2 and b.dim == 2:
            ea, eb, es = edge_multiset(a), edge_multiset(b), edge_multiset(s)
            merged = dict(ea)
            for d, g in eb.items():
                merged[d] = merged.get(d, 0) + g
            assert merged == es


def test_property_minkowski_associative():
    rng = random.Random(1003)
    for _ in range(200):
        a, b, c = (_random_polygon(rng, span=5, npts=4) for _ in range(3))
        assert minkowski_sum(minkowski_sum(a, b), c) == minkowski_sum(
            a, minkowski_sum(b, c)
        )


def test_property_unimodular_invariants():
    rng = random.Random(1004)
    for _ in range(500):
        p = _random_polygon(rng)
        m = random_unimodular(rng)
        img = apply_map(p, m, (rng.randint(-9, 9), rng.randint(-9, 9)))
        assert img.num_lattice_points == p.num_lattice_points
        assert img.boundary_count == p.boundary_count
        assert img.volume2 == p.volume2
        assert img.dim == p.dim


def test_property_equivalence_roundtrip():
    rng = random.Random(1005)
    hits = 0
    for _ in range(300):
        p = _random_polygon(rng, npts=rng.randint(2, 8))
        m = random_unimodular(rng)
        img = apply_map(p, m, (rng.randint(-6, 6), rng.randint(-6, 6)))
        found = lattice_equivalence(p, img)
        assert found is not None
        fm, ft = found
        assert apply_map(p, fm, ft) == img
        hits += 1
    assert hits == 300


def test_property_pick_formula_directly():
    rng = random.Random(1006)
    for _ in range(500):
        p = _random_polygon(rng, span=10, npts=rng.randint(3, 10))
        if p.dim < 2:
            continue
        assert p.volume2 == 2 * p.interior_count + p.boundary_count - 2
        assert len(p.lattice_points()) == p.num_lattice_points
