import random

import pytest

from lattice_maps import apply_map
from toricode.decomp import (
    DEFAULT_BUDGET,
    _Budget,
    _iter_subpolygons,
    best_subpolygon_decomposition,
    factor_polygon,
    max_parts,
    maximal_decompositions,
    subpolygon_decomposition_search,
)
from toricode.errors import DegeneratePolygon
from toricode.polygon import LatticePolygon, minkowski_sum

HEX9 = LatticePolygon([(1, 0), (2, 0), (0, 1), (1, 2), (3, 2), (3, 3)])
P54 = LatticePolygon([(0, 0), (1, 0), (3, 1), (2, 2), (1, 2)])
Q1 = LatticePolygon([(0, 0), (2, 1), (1, 2)])

SEG_H = LatticePolygon([(0, 0), (1, 0)])
SEG_V = LatticePolygon([(0, 0), (0, 1)])
SEG_D = LatticePolygon([(0, 0), (1, 1)])


def _ms(*vertex_tuples):
    # order-insensitive multiset of parts, each part by its vertex tuple
    return tuple(sorted(vertex_tuples))


def _parts_sets(decs):
    return {_ms(*(p.vertices for p in d.parts)) for d in decs}


def test_hexagon_splits_into_two_triangles():
    assert max_parts(HEX9) == 2
    decs = maximal_decompositions(HEX9)
    assert len(decs) == 1
    parts = decs[0].parts
    assert {p.vertices for p in parts} == {
        ((0, 0), (1, 0), (1, 1)),
        ((0, 1), (1, 0), (2, 2)),
    }
    assert minkowski_sum(*parts).translate_to_origin() == HEX9.translate_to_origin()


def test_pentagon_splits_off_a_segment():
    assert max_parts(P54) == 2
    decs = maximal_decompositions(P54)
    assert len(decs) == 1
    assert {p.vertices for p in decs[0].parts} == {
        SEG_H.vertices,
        Q1.vertices,
    }


def test_triangle_indecomposable():
    assert max_parts(Q1) == 1
    assert factor_polygon(Q1, min_count=2) == []


def test_rectangle_decompositions():
    rect = LatticePolygon([(0, 0), (2, 0), (2, 1), (0, 1)])
    assert max_parts(rect) == 3
    assert _parts_sets(maximal_decompositions(rect)) == {
        _ms(SEG_H.vertices, SEG_H.vertices, SEG_V.vertices)
    }
    square = ((0, 0), (1, 0), (1, 1), (0, 1))
    seg2 = ((0, 0), (2, 0))
    assert _parts_sets(factor_polygon(rect, min_count=2)) == {
        _ms(SEG_H.vertices, SEG_H.vertices, SEG_V.vertices),
        _ms(SEG_V.vertices, seg2),
        _ms(SEG_H.vertices, square),
    }


def test_segment_partitions():
    seg3 = LatticePolygon([(0, 0), (3, 0)])
    assert max_parts(seg3) == 3
    assert _parts_sets(factor_polygon(seg3)) == {
        _ms(((0, 0), (3, 0))),
        _ms(SEG_H.vertices, ((0, 0), (2, 0))),
        _ms(SEG_H.vertices, SEG_H.vertices, SEG_H.vertices),
    }


def test_zonotope_three_segments():
    zono = minkowski_sum(SEG_H, SEG_V, SEG_D)
    assert max_parts(zono) == 3
    decs = maximal_decompositions(zono)
    assert _parts_sets(decs) == {
        _ms(SEG_H.vertices, SEG_V.vertices, SEG_D.vertices)
    }


def test_point_rejected():
    pt = LatticePolygon([(1, 1)])
    with pytest.raises(DegeneratePolygon):
        factor_polygon(pt)
    with pytest.raises(DegeneratePolygon):
        subpolygon_decomposition_search(pt)


def test_subpolygon_search_hexagon():
    found = subpolygon_decomposition_search(HEX9)
    assert found.exhaustive
    assert found.length == 3
    assert _parts_sets(found.decompositions) == {
        _ms(SEG_H.vertices, SEG_V.vertices, SEG_V.vertices),
        _ms(SEG_V.vertices, SEG_D.vertices, SEG_D.vertices),
        _ms(SEG_H.vertices, SEG_H.vertices, SEG_D.vertices),
    }
    for dec in found.decompositions:
        assert dec.parent == HEX9
        assert dec.ell == 3
        placed = dec.subpolygon.translate(*dec.translation)
        assert all(HEX9.contains(v) for v in placed.vertices)
    assert best_subpolygon_decomposition(HEX9) == list(found.decompositions)


def test_subpolygon_search_pentagon():
    found = subpolygon_decomposition_search(P54)
    assert found.exhaustive
    assert found.length == 2
    assert _ms(SEG_H.vertices, Q1.vertices) in _parts_sets(found.decompositions)


def test_subpolygon_search_segment():
    seg = LatticePolygon([(0, 0), (4, 2)])
    found = subpolygon_decomposition_search(seg)
    assert found.length == 2
    assert found.exhaustive


def test_budget_fallback_not_exhaustive():
    found = subpolygon_decomposition_search(HEX9, budget=40)
    assert not found.exhaustive
    assert found.length >= 2


def test_iter_subpolygons_contains_witnesses():
    subs = {
        q.translate_to_origin().vertices
        for q in _iter_subpolygons(HEX9, _Budget(DEFAULT_BUDGET))
    }
    assert ((0, 0), (1, 0), (1, 2), (0, 2)) in subs  # the tall rectangle
    assert ((0, 0), (2, 2), (2, 3), (0, 1)) in subs  # the parallelogram
    assert HEX9.translate_to_origin().vertices in subs


def _random_polygon(rng, span, npts):
    return LatticePolygon(
        [(rng.randint(0, span), rng.randint(0, span)) for _ in range(npts)]
    )


def test_property_decompositions_recompose():
    rng = random.Random(2001)
    seen = 0
    for _ in range(300):
        p = _random_polygon(rng, 4, rng.randint(2, 6))
        if p.dim == 0:
            continue
        top = max_parts(p)
        decs = factor_polygon(p)
        assert decs, "the trivial decomposition always exists"
        for d in decs:
            assert 1 <= len(d.parts) <= top
            assert (
                minkowski_sum(*d.parts).translate_to_origin()
                == p.translate_to_origin()
            )
            seen += 1
        assert any(len(d.parts) == top for d in decs)
        assert all(len(d.parts) == top for d in maximal_decompositions(p))
    assert seen >= 500


def test_property_subpolygon_length_dominates():
    rng = random.Random(2002)
    for _ in range(60):
        p = _random_polygon(rng, 3, rng.randint(2, 5))
        if p.dim == 0:
            continue
        found = subpolygon_decomposition_search(p)
        assert found.length >= max_parts(p)
        for d in found.decompositions:
            assert len(d.parts) == found.length
            assert (
                minkowski_sum(*d.parts).translate_to_origin() == d.subpolygon
            )


def test_property_unimodular_invariance_of_max_parts():
    rng = random.Random(2003)
    shears = [((1, 1), (0, 1)), ((1, 0), (1, 1)), ((0, -1), (1, 0))]
    for _ in range(80):
        p = _random_polygon(rng, 4, rng.randint(2, 6))
        if p.dim == 0:
            continue
        m = shears[rng.randrange(3)]
        assert max_parts(apply_map(p, m)) == max_parts(p)
