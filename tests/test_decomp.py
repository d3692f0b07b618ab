import random

import pytest

import factoring
import multiset_search
import toricode.decomp as decomp_module
from factoring import (
    factor_polygon,
    iter_subpolygons,
    max_parts,
    maximal_decompositions,
    walk_search,
)
from lattice_maps import apply_map, classes_in_box, random_unimodular
from toricode.decomp import (
    DEFAULT_BUDGET,
    _Budget,
    best_subpolygon_decomposition,
    subpolygon_decomposition_search,
)
from toricode.errors import BudgetExceeded, DegeneratePolygon, InvariantViolation, TooLarge
from toricode.polygon import LatticePolygon, minkowski_sum, normal_form

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


def test_budget_exhausted_raises():
    with pytest.raises(BudgetExceeded):
        subpolygon_decomposition_search(HEX9, budget=1)
    with pytest.raises(BudgetExceeded):
        best_subpolygon_decomposition(HEX9, budget=1)


def test_iter_subpolygons_contains_witnesses():
    subs = {
        q.translate_to_origin().vertices
        for q in iter_subpolygons(HEX9, _Budget(DEFAULT_BUDGET))
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


# -- the subpolygon walk against the star-walking oracle ---------------------------


def _star_walk(poly, bud):
    """The subpolygon walk before star traversals were pruned.

    Every closed chain anchored at its lex-min point that turns left
    at each point is hulled and yielded, so a pentagram comes back as
    the pentagon on its points, once per winding order.
    """
    pts = poly.lattice_points()
    n = len(pts)
    for i in range(n):
        for j in range(i + 1, n):
            bud.tick()
            yield LatticePolygon([pts[i], pts[j]])
    if poly.dim < 2:
        return

    def cross(a, b):
        return a[0] * b[1] - a[1] * b[0]

    def chains(v0, cand, chain, used):
        bud.tick()
        last = chain[-1]
        e_last = (last[0] - chain[-2][0], last[1] - chain[-2][1])
        if len(chain) >= 3:
            e_close = (v0[0] - last[0], v0[1] - last[1])
            e_first = (chain[1][0] - v0[0], chain[1][1] - v0[1])
            if cross(e_last, e_close) > 0 and cross(e_close, e_first) > 0:
                yield LatticePolygon(chain)
        for k, w in enumerate(cand):
            if used[k]:
                continue
            e_new = (w[0] - last[0], w[1] - last[1])
            if cross(e_last, e_new) <= 0:
                continue
            used[k] = True
            yield from chains(v0, cand, chain + [w], used)
            used[k] = False

    for i0 in range(n):
        v0 = pts[i0]
        cand = pts[i0 + 1 :]
        used = [False] * len(cand)
        for k, w in enumerate(cand):
            used[k] = True
            yield from chains(v0, cand, [v0, w], used)
            used[k] = False


def _star_walk_classes(poly, bud):
    # the dedupe the search did on the star walk: each class at its first placement
    seen = set()
    for q in _star_walk(poly, bud):
        key = _origin_key(q.vertices)
        if key not in seen:
            seen.add(key)
            yield q


def _origin_key(vertices):
    # the vertices of LatticePolygon(vertices).translate_to_origin()
    x0 = min(x for x, _ in vertices)
    y0 = min(y for _, y in vertices)
    return tuple((x - x0, y - y0) for x, y in vertices)


def _placements(walk, poly, budget=DEFAULT_BUDGET):
    """Placed vertices by translation class, and the ticks the walk spent."""
    bud = _Budget(budget)
    out = {}
    for q in walk(poly, bud):
        key = _origin_key(q.vertices)
        assert key not in out, "a translation class came back twice"
        out[key] = q.vertices
    return out, budget - bud.left


@pytest.fixture(scope="module")
def small_box():
    return classes_in_box(3)


def test_box_catalog_size(small_box):
    # segments and two-dimensional polygons in [0,3]^2 up to translation
    assert len(small_box) == 1657


def test_iter_subpolygons_gives_every_class_once(small_box):
    for key, subs in small_box.items():
        poly = LatticePolygon(key)
        found, _ = _placements(iter_subpolygons, poly)
        assert set(found) == subs, key
        for placed in found.values():
            assert all(poly.contains(v) for v in placed)


def test_iter_subpolygons_matches_star_walk(small_box):
    # the star walk grows about fivefold per lattice point; up to 8
    # points it takes a few seconds over the whole [0,3]^2 catalog
    checked = 0
    for key in small_box:
        poly = LatticePolygon(key)
        if poly.num_lattice_points > 8:
            continue
        found, ticks = _placements(iter_subpolygons, poly)
        want, oracle_ticks = _placements(_star_walk_classes, poly)
        assert found == want, key
        assert ticks <= oracle_ticks, key
        checked += 1
    assert checked == 888


def _seeded_polygons(seed, count, max_points):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        p = _random_polygon(rng, 4, rng.randint(3, 6))
        if p.dim == 2 and p.num_lattice_points <= max_points:
            out.append(p)
    return out


def test_iter_subpolygons_matches_star_walk_on_seeded_polygons():
    for poly in _seeded_polygons(2005, 12, 10):
        found, ticks = _placements(iter_subpolygons, poly)
        want, oracle_ticks = _placements(_star_walk_classes, poly)
        assert found == want, poly
        assert ticks <= oracle_ticks, poly


def _star_walk_search(monkeypatch, poly, budget=DEFAULT_BUDGET):
    with monkeypatch.context() as m:
        m.setattr(factoring, "iter_subpolygons", _star_walk_classes)
        return walk_search(poly, budget)


def _assert_same_search(found, want):
    assert found.exhaustive
    assert found.length == want.length
    assert found.decompositions == want.decompositions
    assert [d.translation for d in found.decompositions] == [
        d.translation for d in want.decompositions
    ]


def test_search_matches_star_walk_search(monkeypatch):
    for poly in [HEX9, P54] + _seeded_polygons(2006, 16, 10):
        want = _star_walk_search(monkeypatch, poly)
        _assert_same_search(subpolygon_decomposition_search(poly), want)


def test_search_finishes_where_star_walk_ran_out(monkeypatch):
    # 12 lattice points: the star walk needs 642,277 ticks for 379
    # classes, more than the default budget of 200,000
    poly = LatticePolygon([(1, 0), (3, 0), (4, 3), (3, 4), (2, 4)])
    want = _star_walk_search(monkeypatch, poly, budget=10**6)
    _assert_same_search(subpolygon_decomposition_search(poly), want)


# -- the search over sums of L = 1 shapes against the walk ------------------------


def _equivalence_classes(keys):
    out = {}
    for key in keys:
        poly = LatticePolygon(key)
        out.setdefault(normal_form(poly)[0], poly)
    return list(out.values())


def test_search_matches_walk_on_box_classes(small_box):
    classes = _equivalence_classes(small_box)
    assert len(classes) == 151
    for poly in classes:
        _assert_same_search(subpolygon_decomposition_search(poly), walk_search(poly))


def test_search_matches_walk_on_seeded_classes_in_larger_box():
    # seeded polygons in [0,4]^2, one per equivalence class, where the
    # walk finishes within its default budget
    rng = random.Random(2007)
    seen, checked = set(), 0
    while checked < 30:
        poly = _random_polygon(rng, 4, rng.randint(3, 7))
        key = normal_form(poly)[0]
        if poly.dim == 0 or key in seen:
            continue
        seen.add(key)
        try:
            want = walk_search(poly)
        except BudgetExceeded:
            continue
        _assert_same_search(subpolygon_decomposition_search(poly), want)
        checked += 1


def _box(d):
    return LatticePolygon([(0, 0), (d, 0), (d, d), (0, d)])


@pytest.mark.parametrize("d", [4, 5, 6])
def test_search_on_boxes(d):
    # the walk runs out of its default budget on these boxes
    found = subpolygon_decomposition_search(_box(d))
    assert found.length == 2 * d
    (dec,) = found.decompositions
    assert dec.parts == (SEG_V,) * d + (SEG_H,) * d
    assert dec.translation == (0, 0)
    assert dec.subpolygon == _box(d)


def test_search_on_side_six_triangle():
    tri = LatticePolygon([(0, 0), (6, 0), (0, 6)])
    found = subpolygon_decomposition_search(tri)
    assert found.length == 6
    assert len(found.decompositions) == 84
    keys = {tuple(p.vertices for p in d.parts) for d in found.decompositions}
    assert len(keys) == 84
    for dec in found.decompositions:
        assert dec.ell == 6
        placed = dec.subpolygon.translate(*dec.translation)
        assert all(tri.contains(v) for v in placed.vertices)


T0 = LatticePolygon([(1, 0), (0, 1), (2, 2)])


def test_length_one_shapes(small_box):
    # fact (c): a polygon with at most 4 points has Minkowski length 1
    # exactly when it is a primitive segment, a unimodular triangle, or
    # a triangle with primitive edges and doubled area 3, which is T0
    counted = {1: 0, 3: 0, "segment": 0}
    for key in small_box:
        poly = LatticePolygon(key)
        if poly.num_lattice_points > 4:
            continue
        if poly.dim == 1:
            shape = poly.num_lattice_points == 2
            kind = "segment"
        else:
            kind = poly.volume2
            shape = len(key) == 3 and (kind == 1 or (kind == 3 and poly.boundary_count == 3))
        assert (walk_search(poly).length == 1) == shape, key
        if shape:
            counted[kind] += 1
            if kind == 3:
                assert normal_form(poly)[0] == normal_form(T0)[0]
    assert counted[1] > 0 and counted[3] > 0 and counted["segment"] > 0


def test_summand_points_names_the_length_one_classes(small_box):
    # the classifier returns #(Q) on exactly the L = 1 shapes of fact (c)
    named = 0
    for key in small_box:
        poly = LatticePolygon(key)
        if poly.num_lattice_points <= 4 and walk_search(poly).length == 1:
            assert decomp_module._summand_points(poly) == poly.num_lattice_points, key
            named += 1
        else:
            with pytest.raises(InvariantViolation):
                decomp_module._summand_points(poly)
    assert named > 3


def test_listed_shapes_are_the_length_one_classes(small_box):
    # the shapes the search lists for the 3x3 box that have a translate
    # in it are exactly its subpolygon classes of Minkowski length 1
    box = _box(3)
    subs = small_box[box.vertices]
    fitting = set()
    for verts in decomp_module._shapes(box, _Budget(DEFAULT_BUDGET)):
        key = LatticePolygon(verts).translate_to_origin().vertices
        if key in subs:
            fitting.add(key)
    # by fact (c), checked above, only classes with at most 4 points qualify
    small = [LatticePolygon(key) for key in subs]
    ones = {
        p.vertices for p in small if p.num_lattice_points <= 4 and walk_search(p).length == 1
    }
    assert fitting == ones


# -- the memoized search against the search with a room at every node -------------


def _bit_points(t, stride, origin):
    """The points of a position set at the given stride."""
    out = []
    while t:
        low = t & -t
        x, y = divmod(low.bit_length() - 1, stride)
        out.append((origin[0] + x, origin[1] + y))
        t ^= low
    return frozenset(out)


def _multisets(search, grid, poly, budget=DEFAULT_BUDGET):
    """(best, [(chosen, points)]) and the ticks that search spent."""
    bud = _Budget(budget)
    shapes = decomp_module._shapes(poly, bud)
    best, found = search(shapes, grid, bud)
    points = [(chosen, _bit_points(t, grid.stride, grid.origin)) for chosen, t in found]
    return (best, points), budget - bud.left


def _assert_same_as_node_search(poly):
    got = _multisets(decomp_module._largest_multisets, decomp_module._Grid(poly), poly)
    want = _multisets(multiset_search.largest_multisets, multiset_search.CutGrid(poly), poly)
    assert got == want, poly
    _assert_same_search(
        subpolygon_decomposition_search(poly), multiset_search.node_search(poly, DEFAULT_BUDGET)
    )


def _memo_test_polygons(small_box):
    # every class in [0,3]^2 and a seeded unimodular image of each
    rng = random.Random(2501)
    classes = _equivalence_classes(small_box)
    return classes + [apply_map(p, random_unimodular(rng), (rng.randint(-3, 3), 0)) for p in classes]


def test_memoized_search_matches_node_search(small_box):
    polys = _memo_test_polygons(small_box)
    assert len(polys) == 302
    for poly in polys:
        _assert_same_as_node_search(poly)


def test_memoized_search_matches_node_search_on_seeded_polygons():
    # a seeded sample of [0,4]^2, segments and all
    rng = random.Random(2502)
    for _ in range(150):
        poly = _random_polygon(rng, 4, rng.randint(2, 8))
        if poly.dim:
            _assert_same_as_node_search(poly)


def test_grid_points_are_the_sum_of_their_bits():
    # the same seeded sample of [0,4]^2 as the node-search comparison, and boxes
    rng = random.Random(2502)
    polys = [_random_polygon(rng, 4, rng.randint(2, 8)) for _ in range(150)]
    polys += [_box(d) for d in (1, 2, 3, 7, 10, 31, 64, 100)]
    for poly in polys:
        if poly.dim:
            grid = decomp_module._Grid(poly)
            (x0, y0), s = grid.origin, grid.stride
            want = sum(1 << ((x - x0) * s + y - y0) for x, y in poly.lattice_points())
            assert grid.points == want, poly


def test_room_matches_the_cut_room_on_every_visited_set(small_box):
    polys = _memo_test_polygons(small_box) + [_triangle(6), _box(5)]
    checked = 0
    for poly in polys:
        grid, oracle = decomp_module._Grid(poly), multiset_search.CutGrid(poly)
        visited = []
        bud = _Budget(DEFAULT_BUDGET)
        multiset_search.largest_multisets(decomp_module._shapes(poly, bud), oracle, bud, visited)
        for t in set(visited):
            mask = grid._mask(_bit_points(t, oracle.stride, oracle.origin))
            assert grid.room(mask) == oracle.room(t), (poly, t)
            checked += 1
    assert checked > 5_000


def _triangle(a):
    return LatticePolygon([(0, 0), (a, 0), (0, a)])


# L(P), the number of maximal decompositions and the ticks of the search
PINNED = [
    ("hexagon", HEX9, 3, 3, 178),
    ("triangle6", _triangle(6), 6, 84, 5_062),
    ("triangle8", _triangle(8), 8, 165, 36_280),
    ("triangle10", _triangle(10), 10, 286, 197_979),
    ("box10", _box(10), 20, 1, 30_570),
    ("box16", _box(16), 32, 1, 181_997),
]


def test_size_limits_are_checked_before_any_point_is_listed(monkeypatch):
    def unlisted(poly):
        raise AssertionError(f"lattice points of {poly} listed")

    monkeypatch.setattr(LatticePolygon, "lattice_points", unlisted)
    # 3 lattice points, a position grid of 10001 * 10003 bits
    with pytest.raises(TooLarge):
        decomp_module._Grid(LatticePolygon([(0, 0), (1, 0), (10**4, 1)]))
    # the point pairs of the 1000x1000 box are charged from their count
    with pytest.raises(BudgetExceeded):
        decomp_module._shapes(_box(1000), _Budget(DEFAULT_BUDGET))
    # the largest box of a bound report, [0, 1022]^2, fits the grid cap
    grid = decomp_module._Grid(_box(1022))
    assert 1023 * grid.stride == 2_093_058 <= decomp_module._GRID_CAP


@pytest.mark.parametrize("poly, length, count, ticks", [p[1:] for p in PINNED],
                         ids=[p[0] for p in PINNED])
def test_pinned_ticks_and_budget_edge(poly, length, count, ticks):
    found = subpolygon_decomposition_search(poly, budget=ticks)
    assert (found.length, len(found.decompositions)) == (length, count)
    with pytest.raises(BudgetExceeded):
        subpolygon_decomposition_search(poly, budget=ticks - 1)


# -- the decompositions against the prefix-sum assembly ----------------------------


def _assert_same_records(poly):
    bud = _Budget(DEFAULT_BUDGET)
    shapes = decomp_module._shapes(poly, bud)
    grid = decomp_module._Grid(poly)
    _, found = decomp_module._largest_multisets(shapes, grid, bud)
    decs = decomp_module._decompositions(poly, shapes, grid, found)
    assert all(d.parent is poly for d in decs)
    got = [(d.translation, d.parts, d.subpolygon) for d in decs]
    oracle = multiset_search.PointGrid(poly)
    assert got == multiset_search.prefix_decompositions(poly, shapes, oracle, found), poly


def test_decompositions_match_the_prefix_sums(small_box):
    for poly in _memo_test_polygons(small_box):
        _assert_same_records(poly)


def test_decompositions_match_the_prefix_sums_on_seeded_polygons():
    # the same seeded sample of [0,4]^2 as the node-search comparison
    rng = random.Random(2502)
    for _ in range(150):
        poly = _random_polygon(rng, 4, rng.randint(2, 8))
        if poly.dim:
            _assert_same_records(poly)


@pytest.mark.parametrize(
    "poly",
    [_triangle(a) for a in range(6, 11)]
    + [_box(d) for d in range(1, 17)]
    + [LatticePolygon([(0, 0), (a, 0), (a, b), (0, b)]) for a, b in [(1, 5), (7, 3), (16, 9)]]
    + [LatticePolygon([(0, 0), (5, 0)]), LatticePolygon([(1, 2), (7, 5)])],
    ids=lambda p: repr(p.vertices),
)
def test_decompositions_match_the_prefix_sums_on_large_polygons(poly):
    _assert_same_records(poly)


@pytest.mark.parametrize(
    "poly",
    # the 2x2 box's only sum is the box itself; the segment's sum moved one
    # column right stays on its line and passes only an end, which the
    # bounding box normals catch
    [_box(2), LatticePolygon([(0, 0), (3, 0)])],
    ids=["box2", "segment"],
)
def test_containment_check_raises_on_a_sum_moved_right(monkeypatch, poly):
    point = decomp_module._Grid.point

    def moved(self, t):
        x, y = point(self, t)
        return x + 1, y

    monkeypatch.setattr(decomp_module._Grid, "point", moved)
    with pytest.raises(InvariantViolation, match="^subpolygon leaves the parent polygon$"):
        subpolygon_decomposition_search(poly)
