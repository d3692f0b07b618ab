import functools
import itertools
import json
import random
from math import gcd, isqrt

import numpy as np
import pytest

import matcher_oracles
import toricode.bounds as bounds_module
import toricode.code as code_module
from lattice_maps import apply_map, classes_in_box, find_equivalence, random_unimodular
from packed_pairing import exact_counts, greedy_picks, packed
from toricode.bounds import (
    BoundEntry,
    LowerBound,
    MaxZeroResult,
    _ReportCache,
    _best_product_section,
    _catalog_sections,
    _check_consistency,
    _closed_forms,
    _component_distance,
    _exhaustive,
    _match_triangle,
    _max_zero_candidates,
    _max_zero_exhaustive,
    _most_zeros,
    _part_candidates,
    _rank3_polygon,
    _run_directions,
    _shape,
    _torus_map,
    certified_upper_bound,
    d_full_triangle,
    d_hirzebruch,
    d_rectangle,
    d_segment,
    d_triangle,
    full_report,
    mainthm_lower_bound,
    max_zero_section,
    rank3_family_distance,
    upper_bound_from_decomposition,
)
from toricode.code import (
    SectionPoly,
    build_code,
    count_torus_zeros,
    evaluate_section,
    min_distance_exact,
    multiply_sections,
    weight_of_section,
)
from toricode.decomp import (
    MinkowskiDecomposition,
    _summand_points,
    best_subpolygon_decomposition,
)
from toricode.errors import (
    DeadlineExceeded,
    FieldTooSmall,
    HypothesisViolated,
    InvariantViolation,
    NoDecomposition,
    PolygonTooLargeForField,
    TooLarge,
)
from toricode.field import field_from_order
from toricode.polygon import LatticePolygon, normal_form

HEX9 = LatticePolygon([(1, 0), (2, 0), (0, 1), (1, 2), (3, 2), (3, 3)])
P54 = LatticePolygon([(0, 0), (1, 0), (3, 1), (2, 2), (1, 2)])
Q1 = LatticePolygon([(0, 0), (2, 1), (1, 2)])
SKEW_TRIANGLE = LatticePolygon([(0, 0), (1, 4), (4, 1)])

F5 = field_from_order(5)
F7 = field_from_order(7)
F8 = field_from_order(8)


@pytest.fixture(autouse=True)
def fresh_distance_memo(monkeypatch):
    """Each test starts from an empty memo of summand distances."""
    monkeypatch.setattr(bounds_module, "_DISTANCES", {})


def exact_distance(poly, field, threads=1):
    return min_distance_exact(build_code(poly, field), threads=threads).weight


# -- closed forms ---------------------------------------------------------------


def test_segment_examples():
    assert d_segment(3, 8) == 28
    assert d_segment(1, 5) == 12
    with pytest.raises(FieldTooSmall):
        d_segment(4, 5)
    with pytest.raises(ValueError):
        d_segment(-1, 5)


@pytest.mark.parametrize("a,q", [(1, 5), (2, 5), (1, 7), (3, 7)])
def test_segment_matches_search(a, q):
    seg = LatticePolygon([(0, 0), (a, 0)])
    assert d_segment(a, q) == exact_distance(seg, field_from_order(q))


def test_triangle_examples():
    assert d_triangle(4, 2, 2, 8) == 21
    assert d_triangle(2, 1, 1, 5) == 8
    # the hypothesis is inclusive: a == b + c is fine
    assert d_triangle(3, 1, 2, 8) == 28
    with pytest.raises(HypothesisViolated):
        d_triangle(2, 1, 2, 5)
    with pytest.raises(FieldTooSmall):
        d_triangle(4, 2, 2, 5)
    with pytest.raises(ValueError):
        d_triangle(4, -1, 2, 8)


def test_triangle_matches_search():
    tri = LatticePolygon([(0, 0), (3, 0), (1, 2)])
    assert d_triangle(3, 1, 2, 7) == exact_distance(tri, F7)


def test_full_triangle():
    assert d_full_triangle(3, 8) == 28
    assert d_full_triangle(1, 5) == 12
    with pytest.raises(FieldTooSmall):
        d_full_triangle(4, 5)
    tri = LatticePolygon([(0, 0), (2, 0), (0, 2)])
    assert d_full_triangle(2, 5) == exact_distance(tri, F5)


def test_closed_forms_refuse_negative_sizes():
    with pytest.raises(ValueError):
        d_full_triangle(-1, 8)
    with pytest.raises(ValueError):
        d_rectangle(-1, 2, 8)
    with pytest.raises(ValueError):
        d_rectangle(2, -1, 8)


def _triangles_up_to_translation(side):
    found = {}
    for a, b, c in itertools.combinations(itertools.product(range(side + 1), repeat=2), 3):
        if (b[0] - a[0]) * (c[1] - a[1]) != (b[1] - a[1]) * (c[0] - a[0]):
            tri = LatticePolygon([a, b, c]).translate_to_origin()
            found[tri.vertices] = tri
    return list(found.values())


def test_standard_triangle_is_the_triangle_form_a_0_a():
    # the oracle is the lattice-equivalence test the triangle-form
    # matcher replaced
    triangles = _triangles_up_to_translation(5)
    assert len(triangles) == 1276
    for tri in triangles:
        side = isqrt(tri.volume2)
        model = LatticePolygon([(0, 0), (side, 0), (0, side)])
        standard = side * side == tri.volume2 and find_equivalence(tri, model) is not None
        names = [name for name, _, _ in _closed_forms(tri, 7)]
        assert ("standard-triangle" in names) == standard, tri


def test_triangle_form_is_the_least_valid_form():
    # brute force over every conv{(0,0),(a,0),(b,c)} with a >= b + c
    triangles = _triangles_up_to_translation(5)
    forms = [_match_triangle(tri) for tri in triangles]
    assert forms == [matcher_oracles.match_triangle(tri) for tri in triangles]
    assert any(form is not None and form[1] > 0 for form in forms)


def _equivalence_classes(span):
    """One polygon per lattice equivalence class in [0, span]^2, by the oracle search."""
    reps = {}
    for key in classes_in_box(span):
        poly = LatticePolygon(key)
        if poly.dim < 2:
            continue
        group = reps.setdefault((len(key), poly.volume2, poly.boundary_count), [])
        if all(find_equivalence(other, poly) is None for other in group):
            group.append(poly)
    return [poly for group in reps.values() for poly in group]


@functools.cache
def _closed_form_polygons():
    """The classes in [0,3]^2, seeded images of them, and seeded images
    of every rank-3 family member with parameters up to 3."""
    rng = random.Random(20261018)
    classes = _equivalence_classes(3)
    images = [
        apply_map(poly, random_unimodular(rng), (rng.randint(-5, 5), rng.randint(-5, 5)))
        for poly in classes
    ]
    members = {}
    for case in bounds_module._RANK3_CASES:
        for a, b, c, r in itertools.product(range(1, 4), repeat=4):
            if case != "III" or b > a:
                members.setdefault(_rank3_polygon(case, a, b, c, r), None)
    family = [apply_map(poly, random_unimodular(rng)) for poly in members]
    return classes, images, family


@functools.cache
def _oracle_matches(poly):
    return (
        matcher_oracles.match_triangle(poly),
        matcher_oracles.match_rectangle(poly),
        matcher_oracles.match_hirzebruch(poly),
        {case: matcher_oracles.match_rank3(poly, case) for case in bounds_module._RANK3_CASES},
    )


def _oracle_closed_forms(poly, q):
    # _closed_forms itself, with every matcher replaced by its oracle
    tri, box, hz, family = _oracle_matches(poly)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bounds_module, "_match_triangle", lambda p: tri)
        # the box matcher is the r = 0 case of the twisted box matcher
        twisted = (*box, 0) if box else hz
        patch.setattr(bounds_module, "_match_hirzebruch", lambda p, form: twisted)
        patch.setattr(bounds_module, "_match_rank3", lambda p, form, case: family[case])
        return list(_closed_forms(poly, q))


def _threshold_polygons(q):
    """(polygon, family, whether its formula holds over F_q) at q and one below.

    Each family's formula holds on the first polygon of its pair and
    raises FieldTooSmall on the second, which does not fit [0, q-2]^2.
    """
    out = []
    for n, holds in ((q - 2, True), (q - 1, False)):
        out += [
            (LatticePolygon([(0, 0), (n, 0)]), "segment", holds),
            (LatticePolygon([(0, 0), (n, 0), (0, n)]), "standard-triangle", holds),
            (LatticePolygon([(0, 0), (n, 0), (1, 1)]), "triangle", holds),
            (LatticePolygon([(0, 0), (n, 0), (n, 1), (0, 1)]), "rectangle", holds),
            # the twisted box (d, e, r) = (2, n - 2, 1), with e + d*r = n
            (LatticePolygon([(0, 0), (2, 0), (0, n - 2), (2, n)]), "hirzebruch", holds),
        ]
    return out


@pytest.mark.parametrize("q", [7, 8, 11, 16, 32])
def test_closed_forms_match_oracles(q):
    classes, images, family = _closed_form_polygons()
    assert len(classes) == 148
    names = set()
    for poly in classes + images + family:
        got = list(_closed_forms(poly, q))
        assert got == _oracle_closed_forms(poly, q), poly
        names.update(name for name, _, _ in got)
    for poly, name, holds in _threshold_polygons(q):
        got = list(_closed_forms(poly, q))
        assert got == _oracle_closed_forms(poly, q), poly
        assert (name in [n for n, _, _ in got]) == holds, poly
        assert (poly.fits_in_box(q) is not None) == holds, poly
    want = {"standard-triangle", "triangle", "rectangle", "hirzebruch"}
    if q > 7:
        want |= {f"family-{case}" for case in bounds_module._RANK3_CASES}
    assert want <= names


@functools.cache
def _summands():
    """Every part of every maximal decomposition of the classes in [0,3]^2,
    and a seeded unimodular image of each, at the origin."""
    parts = {
        p
        for key in classes_in_box(3)
        for dec in best_subpolygon_decomposition(LatticePolygon(key))
        for p in dec.parts
    }
    parts = sorted(parts, key=lambda p: p.vertices)
    assert len(parts) == 56
    rng = random.Random(2901)
    return parts + [apply_map(p, random_unimodular(rng)).translate_to_origin() for p in parts]


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9])
def test_component_distance_matches_search(q, monkeypatch):
    field = field_from_order(q)
    calls = _count_searches(monkeypatch)
    t0s = 0
    for part in _summands():
        if part.fits_in_box(q) is None:
            continue
        points = _summand_points(part)
        assert points == part.num_lattice_points, part
        t0s += points == 4
        searched = len(calls)
        want = min_distance_exact(build_code(part, field)).weight
        assert _component_distance(part, q) == want, part
        # segments and unimodular triangles have a closed form
        assert len(calls) == searched + (points == 4 and searched == 0), part
    # every T0 image shares the one search of its field
    assert t0s >= 5 and len(calls) == 1
    assert list(bounds_module._DISTANCES) == [q]


def test_parts_that_are_no_summands_raise():
    # a length-2 segment, the unit square, a triangle of doubled area 3
    # with an edge of length 3, and a point
    box = LatticePolygon([(0, 0), (4, 0), (4, 4), (0, 4)])
    segment = LatticePolygon([(0, 0), (1, 0)])
    for vs in ([(0, 0), (2, 0)], [(0, 0), (1, 0), (1, 1), (0, 1)], [(0, 0), (3, 0), (0, 1)],
               [(0, 0)]):
        part = LatticePolygon(vs)
        with pytest.raises(InvariantViolation, match="is not a summand"):
            _summand_points(part)
        dec = MinkowskiDecomposition(box, (0, 0), (segment, part))
        with pytest.raises(InvariantViolation, match="is not a summand"):
            mainthm_lower_bound(box, 8, [dec])
        with pytest.raises(InvariantViolation, match="is not a summand"):
            certified_upper_bound(box, F8, [dec])


def _count_searches(monkeypatch):
    calls = []
    real = bounds_module.min_distance_exact
    monkeypatch.setattr(
        bounds_module, "min_distance_exact", lambda *a, **k: calls.append(1) or real(*a, **k)
    )
    return calls


def test_second_report_on_an_equivalent_polygon_runs_no_component_search(monkeypatch):
    calls = _count_searches(monkeypatch)
    first = full_report(P54, F8)
    # the pentagon's summand Q1 has no closed form
    assert len(calls) == 1
    image = apply_map(P54, ((1, 1), (0, 1))).translate_to_origin()
    assert image.fits_in_box(8) is not None
    second = full_report(image, F8)
    assert len(calls) == 1

    def decomposition_entries(report):
        return [
            (e.name, e.value, e.applicable)
            for e in report.entries
            if e.name.startswith(("product-bound", "decomposition-lower"))
        ]

    assert decomposition_entries(second) == decomposition_entries(first) != []


def test_component_search_cut_by_the_deadline_stores_nothing():
    with pytest.raises(DeadlineExceeded):
        _component_distance(Q1, 16, deadline=1e-9)
    assert bounds_module._DISTANCES == {}
    want = min_distance_exact(build_code(Q1, field_from_order(16))).weight
    assert _component_distance(Q1, 16) == want
    assert set(bounds_module._DISTANCES.values()) == {want}


def test_component_search_runs_on_the_summand_not_its_normal_form(monkeypatch):
    # Q1 fits the box [0, 2]^2 of F4; its normal form spans 2x3
    assert Q1.fits_in_box(4) is not None
    assert LatticePolygon(normal_form(Q1)[0]).fits_in_box(4) is None
    calls = _count_searches(monkeypatch)
    want = min_distance_exact(build_code(Q1, field_from_order(4))).weight
    assert _component_distance(Q1, 4) == want
    assert len(calls) == 1


def test_rectangle_examples():
    assert d_rectangle(1, 1, 5) == 9
    assert d_rectangle(1, 2, 8) == 30
    assert d_rectangle(2, 1, 8) == d_rectangle(1, 2, 8)
    # a flat box degenerates to the segment formula
    assert d_rectangle(0, 2, 5) == d_segment(2, 5)
    with pytest.raises(FieldTooSmall):
        d_rectangle(1, 4, 5)


def test_rectangle_matches_search():
    box = LatticePolygon([(0, 0), (1, 0), (1, 1), (0, 1)])
    assert d_rectangle(1, 1, 5) == exact_distance(box, F5)


def test_hirzebruch_examples():
    assert d_hirzebruch(1, 1, 1, 7) == 24
    assert d_hirzebruch(1, 2, 1, 8) == 28
    assert d_hirzebruch(1, 2, 0, 8) == d_rectangle(1, 2, 8)
    with pytest.raises(FieldTooSmall):
        d_hirzebruch(1, 3, 4, 8)
    with pytest.raises(ValueError):
        d_hirzebruch(1, -2, 1, 8)


def test_hirzebruch_matches_search():
    quad = LatticePolygon([(0, 0), (1, 0), (0, 1), (1, 2)])
    assert d_hirzebruch(1, 1, 1, 7) == exact_distance(quad, F7)


# -- the rank-3 families --------------------------------------------------------


def test_rank3_case_i():
    value, poly = rank3_family_distance("I", 1, 1, 1, 1, 7)
    assert value == 12
    assert poly.vertices == ((0, 0), (4, 0), (2, 2), (1, 2), (0, 1))
    assert rank3_family_distance("I", 1, 1, 1, 1, 8)[0] == 21
    with pytest.raises(FieldTooSmall):
        rank3_family_distance("I", 1, 1, 1, 1, 5)


def test_rank3_case_ii_quadrilaterals():
    # r = 1 with c > a
    value, poly = rank3_family_distance("II", 1, 1, 2, 1, 7)
    assert value == 18
    assert poly.vertices == ((0, 0), (2, 0), (2, 3), (0, 1))
    assert rank3_family_distance("II", 1, 1, 2, 1, 8)[0] == 28
    # r = 1 with a > c gives the transposed shape, same drop
    value, poly = rank3_family_distance("II", 2, 1, 1, 1, 7)
    assert value == 18
    assert poly.vertices == ((0, 0), (1, 0), (3, 2), (0, 2))
    # r = 1 with a == c collapses to a right triangle
    value, poly = rank3_family_distance("II", 1, 1, 1, 1, 5)
    assert value == 8
    assert poly.vertices == ((0, 0), (2, 0), (2, 2))
    assert rank3_family_distance("II", 1, 1, 1, 1, 7)[0] == 24
    assert rank3_family_distance("II", 1, 1, 1, 1, 8)[0] == 35


def test_rank3_case_ii_pentagon():
    value, poly = rank3_family_distance("II", 1, 1, 1, 2, 7)
    assert value == 12
    assert poly.vertices == ((0, 0), (2, 0), (2, 4), (1, 3), (0, 1))
    assert rank3_family_distance("II", 1, 1, 1, 2, 8)[0] == 21


def test_rank3_case_iii():
    value, poly = rank3_family_distance("III", 1, 2, 1, 1, 7)
    assert value == 12
    assert poly.vertices == ((0, 0), (1, 0), (1, 4), (0, 3))
    assert rank3_family_distance("III", 1, 2, 1, 1, 8)[0] == 21
    # r enters the signature but not the shape
    assert rank3_family_distance("III", 1, 2, 1, 5, 8) == rank3_family_distance(
        "III", 1, 2, 1, 1, 8
    )
    with pytest.raises(HypothesisViolated):
        rank3_family_distance("III", 2, 1, 1, 1, 8)
    with pytest.raises(HypothesisViolated):
        rank3_family_distance("III", 2, 2, 1, 1, 8)


def test_rank3_case_iii_is_twisted_box():
    _, poly = rank3_family_distance("III", 1, 3, 2, 1, 11)
    # conv{(0,0),(1,0),(1,2b+c-a),(0,b+c)} is the twisted box with
    # d = 1, e = b+c, r = b-a, so the two formulas must agree
    assert rank3_family_distance("III", 1, 3, 2, 1, 11)[0] == d_hirzebruch(1, 5, 2, 11)


def test_rank3_case_iv():
    value, poly = rank3_family_distance("IV", 1, 1, 1, 1, 7)
    assert value == 12
    assert poly.vertices == ((0, 0), (4, 0), (4, 1), (3, 2), (2, 2))
    assert rank3_family_distance("IV", 1, 1, 1, 1, 8)[0] == 21


def test_rank3_validation():
    with pytest.raises(HypothesisViolated):
        rank3_family_distance("I", 0, 1, 1, 1, 7)
    with pytest.raises(ValueError):
        rank3_family_distance("V", 1, 1, 1, 1, 7)


def test_rank3_closed_areas_match_the_polygons():
    # _rank3_members raises where they differ, but only reaches members
    # whose closed area already equals the area it looks up
    for case in bounds_module._RANK3_CASES:
        for a, b, c, r in itertools.product(range(1, 8), repeat=4):
            if case == "III" and (b <= a or r != 1):
                continue
            want = _rank3_polygon(case, a, b, c, r).volume2
            assert bounds_module._rank3_volume2(case, a, b, c, r) == want, (case, a, b, c, r)


@pytest.mark.parametrize(
    "case,params,q,want",
    [
        ("II", (1, 1, 1, 1), 5, 8),
        ("II", (1, 1, 2, 1), 7, 18),
        ("II", (2, 1, 1, 1), 7, 18),
        ("III", (1, 2, 1, 1), 7, 12),
    ],
)
def test_rank3_matches_search(case, params, q, want):
    value, poly = rank3_family_distance(case, *params, q)
    assert value == want
    assert exact_distance(poly, field_from_order(q)) == want


# -- decomposition upper bounds -------------------------------------------------


def trivial_decomposition(poly):
    sub = poly.translate_to_origin()
    x0, y0, _, _ = poly.bounding_box()
    return MinkowskiDecomposition(poly, (x0, y0), (sub,))


def test_upper_bound_identity_for_single_part():
    dec = trivial_decomposition(Q1)
    assert upper_bound_from_decomposition(dec, 8, [40]) == 40


def test_upper_bound_component_count_checked():
    dec = trivial_decomposition(Q1)
    with pytest.raises(ValueError):
        upper_bound_from_decomposition(dec, 8, [40, 42])


def test_upper_bound_values_on_decomposable_pentagon():
    # one split uses the genus-one triangle, the rest are flat pieces;
    # the two distinct bound values at q = 8 are 33 and 35
    decs = best_subpolygon_decomposition(P54)
    assert decs and all(d.ell == 2 for d in decs)
    values = set()
    cache = {}
    for dec in decs:
        comps = []
        for part in dec.parts:
            key = part.vertices
            if key not in cache:
                if part.dim == 1:
                    cache[key] = d_segment(part.num_lattice_points - 1, 8)
                else:
                    cache[key] = exact_distance(part, F8)
            comps.append(cache[key])
        values.add(upper_bound_from_decomposition(dec, 8, comps))
    assert values == {33, 35}


# -- section maximization -------------------------------------------------------


def test_max_zero_unit_segment():
    res = max_zero_section(LatticePolygon([(0, 0), (1, 0)]), F5)
    assert isinstance(res, MaxZeroResult)
    assert res.zeros == 4 and res.exhaustive


def test_max_zero_unit_triangle():
    res = max_zero_section(LatticePolygon([(0, 0), (1, 0), (0, 1)]), F5)
    assert res.zeros == 4 and res.exhaustive


def test_max_zero_point():
    res = max_zero_section(LatticePolygon([(2, 3)]), F5)
    assert res.zeros == 0 and res.exhaustive
    assert res.section.terms == {(2, 3): 1}


def test_max_zero_genus_one_triangle():
    res = max_zero_section(Q1, F8)
    assert res.zeros == 9 and res.exhaustive
    # the count is realized by an actual codeword
    assert weight_of_section(res.section, build_code(Q1, F8)) == 49 - 9


def test_max_zero_catalog_fallback(monkeypatch):
    monkeypatch.setattr(bounds_module, "DEFAULT_SECTION_BUDGET", 10)
    tri = LatticePolygon([(1, 1), (2, 1), (1, 2)])
    res = max_zero_section(tri, F5)
    assert not res.exhaustive
    assert res.zeros == 4
    # support must stay inside the polygon as given
    assert all(tri.contains(pt) for pt in res.section.terms)


def test_max_zero_too_large():
    with pytest.raises(PolygonTooLargeForField):
        max_zero_section(LatticePolygon([(0, 0), (9, 0)]), F5)


def max_zero_oracle(poly, field, cap=None):
    """Message-by-message maximization in lead-then-lexicographic order.

    Strictly more zeros restart the winner list; ties are appended
    while fewer than `cap` are held.
    """
    pts = [tuple(p) for p in poly.lattice_points()]
    rows = [evaluate_section(SectionPoly({p: 1}), field) for p in pts]
    best = -1
    winners = []
    for lead in range(len(pts)):
        for tail in itertools.product(range(field.q), repeat=len(pts) - lead - 1):
            msg = [0] * lead + [1] + list(tail)
            word = np.zeros_like(rows[0])
            for row, coeff in zip(rows, msg):
                if coeff:
                    word = field.add_np(word, field.scale_np(row, coeff))
            zeros = int(np.count_nonzero(word == 0))
            if zeros > best:
                best, winners = zeros, [msg]
            elif zeros == best and (cap is None or len(winners) < cap):
                winners.append(msg)
    return best, [SectionPoly({p: c for p, c in zip(pts, m) if c}) for m in winners]


def _oracle_polygons():
    fixed = [
        [(0, 0)],
        [(0, 0), (1, 0)],
        [(0, 0), (3, 0)],
        [(0, 0), (2, 1)],
        [(0, 0), (1, 0), (0, 1)],
        [(0, 0), (2, 1), (1, 2)],
    ]
    polys = [LatticePolygon(v) for v in fixed]
    rng = random.Random(4005)
    while len(polys) < len(fixed) + 4:
        poly = LatticePolygon([(rng.randrange(4), rng.randrange(4)) for _ in range(5)])
        if poly.num_lattice_points in (4, 5):
            polys.append(poly)
    return polys


def _lead(section, pts):
    return min(pts.index(m) for m in section.terms)


def _built(poly, vectors):
    """Sections of candidate vectors over poly's lattice points in lexicographic order."""
    pts = poly.lattice_points()
    return [SectionPoly({p: c for p, c in zip(pts, v) if c}) for v in vectors]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_max_zero_exhaustive_matches_oracle(q):
    field = field_from_order(q)
    n = (q - 1) ** 2
    crossed = 0
    for poly in _oracle_polygons():
        pts = [tuple(p) for p in poly.lattice_points()]
        _, everyone = max_zero_oracle(poly, field)
        # one past the winners of the first lead block holding any, so the
        # list runs on into a later block
        first = _lead(everyone[0], pts)
        past_first = sum(_lead(s, pts) == first for s in everyone) + 1
        crossed += past_first <= len(everyone)
        for cap in (1, 64, None, past_first):
            best, vectors, zeros = _max_zero_exhaustive(poly, field, cap=cap)
            sections = _built(poly, vectors)
            want_best, want_sections = max_zero_oracle(poly, field, cap=cap)
            assert best == want_best, (poly.vertices, cap)
            assert [s.terms for s in sections] == [s.terms for s in want_sections]
            assert len(zeros) == len(sections)
            for s, got in zip(sections, zeros):
                want = evaluate_section(s, field) == 0
                assert np.array_equal(_dense(got[None], [len(got)], n)[0], want), (poly.vertices, s)
    assert crossed > 0


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_max_zero_exhaustive_matches_the_distance_search(q):
    field = field_from_order(q)
    unit_segment = LatticePolygon([(0, 0), (1, 0)])
    unit_triangle = LatticePolygon([(0, 0), (1, 0), (0, 1)])
    t0 = LatticePolygon([(1, 0), (0, 1), (2, 2)])
    searched = 0
    for poly in [unit_segment, unit_triangle, t0] + _oracle_polygons():
        if poly.fits_in_box(q) is None or not bounds_module._exhaustive(poly, q):
            continue
        best, _, _ = _max_zero_exhaustive(poly, field, cap=1)
        d = min_distance_exact(build_code(poly, field)).weight
        assert best == (q - 1) ** 2 - d, poly.vertices
        searched += 1
    assert searched > 0


@pytest.mark.parametrize("q", [4, 8, 9, 64, 256])
def test_winner_zero_lists_match_a_scan_per_winner(q):
    # every maximizer: a segment's q-1 winners all lie in one column, and
    # the triangles' in several columns and leads
    field = field_from_order(q)
    segment = LatticePolygon([(0, 0), (1, 0)])
    assert len(_max_zero_exhaustive(segment, field)[1]) == q - 1
    for poly in (
        segment,
        LatticePolygon([(0, 0), (1, 0), (0, 1)]),
        LatticePolygon([(1, 0), (0, 1), (2, 2)]),
        LatticePolygon([(0, 0), (2, 0), (0, 1)]),
    ):
        if not bounds_module._exhaustive(poly, q):
            continue
        _, vectors, zeros = _max_zero_exhaustive(poly, field)
        for s, got in zip(_built(poly, vectors), zeros):
            want = np.flatnonzero(evaluate_section(s, field) == 0)
            assert got.dtype == want.dtype and np.array_equal(got, want), (poly.vertices, s)


# -- the first maximizer from one prefix per torus orbit ------------------------

RESTRICTED_QS = [3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 25, 27, 32]


def orbit_prefixes_oracle(field, pts):
    """Least prefix of each orbit of the torus on the rows after pts[0], by closure.

    The torus point (g^s, g^t) multiplies the coefficient at pts[0] + (a, b)
    by g^(s*a + t*b); prefixes are visited in lexicographic order, so the
    first one not yet reached is the least of its orbit.
    """
    q, qm = field.q, field.q - 1
    steps = [(x - pts[0][0], y - pts[0][1]) for x, y in pts[1:]]

    def act(prefix, s, t):
        return tuple(
            0 if c == 0 else field.exp_table[(field.log_table[c] + s * a + t * b) % qm]
            for c, (a, b) in zip(prefix, steps)
        )

    reached, least = set(), []
    for prefix in itertools.product(range(q), repeat=len(steps)):
        if prefix in reached:
            continue
        least.append(sum(c * q**i for i, c in enumerate(reversed(prefix))))
        todo = [prefix]
        reached.add(prefix)
        while todo:
            here = todo.pop()
            for there in (act(here, 1, 0), act(here, 0, 1)):
                if there not in reached:
                    reached.add(there)
                    todo.append(there)
    return least


# (lead, next, the one after): a collinear triple (det 0, row lead+2
# unrestricted after a 1), a step of (0, 2) (index 2 at odd q), det 2
# and det 3, and a triple whose steps and det are prime to every q-1
ORBIT_TRIPLES = [
    [(0, 0), (1, 0), (2, 0)],
    [(0, 0), (0, 1), (0, 2)],
    [(0, 0), (1, -1), (2, 0)],
    [(0, 0), (1, 0), (2, 3)],
    [(0, 0), (1, 0), (1, 1)],
]


@pytest.mark.parametrize("q", RESTRICTED_QS)
def test_orbit_prefixes_are_the_least_of_each_torus_orbit(q):
    field = field_from_order(q)
    assert bounds_module._orbit_prefixes(field, [(0, 0), (1, 0)]) == [0, 1]
    assert bounds_module._orbit_prefixes(field, [(3, 1), (4, 3)]) == [0, 1]
    for pts in ORBIT_TRIPLES:
        assert bounds_module._orbit_prefixes(field, pts) == orbit_prefixes_oracle(field, pts), pts
    # after a 1 on the first row, the collinear triple keeps every value
    assert bounds_module._orbit_prefixes(field, ORBIT_TRIPLES[0])[-q:] == list(range(q, 2 * q))


@functools.cache
def _small_classes():
    """One polygon per class in [0,3]^2 up to unimodular equivalence, segments included."""
    forms = {}
    for key in sorted(classes_in_box(3)):
        poly = LatticePolygon(key)
        forms.setdefault(normal_form(poly)[0], poly)
    return list(forms.values())


def _restricted_kinds(pts, q):
    """Which restrictions the leads of pts exercise, with the dets of their triples.

    Three consecutive lattice points span a triangle whose lattice
    points all lie between them in lexicographic order, so it is empty:
    the det is 0 or +-1, and a step of index above 1 is a collinear one.
    """
    kinds, dets = set(), set()
    for p0, p1, p2 in zip(pts, pts[1:], pts[2:-1]):
        det = (p1[0] - p0[0]) * (p2[1] - p0[1]) - (p1[1] - p0[1]) * (p2[0] - p0[0])
        dets.add(det)
        if det == 0:
            kinds.add("collinear")
        if gcd(p2[0] - p0[0], p2[1] - p0[1], q - 1) > 1:
            kinds.add("step")
    return kinds, dets


@pytest.mark.parametrize("q", RESTRICTED_QS)
def test_first_maximizer_matches_the_full_scan(q):
    # every class in [0,3]^2 and two seeded unimodular images of each, where
    # the search is exhaustive; the images change which points follow a lead.
    # Named: a column of four points (collinear leads, steps (0, 2)) and a
    # triangle with a collinear bottom row
    field = field_from_order(q)
    rng = random.Random(2200 + q)
    polys = [HEX9, P54, Q1]
    polys += [LatticePolygon([(0, 0), (0, 3)]), LatticePolygon([(0, 0), (3, 0), (0, 1)])]
    for poly in _small_classes():
        polys += [poly] + [apply_map(poly, random_unimodular(rng)) for _ in range(2)]
    searched, oracled, kinds = 0, 0, set()
    for poly in polys:
        poly = _boxed(poly, q)
        if poly is None or not bounds_module._exhaustive(poly, q):
            continue
        best, vectors, zeros = _max_zero_exhaustive(poly, field, cap=1)
        want_best, want_vectors, want_zeros = _max_zero_exhaustive(poly, field)
        sections, want_sections = _built(poly, vectors), _built(poly, want_vectors)
        assert best == want_best and sections == want_sections[:1], (poly.vertices, q)
        assert np.array_equal(zeros[0], want_zeros[0]), (poly.vertices, q)
        pts = poly.lattice_points()
        if q ** len(pts) <= 1024:
            assert (best, sections) == max_zero_oracle(poly, field, cap=1), (poly.vertices, q)
            oracled += 1
        searched += 1
        more, dets = _restricted_kinds(pts, q)
        assert dets <= {-1, 0, 1}, poly.vertices
        kinds |= more
    assert searched > 0 and oracled > 0
    # a collinear lead triple needs four points at least two apart, which
    # fit from F4; row lead+2 after 0 has cosets of index 2 at odd q
    if q >= 4 and q**4 <= bounds_module.DEFAULT_SECTION_BUDGET:
        assert kinds == ({"collinear", "step"} if q % 2 else {"collinear"}), kinds


# -- the section search against field-arithmetic oracles -----------------------
#
# The routines the exponent-domain search replaced: evaluation by
# multiply-and-mod over every torus point, catalog sections built in
# full and ranked by counting their zeros, and pairing loops over
# boolean masks.


def evaluate_section_oracle(s, field):
    qm = field.q - 1
    i_idx = np.repeat(np.arange(qm, dtype=np.int64), qm)
    j_idx = np.tile(np.arange(qm, dtype=np.int64), qm)
    acc = np.zeros(qm * qm, dtype=field.dtype)
    for (a, b), c in sorted(s.terms.items()):
        logs = (i_idx * a + j_idx * b + field.log_table[c]) % qm
        acc = field.add_np(acc, field.exp_np[logs])
    return acc


def zero_mask_oracle(s, field):
    return evaluate_section_oracle(s, field) == 0


def _pencil_section_oracle(field, base, u, alphas):
    s = SectionPoly({(0, 0): 1})
    for al in alphas:
        s = multiply_sections(s, SectionPoly({u: 1, (0, 0): field.neg(al)}), field)
    return s.shift(*base)


def _best_run(ptset, u):
    # longest consecutive lattice run along u; convexity makes
    # consecutive and endpoint containment equivalent
    best, base = 0, None
    for p in sorted(ptset):
        x, y = p
        t = 0
        while (x + u[0], y + u[1]) in ptset:
            x, y, t = x + u[0], y + u[1], t + 1
        if t > best:
            best, base = t, p
    return best, base


def catalog_walk_oracle(poly, q):
    """The split-form catalog as (zeros, base, pencils), walking runs from each point anew."""
    qm = q - 1
    pts = [tuple(p) for p in poly.lattice_points()]
    ptset = set(pts)
    out = []
    runs = {}
    for u in _run_directions(pts):
        t, base = _best_run(ptset, u)
        if t:
            runs[u] = (t, base)

    for u in sorted(runs):
        t, base = runs[u]
        out += [(t * qm, base, ((u, t, j),)) for j in range(qm)]

    for u, v in itertools.combinations(sorted(runs), 2):
        if abs(u[0] * v[1] - u[1] * v[0]) != 1:
            continue
        best = None
        for p in pts:
            t1 = 0
            x, y = p
            while (x + u[0], y + u[1]) in ptset:
                x, y, t1 = x + u[0], y + u[1], t1 + 1
            for i in range(1, t1 + 1):
                t2 = 0
                cx, cy = p[0] + i * u[0], p[1] + i * u[1]
                while (
                    (p[0] + v[0] * (t2 + 1), p[1] + v[1] * (t2 + 1)) in ptset
                    and (cx + v[0] * (t2 + 1), cy + v[1] * (t2 + 1)) in ptset
                ):
                    t2 += 1
                if t2 < 1:
                    continue
                score = (i + t2) * qm - i * t2
                if best is None or score > best[0]:
                    best = (score, p, i, t2)
        if best is not None:
            score, p, t1, t2 = best
            out.append((score, p, ((u, t1, 0), (v, t2, 0))))
    return out


def catalog_sections_oracle(poly, field):
    """The split-form catalog with every section built, in catalog order."""
    q = field.q

    def roots(length, offset):
        return [field.exp_table[(offset + i) % (q - 1)] for i in range(length)]

    out = []
    for _, base, pencils in catalog_walk_oracle(poly, q):
        sec = SectionPoly({(0, 0): 1})
        for u, t, offset in pencils:
            sec = multiply_sections(
                sec, _pencil_section_oracle(field, (0, 0), u, roots(t, offset)), field
            )
        out.append(sec.shift(*base))
    return out


def catalog_candidates_oracle(poly, field, cap=64):
    """Catalog sections ranked by counted zeros, then catalog index."""
    scored = []
    for i, cand in enumerate(catalog_sections_oracle(poly, field)):
        scored.append((-int(np.count_nonzero(zero_mask_oracle(cand, field))), i, cand))
    scored.sort(key=lambda s: s[:2])
    return [cand for _, _, cand in scored[:cap]]


def best_pick_oracle(masks, pairing_cap):
    """Exact search over all candidate tuples, or greedy from every first factor."""
    sizes = [len(m) for m in masks]
    total = 1
    for s in sizes:
        total *= s
    best_count, best_pick = -1, None
    if total <= pairing_cap:
        for pick in itertools.product(*(range(s) for s in sizes)):
            union = masks[0][pick[0]]
            for part, idx in enumerate(pick[1:], start=1):
                union = union | masks[part][idx]
            count = int(np.count_nonzero(union))
            if count > best_count:
                best_count, best_pick = count, pick
    else:
        for first in range(sizes[0]):
            pick = [first]
            union = masks[0][first]
            for part in range(1, len(sizes)):
                gains = [
                    int(np.count_nonzero(union | masks[part][i]))
                    for i in range(sizes[part])
                ]
                idx = max(range(sizes[part]), key=lambda i: (gains[i], -i))
                pick.append(idx)
                union = union | masks[part][idx]
            count = int(np.count_nonzero(union))
            if count > best_count:
                best_count, best_pick = count, tuple(pick)
    return best_count, best_pick


def best_product_oracle(dec, field, pairing_cap):
    cand_lists = [_built(p, bounds_module._max_zero_candidates(p, field)[0]) for p in dec.parts]
    masks = [[zero_mask_oracle(s, field) for s in lst] for lst in cand_lists]
    count, pick = best_pick_oracle(masks, pairing_cap)
    section = cand_lists[0][pick[0]]
    for part, idx in enumerate(pick[1:], start=1):
        section = multiply_sections(section, cand_lists[part][idx], field)
    section = section.shift(*dec.translation)
    assert count == int(np.count_nonzero(zero_mask_oracle(section, field)))
    return count, section


ORACLE_QS = [3, 4, 5, 7, 8, 9, 16, 27, 49, 64]


def _section_search_polygons():
    polys = [
        LatticePolygon([(0, 0), (1, 0), (1, 1), (0, 1)]),
        LatticePolygon([(0, 0), (4, 0), (0, 1)]),
        HEX9, P54, Q1, SKEW_TRIANGLE, BOX22,
    ]
    rng = random.Random(8)
    while len(polys) < 12:
        poly = LatticePolygon([(rng.randint(0, 4), rng.randint(0, 4)) for _ in range(5)])
        if poly.dim == 2:
            polys.append(poly)
    return polys


def _boxed(poly, q):
    shift = poly.fits_in_box(q)
    return None if shift is None else poly.translate(*shift)


def _dense(zeros, sizes, n):
    """Boolean masks from zero lists padded with n, checking the lists as it goes."""
    dense = np.zeros((len(zeros), n), dtype=bool)
    for row, got, size in zip(dense, zeros, sizes):
        assert np.all(np.diff(got[:size]) > 0) and np.all(got[size:] == n)
        row[got[:size]] = True
    return dense


@pytest.mark.parametrize("q", ORACLE_QS)
def test_evaluate_section_matches_oracle(q):
    field = field_from_order(q)
    rng = random.Random(q)
    for _ in range(20):
        terms = {
            (rng.randint(-2 * q, 2 * q), rng.randint(-2 * q, 2 * q)): rng.randrange(1, q)
            for _ in range(rng.randint(1, 4))
        }
        # negative exponents and exponents of q-1 and beyond
        terms[(-1, q - 1)] = 1
        terms[(q, -q - 3)] = rng.randrange(1, q)
        s = SectionPoly(terms)
        assert np.array_equal(evaluate_section(s, field), evaluate_section_oracle(s, field))


@pytest.mark.parametrize("q", ORACLE_QS)
def test_catalog_scores_and_masks_match_oracle(q):
    field = field_from_order(q)
    negative = 0
    for poly in _section_search_polygons():
        boxed = _boxed(poly, q)
        if boxed is None:
            continue
        entries = _catalog_sections(boxed, field, q - 1)
        sections = [e.section(field) for e in entries]
        assert sections == catalog_sections_oracle(boxed, field)
        for entry, section in zip(entries, sections):
            want = zero_mask_oracle(section, field)
            assert entry.zeros == int(np.count_nonzero(want)), (poly.vertices, entry)
            assert np.array_equal(entry.zero_mask(q - 1), want), (poly.vertices, entry)
            negative += any(min(u) < 0 for u, _, _ in entry.pencils)
    if q >= 7:
        assert negative > 0


@pytest.mark.parametrize("q", [8, 64])
def test_catalog_run_maps_match_the_two_walk_catalog(q):
    # every translation class in [0,3]^2, segments included
    field = field_from_order(q)
    classes = classes_in_box(3)
    assert len(classes) == 1657
    for key in classes:
        poly = LatticePolygon(key)
        entries = _catalog_sections(poly, field, q - 1)
        assert [tuple(e) for e in entries] == catalog_walk_oracle(poly, q)


def test_catalog_run_maps_match_the_two_walk_catalog_on_a_large_box():
    box = LatticePolygon([(0, 0), (10, 0), (10, 10), (0, 10)])
    entries = [tuple(e) for e in _catalog_sections(box, field_from_order(64), 63)]
    assert entries == catalog_walk_oracle(box, 64)
    assert len(entries) > 63 * 20


def _top(entries, cap):
    return [tuple(e) for e in sorted(entries, key=lambda e: -e.zeros)[:cap]]


@pytest.mark.parametrize("q", ORACLE_QS + [128, 256])
def test_truncated_catalog_keeps_the_full_catalogs_top(q):
    field = field_from_order(q)
    polys = _section_search_polygons() + [LatticePolygon([(0, 0), (10, 0), (10, 10), (0, 10)])]
    for poly in polys:
        boxed = _boxed(poly, q)
        if boxed is None:
            continue
        full = _catalog_sections(boxed, field, q - 1)
        for cap in sorted({1, 2, 5, bounds_module._CANDIDATE_CAP, q - 1, q}):
            entries = _catalog_sections(boxed, field, cap)
            assert _top(entries, cap) == _top(full, cap), (poly.vertices, cap)
            # min(cap, q-1) rotations per direction, and the same pairs
            singles = sum(len(e.pencils) == 1 for e in full) // (q - 1)
            assert len(entries) == len(full) - singles * (q - 1 - min(cap, q - 1))


@pytest.mark.parametrize("q", ORACLE_QS)
def test_max_zero_candidates_match_oracle(q):
    field = field_from_order(q)
    n = (q - 1) ** 2
    for poly in _section_search_polygons():
        part = _boxed(poly, q)
        if part is None:
            continue
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bounds_module, "DEFAULT_SECTION_BUDGET", 0)
            vectors, zeros, sizes = _max_zero_candidates(part, field)
        sections = _built(part, vectors)
        assert sections == catalog_candidates_oracle(part, field), poly.vertices
        want = [zero_mask_oracle(s, field) for s in sections]
        assert np.array_equal(_dense(zeros, sizes, n), np.array(want).reshape(len(want), n))
        vectors, zeros, sizes = _max_zero_candidates(part, field)
        sections = _built(part, vectors)
        want = [zero_mask_oracle(s, field) for s in sections]
        assert np.array_equal(_dense(zeros, sizes, n), np.array(want).reshape(len(want), n))


@pytest.mark.parametrize("catalog", [False, True], ids=["default", "catalog"])
@pytest.mark.parametrize("q", ORACLE_QS)
def test_best_product_section_matches_oracle(q, catalog, monkeypatch):
    field = field_from_order(q)
    if catalog:
        monkeypatch.setattr(bounds_module, "DEFAULT_SECTION_BUDGET", 0)
    # two rows per chunk, so that both searches cross chunk boundaries
    monkeypatch.setattr(bounds_module, "_PAIRING_BYTES", 2 * ((q - 1) ** 2 + 1))
    pairing_cap = bounds_module._PAIRING_CAP
    branches = {"exact": 0, "greedy": 0}
    crossed = {"exact": 0, "greedy": 0}
    for poly in _section_search_polygons():
        boxed = _boxed(poly, q)
        if boxed is None or boxed.num_lattice_points > 10:
            continue
        for dec in best_subpolygon_decomposition(boxed):
            sizes = [len(bounds_module._max_zero_candidates(p, field)[0]) for p in dec.parts]
            for branch, cap in (("exact", pairing_cap), ("greedy", 0)):
                if branch == "exact" and int(np.prod(sizes)) > cap:
                    continue
                monkeypatch.setattr(bounds_module, "_PAIRING_CAP", cap)
                got = _best_product_section(dec, field, _ReportCache())
                want = best_product_oracle(dec, field, cap)
                assert got[0] == want[0] and got[1] == want[1], (poly.vertices, dec.parts)
                branches[branch] += len(dec.parts) > 1
                rows = int(np.prod(sizes[:-1])) if branch == "exact" else sizes[0]
                crossed[branch] += len(dec.parts) > 1 and rows > 2
    assert branches["exact"] > 0 and branches["greedy"] > 0
    # over F3 no search has more than two rows
    if q > 3:
        assert crossed["exact"] > 0 and crossed["greedy"] > 0


def test_catalog_zero_count_is_checked(monkeypatch):
    monkeypatch.setattr(bounds_module, "DEFAULT_SECTION_BUDGET", 0)
    res = max_zero_section(P54, F8)
    assert not res.exhaustive
    assert res.zeros == count_torus_zeros(res.section, F8)
    monkeypatch.setattr(bounds_module, "count_torus_zeros", lambda s, f: res.zeros - 1)
    with pytest.raises(InvariantViolation):
        max_zero_section(P54, F8)


def test_catalog_candidates_refuse_terms_off_the_polygon(monkeypatch):
    monkeypatch.setattr(bounds_module, "DEFAULT_SECTION_BUDGET", 0)
    catalog = bounds_module._catalog_sections

    def moved_off(poly, field, cap):
        entries = catalog(poly, field, cap)
        # the top-ranked entry, the first of the most zeros, is always kept
        top = entries.index(max(entries, key=lambda e: e.zeros))
        entries[top] = entries[top]._replace(base=(-1, -1))
        return entries

    assert len(_max_zero_candidates(P54, F8)[0]) > 0
    monkeypatch.setattr(bounds_module, "_catalog_sections", moved_off)
    with pytest.raises(InvariantViolation):
        _max_zero_candidates(P54, F8)


def test_bound_reports_refuse_huge_tori():
    field = field_from_order(2048)
    with pytest.raises(TooLarge):
        certified_upper_bound(P54, field, [])
    with pytest.raises(TooLarge):
        full_report(P54, field)
    # the largest field under the cap still runs
    value, _ = certified_upper_bound(LatticePolygon([(0, 0)]), field_from_order(1024), [])
    assert value == 1023**2


# -- certified upper bounds -----------------------------------------------------


def test_certified_hexagon():
    decs = best_subpolygon_decomposition(HEX9)
    value8, witness8 = certified_upper_bound(HEX9, F8, decs)
    assert value8 == 30
    assert weight_of_section(witness8, build_code(HEX9, F8)) == 30
    value7, _ = certified_upper_bound(HEX9, F7, decs)
    assert value7 == 20


def test_certified_decomposable_pentagon():
    decs = best_subpolygon_decomposition(P54)
    value, witness = certified_upper_bound(P54, F8, decs)
    assert value == 33
    assert weight_of_section(witness, build_code(P54, F8)) == 33


def test_certified_spiked_triangle():
    decs = best_subpolygon_decomposition(SKEW_TRIANGLE)
    value, witness = certified_upper_bound(SKEW_TRIANGLE, F8, decs)
    assert value == 28
    assert weight_of_section(witness, build_code(SKEW_TRIANGLE, F8)) == 28


def test_certified_point():
    value, witness = certified_upper_bound(LatticePolygon([(1, 1)]), F5, [])
    assert value == 16
    assert witness.terms == {(1, 1): 1}


def test_certified_at_least_exact():
    decs = best_subpolygon_decomposition(Q1)
    value, _ = certified_upper_bound(Q1, F8, decs)
    assert value >= exact_distance(Q1, F8) == 40


BOX22 = LatticePolygon([(0, 0), (2, 0), (2, 2), (0, 2)])


@pytest.mark.parametrize("q", [7, 8, 9, 11, 13, 16])
def test_product_section_shared_cache_matches_fresh(q):
    field = field_from_order(q)
    for poly in (HEX9, P54, BOX22):
        decs = best_subpolygon_decomposition(poly)
        shared = _ReportCache()
        for dec in decs:
            assert _best_product_section(dec, field, shared) == _best_product_section(
                dec, field, _ReportCache()
            )
        assert set(shared.parts) == {p.vertices for dec in decs for p in dec.parts}
        assert not shared.acc.any()


def test_shape_keys_relate_point_lists_point_by_point():
    # lattice points of every translation class in [0,3]^2, of a seeded
    # unimodular image of each, and of a point
    rng = random.Random(21)
    lists = [[(3, 2)]]
    for key in sorted(classes_in_box(3)):
        poly = LatticePolygon(key)
        lists += [poly.lattice_points(), apply_map(poly, random_unimodular(rng)).lattice_points()]
    first = {}
    for pts in lists:
        key, frame = _shape(pts)
        (a, b), (c, d) = frame
        assert a * d - b * c in (1, -1)
        diffs = [(x - pts[0][0], y - pts[0][1]) for x, y in pts[1:]]
        # the key is the frame times the differences, in Hermite normal form
        assert key == tuple(tuple(u * dx + v * dy for dx, dy in diffs) for u, v in frame)
        top, bottom = key
        if diffs:
            assert top[0] > 0 and bottom[0] == 0
        pivot = next((j for j, h in enumerate(bottom) if h), None)
        if pivot is not None:
            assert 0 <= top[pivot] < bottom[pivot]
        # A = V'^-1 V sends the first list's differences to these, in order
        first_pts, first_frame = first.setdefault(key, (pts, frame))
        # _torus_map gives A^-T = ((w, y), (x, z)), so A = det * ((z, -x), (-y, w))
        (w, y), (x, z) = _torus_map(first_frame, frame)
        det = w * z - x * y
        (fx, fy) = first_pts[0]
        moved = [
            (det * (z * (px - fx) - x * (py - fy)), det * (w * (py - fy) - y * (px - fx)))
            for px, py in first_pts[1:]
        ]
        assert moved == diffs, (first_pts, pts)
    # one key for every primitive segment, and one for every unimodular triangle
    assert len(first) < len(lists) / 2
    assert _shape([(0, 0), (1, 0)])[0] == _shape([(0, 0), (2, -1)])[0]
    assert _shape([(0, 0), (0, 1), (1, 0)])[0] == _shape([(1, 1), (2, 0), (2, 1)])[0]
    assert _shape([(0, 0), (0, 1), (1, 0)])[0] != _shape([(0, 0), (1, 0), (2, 0)])[0]


def test_torus_map_refuses_frames_outside_gl2z():
    with pytest.raises(InvariantViolation):
        _torus_map(((2, 0), (0, 1)), ((1, 0), (0, 1)))
    with pytest.raises(InvariantViolation):
        _torus_map(((1, 0), (0, 1)), ((1, 1), (1, 1)))


def _check_shared_candidates(parts, field):
    """Candidates of each part from one report cache against a direct search;
    returns how many parts took moved candidates."""
    cache = _ReportCache()
    moved = 0
    for part in sorted(set(parts), key=lambda p: p.vertices):
        if not bounds_module._exhaustive(part, field.q):
            continue
        shapes = len(cache.shapes)
        vectors, zeros, sizes = _part_candidates(part, field, cache)
        want_vectors, want_zeros, want_sizes = _max_zero_candidates(part, field)
        assert vectors == want_vectors, part.vertices
        assert np.array_equal(zeros, want_zeros) and np.array_equal(sizes, want_sizes)
        assert _part_candidates(part, field, cache)[1] is zeros
        # a shape seen before hands on the first summand's list itself
        _, first = cache.shapes[_shape(part.lattice_points())[0]]
        assert vectors is first[0]
        moved += len(cache.shapes) == shapes
    return moved


@functools.cache
def _class_decompositions():
    """Each class in [0,3]^2 up to unimodular equivalence, with its maximal decompositions."""
    return [(poly, best_subpolygon_decomposition(poly)) for poly in _small_classes()]


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9])
def test_shared_candidates_match_a_direct_search_on_small_classes(q):
    field = field_from_order(q)
    parts = [
        part
        for poly, decs in _class_decompositions()
        if poly.fits_in_box(q) is not None
        for dec in decs
        for part in dec.parts
    ]
    assert _check_shared_candidates(parts, field) > 0


@pytest.mark.parametrize("q", [49, 64, 128, 256])
def test_shared_candidates_match_a_direct_search_on_benchmark_polygons(q):
    field = field_from_order(q)
    rng = random.Random(q)
    polys = [HEX9, P54, BOX22, SKEW_TRIANGLE]
    polys += [apply_map(p, random_unimodular(rng)) for p in polys for _ in range(2)]
    parts = [
        part
        for poly in polys
        if poly.fits_in_box(q) is not None
        for dec in best_subpolygon_decomposition(poly.place_in_box(q)[0])
        for part in dec.parts
    ]
    assert _check_shared_candidates(parts, field) > 0


# -- scoring products from zero lists against the packed kernels ----------------

# the `bounds` operations of the large-q benchmark workload, at the origin
LARGE_Q_BOUNDS = {
    "hexagon-F49": (HEX9, 49),
    "hexagon-F128": (HEX9, 128),
    "box2x2-F64": (BOX22, 64),
    "box2x2-F256": (BOX22, 256),
    "pentagon-F49": (P54, 49),
}


def _check_pairing(zeros, sizes, n, exact, cache=None):
    masks = [np.array([packed(m) for m in _dense(z, s, n)]) for z, s in zip(zeros, sizes)]
    kernel = exact_counts if exact else greedy_picks
    want_picks, want_counts = kernel(masks, bounds_module._PAIRING_BYTES)
    cache = cache or _ReportCache()
    picks, counts = bounds_module._pairing(zeros, sizes, n, exact, cache)
    assert np.array_equal(picks, want_picks) and np.array_equal(counts, want_counts)
    assert not cache.acc.any()


@pytest.mark.parametrize("case", LARGE_Q_BOUNDS)
def test_pairing_matches_the_packed_kernels_on_benchmark_polygons(case, monkeypatch):
    poly, q = LARGE_Q_BOUNDS[case]
    field = field_from_order(q)
    n = (q - 1) ** 2
    # three rows per chunk, so that every search crosses chunk boundaries
    monkeypatch.setattr(bounds_module, "_PAIRING_BYTES", 3 * (n + 1))
    boxed, _ = poly.place_in_box(q)
    exact = 0
    for dec in best_subpolygon_decomposition(boxed):
        zeros, sizes = zip(*(_max_zero_candidates(p, field)[1:] for p in dec.parts))
        assert len(sizes[0]) > 3
        _check_pairing(zeros, sizes, n, exact=False)
        # the exact search on the whole decomposition where it is small
        # enough, else on its first two parts
        for k in range(2, len(dec.parts) + 1):
            if int(np.prod([len(s) for s in sizes[:k]])) <= bounds_module._PAIRING_CAP:
                _check_pairing(zeros[:k], sizes[:k], n, exact=True)
                exact += 1
    assert exact > 0


def test_pairing_buffers_shared_by_interleaved_reports(monkeypatch):
    # three rows per chunk on the smallest torus, so searches cross chunks
    monkeypatch.setattr(bounds_module, "_PAIRING_BYTES", 3 * (48**2 + 1))
    jobs = []
    for poly, q in LARGE_Q_BOUNDS.values():
        field = field_from_order(q)
        n = (q - 1) ** 2
        cache = _ReportCache()
        for dec in best_subpolygon_decomposition(poly.place_in_box(q)[0]):
            zeros, sizes = zip(*(_part_candidates(p, field, cache)[1:] for p in dec.parts))
            jobs.append((cache, zeros, sizes, n, False))
            jobs.append((cache, zeros[:2], sizes[:2], n, True))
    want = [
        bounds_module._pairing(zeros, sizes, n, exact, _ReportCache())
        for _, zeros, sizes, n, exact in jobs
    ]
    order = list(range(len(jobs)))
    random.Random(21).shuffle(order)
    assert order != sorted(order)
    for i in order + order:
        cache, zeros, sizes, n, exact = jobs[i]
        picks, counts = bounds_module._pairing(zeros, sizes, n, exact, cache)
        assert np.array_equal(picks, want[i][0]) and np.array_equal(counts, want[i][1])
        assert not cache.acc.any()
        # grown to at most one chunk of three rows
        assert len(cache.acc) <= 3 * (n + 1)


def _zero_lists(dense, n, rng):
    """Zero lists of boolean masks, padded with n to a few columns past the longest."""
    sizes = dense.sum(axis=1).astype(np.intp)
    zeros = np.full((len(dense), sizes.max() + rng.integers(0, 3)), n, dtype=np.intp)
    for row, mask in zip(zeros, dense):
        got = np.flatnonzero(mask)
        row[: len(got)] = got
    return zeros, sizes


@pytest.mark.parametrize("n", [70, 700])
def test_pairing_matches_the_packed_kernels_on_random_masks(n, monkeypatch):
    # n = 70 leaves padding bits in the last packed word; n = 700 gives
    # lists longer than the 255 points that _hits sums in one block
    monkeypatch.setattr(bounds_module, "_PAIRING_BYTES", 2 * (n + 1))
    rng = np.random.default_rng(n)
    ties = 0
    for trial in range(60):
        parts = 1 + trial % 3
        dense = []
        for _ in range(parts):
            cands = rng.random((int(rng.integers(2, 8)), n)) < rng.choice([0.02, 0.1, 0.5])
            # a duplicate candidate, and now and then an empty zero list
            cands[-1] = cands[0]
            if trial % 4 == 0:
                cands[int(rng.integers(len(cands)))] = False
            dense.append(cands)
        if trial % 5 == 0 and parts > 1:
            # two disjoint candidates of equal size that nothing else
            # touches, the others empty, so every row ties them
            for cands in dense:
                cands[:, :8] = False
            dense[1][:] = False
            dense[1][0, :4] = dense[1][1, 4:8] = True
            ties += 1
        zeros, sizes = zip(*(_zero_lists(d, n, rng) for d in dense))
        _check_pairing(zeros, sizes, n, exact=False)
        _check_pairing(zeros, sizes, n, exact=True)
    assert ties > 0


# certified-upper value and witness of the five `bounds` operations of the
# large-q benchmark workload, at the origin, as computed from bit-packed masks
CERTIFIED_PINS = {
    "hexagon-F49": (2162, {(1, 0): 47, (1, 1): 10, (1, 2): 6, (2, 0): 9, (2, 1): 46, (2, 2): 1}),
    "hexagon-F128": (15750, {(1, 0): 2, (1, 1): 3, (1, 2): 1, (2, 0): 2, (2, 1): 3, (2, 2): 1}),
    "box2x2-F64": (3721, {
        (0, 0): 4, (0, 1): 6, (0, 2): 2, (1, 0): 6, (1, 1): 5, (1, 2): 3, (2, 0): 2, (2, 1): 3,
        (2, 2): 1,
    }),
    "box2x2-F256": (64009, {
        (0, 0): 20, (0, 1): 18, (0, 2): 6, (1, 0): 18, (1, 1): 21, (1, 2): 7, (2, 0): 6,
        (2, 1): 7, (2, 2): 1,
    }),
    "pentagon-F49": (2208, {(1, 0): 9, (1, 1): 46, (1, 2): 1}),
}


@pytest.mark.parametrize("case", LARGE_Q_BOUNDS)
def test_certified_upper_pinned_on_benchmark_polygons(case):
    poly, q = LARGE_Q_BOUNDS[case]
    report = full_report(poly, field_from_order(q))
    entry = next(e for e in report.entries if e.name == "certified-upper")
    assert (entry.value, entry.witness.terms) == CERTIFIED_PINS[case]


def certified_oracle(poly, field, decs):
    """certified_upper_bound without passing over any decomposition."""
    base = max_zero_section(poly, field)
    best_zeros, best_section = base.zeros, base.section
    for dec in decs:
        got = _best_product_section(dec, field, _ReportCache())
        if got is not None and got[0] > best_zeros:
            best_zeros, best_section = got
    return (field.q - 1) ** 2 - best_zeros, best_section


@pytest.mark.parametrize("q", [5, 7, 8, 9, 11, 13, 16])
def test_certified_passes_over_only_hopeless_decompositions(q, monkeypatch):
    field = field_from_order(q)
    products = []
    real = bounds_module._best_product_section
    monkeypatch.setattr(
        bounds_module, "_best_product_section", lambda *a: products.append(1) or real(*a)
    )
    decs_seen = 0
    for poly in _section_search_polygons() + [BOX22, LatticePolygon([(0, 0), (3, 0), (0, 3)])]:
        boxed = _boxed(poly, q)
        if boxed is None or boxed.num_lattice_points > 10:
            continue
        decs = best_subpolygon_decomposition(boxed)
        decs_seen += len(decs)
        got = certified_upper_bound(boxed, field, decs)
        assert got == certified_oracle(boxed, field, decs), poly.vertices
    # most decompositions cannot beat the best section and are skipped
    assert 0 < len(products) < decs_seen


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9, 16, 27, 49, 64, 81])
def test_most_zeros_is_the_best_candidate_count(q):
    field = field_from_order(q)
    kinds = set()
    for part in _summands():
        if part.fits_in_box(q) is None:
            continue
        _, _, sizes = _max_zero_candidates(part, field)
        assert _most_zeros(part, q) == int(sizes.max()), part
        kinds.add((_summand_points(part), _exhaustive(part, q)))
    # T0 fits from F4 on, and is searched exhaustively up to F23
    assert (2, True) in kinds and (q < 4 or (4, q < 24) in kinds)


def test_product_zero_count_is_checked(monkeypatch):
    dec = best_subpolygon_decomposition(HEX9)[0]
    monkeypatch.setattr(bounds_module, "count_torus_zeros", lambda s, f: -1)
    with pytest.raises(InvariantViolation):
        _best_product_section(dec, F8, _ReportCache())


def test_product_support_is_checked():
    dec = best_subpolygon_decomposition(HEX9)[0]
    shrunk = MinkowskiDecomposition(LatticePolygon([(0, 0)]), dec.translation, dec.parts)
    with pytest.raises(InvariantViolation):
        _best_product_section(shrunk, F8, _ReportCache())


def test_weight_of_section_cross_check(monkeypatch):
    code = build_code(Q1, F8)
    section = SectionPoly({m: 1 for m in code.monomials})
    assert weight_of_section(section, code) <= code.n
    monkeypatch.setattr(
        code_module.ToricCode, "evaluate_message", lambda self, msg: np.zeros(self.n, np.uint8)
    )
    with pytest.raises(InvariantViolation):
        weight_of_section(section, code)


def test_evaluate_message_checks_length():
    code = build_code(Q1, F8)
    with pytest.raises(ValueError):
        code.evaluate_message([1] * (code.k + 1))


# -- the decomposition lower bound ----------------------------------------------


def test_mainthm_hexagon():
    decs = best_subpolygon_decomposition(HEX9)
    assert mainthm_lower_bound(HEX9, 7, decs) == LowerBound(18, False, 13)
    assert mainthm_lower_bound(HEX9, 13, decs) == LowerBound(108, True, 13)


def test_mainthm_uses_minimizing_decomposition():
    decs = best_subpolygon_decomposition(P54)
    lb = mainthm_lower_bound(P54, 8, decs)
    # 33 from the genus-one split, even though flat splits give 35
    assert lb.value == 33
    assert not lb.applicable
    # one interior point in a part blocks the relaxed route
    assert lb.threshold == (4 * P54.interior_count + 3) ** 2 == 121


def test_mainthm_spiked_triangle():
    decs = best_subpolygon_decomposition(SKEW_TRIANGLE)
    lb = mainthm_lower_bound(SKEW_TRIANGLE, 8, decs)
    assert lb == LowerBound(28, False, 15)
    assert mainthm_lower_bound(SKEW_TRIANGLE, 16, decs).applicable


def test_mainthm_no_decomposition():
    with pytest.raises(NoDecomposition):
        mainthm_lower_bound(HEX9, 7, [])


def test_mainthm_applicable_bound_is_sound():
    # q = 13 clears the hexagon threshold; compare against search
    f13 = field_from_order(13)
    decs = best_subpolygon_decomposition(HEX9)
    lb = mainthm_lower_bound(HEX9, 13, decs)
    assert lb.applicable
    value, _ = certified_upper_bound(HEX9, f13, decs)
    assert lb.value <= value


# -- aggregate reports ----------------------------------------------------------


def entry_map(report):
    return {e.name: e for e in report.entries}


def test_report_hexagon_exact():
    rep = full_report(HEX9, F7, exact=True)
    assert rep.exact_d == 20
    ent = entry_map(rep)
    assert ent["certified-upper"].value == 20
    lower = ent["decomposition-lower"]
    assert lower.value == 18 and not lower.applicable
    assert "q >= 13" in lower.provenance


def test_report_twisted_box_formula_equals_search():
    quad = LatticePolygon([(0, 0), (1, 0), (0, 1), (1, 2)])
    rep = full_report(quad, F7, exact=True)
    ent = entry_map(rep)
    assert ent["hirzebruch"].value == 24 == rep.exact_d


def test_report_translated_triangle():
    tri = LatticePolygon([(2, 1), (5, 1), (2, 4)])
    rep = full_report(tri, F8, exact=True)
    assert rep.exact_d == 28
    ent = entry_map(rep)
    assert ent["standard-triangle"].value == 28


def test_report_product_entries_deduplicated():
    rep = full_report(P54, F8, exact=True)
    assert rep.exact_d == 33
    prods = [e for e in rep.entries if e.name.startswith("product-bound")]
    assert [e.value for e in prods] == [33, 35]
    assert all(not e.applicable for e in prods)
    assert all(e.witness is not None for e in prods)


def test_component_distance_searches_q1_over_f256():
    # Q1 has no closed form; the search over F256 scans one representative
    # per orbit of the scalars and the torus
    code = build_code(Q1, field_from_order(256))
    value = _component_distance(Q1, 256)
    assert value == min_distance_exact(code).weight
    assert 0 < value < 255**2


def test_report_pentagon_f256_keeps_component_entries():
    rep = full_report(P54, field_from_order(256))
    names = {e.name for e in rep.entries}
    assert "decomposition-lower" in names
    assert any(name.startswith("product-bound") for name in names)
    assert [(e.name, e.value, e.applicable) for e in rep.entries] == [
        ("certified-upper", 64515, True),
        ("product-bound[0]", 64485, False),
        ("product-bound[1]", 64515, False),
        ("decomposition-lower", 64485, True),
    ]


def test_report_pentagon_f128_entries():
    rep = full_report(P54, field_from_order(128))
    assert [(e.name, e.value, e.applicable) for e in rep.entries] == [
        ("certified-upper", 15875, True),
        ("product-bound[0]", 15855, False),
        ("product-bound[1]", 15875, False),
        ("decomposition-lower", 15855, True),
    ]


def test_report_hexagon_f256_entries():
    rep = full_report(HEX9, field_from_order(256))
    assert [(e.name, e.value, e.applicable) for e in rep.entries] == [
        ("certified-upper", 64262, True),
        ("product-bound[0]", 64260, False),
        ("decomposition-lower", 64260, True),
    ]


def test_report_point_and_segment():
    rep = full_report(LatticePolygon([(3, 2)]), F5)
    assert {e.value for e in rep.entries} == {16}
    rep = full_report(LatticePolygon([(0, 0), (3, 0)]), F8, exact=True)
    assert rep.exact_d == 28
    ent = entry_map(rep)
    assert ent["segment"].value == 28
    # flat components make the lower bound applicable already at q = 8
    assert ent["decomposition-lower"].applicable


def test_report_family_recognition():
    for case, params in [
        ("I", (1, 1, 1, 1)),
        ("II", (1, 1, 2, 1)),
        ("III", (1, 2, 1, 1)),
        ("IV", (1, 1, 1, 1)),
    ]:
        value, poly = rank3_family_distance(case, *params, 8)
        rep = full_report(poly, F8)
        ent = entry_map(rep)
        assert f"family-{case}" in ent, (case, sorted(ent))
        assert ent[f"family-{case}"].value == value


def test_report_witness_serialization():
    rep = full_report(P54, F8)
    d = rep.as_dict()
    assert d["polygon"] == [list(v) for v in P54.vertices]
    kinds = {e["witness"]["type"] for e in d["entries"] if e["witness"]}
    assert kinds == {"section", "decomposition"}
    # serialization must be reproducible run to run
    again = full_report(P54, F8).as_dict()
    assert json.dumps(d, sort_keys=True) == json.dumps(again, sort_keys=True)


def test_report_rejects_oversized_polygon():
    with pytest.raises(PolygonTooLargeForField):
        full_report(LatticePolygon([(0, 0), (9, 0), (0, 9)]), F5)


def test_consistency_checker_rejects_contradiction():
    entries = [
        BoundEntry("a", "lower", 30, True, ""),
        BoundEntry("b", "upper", 20, True, ""),
    ]
    with pytest.raises(InvariantViolation):
        _check_consistency(entries, None)
    # conditional entries are exempt
    entries[0].applicable = False
    _check_consistency(entries, None)
    with pytest.raises(InvariantViolation):
        _check_consistency([BoundEntry("c", "upper", 10, True, "")], 12)


def test_report_sandwich_on_random_corpus():
    rng = random.Random(20240817)
    done = 0
    while done < 25:
        pts = [(rng.randrange(4), rng.randrange(4)) for _ in range(rng.randrange(3, 6))]
        poly = LatticePolygon(pts)
        if poly.dim != 2 or poly.num_lattice_points > 7:
            continue
        rep = full_report(poly, F5, exact=True)
        assert rep.exact_d == exact_distance(poly, F5)
        for e in rep.entries:
            if not e.applicable:
                continue
            if e.kind in ("upper", "exact-formula"):
                assert e.value >= rep.exact_d, (poly.vertices, e)
            if e.kind in ("lower", "exact-formula"):
                assert e.value <= rep.exact_d, (poly.vertices, e)
        done += 1
