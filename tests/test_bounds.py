import itertools
import json
import random
from math import isqrt

import numpy as np
import pytest

import toricode.bounds as bounds_module
import toricode.code as code_module
from toricode.bounds import (
    _COMPONENT_SEARCH_CAP,
    BoundEntry,
    LowerBound,
    MaxZeroResult,
    _best_product_section,
    _check_consistency,
    _closed_forms,
    _component_distance,
    _max_zero_exhaustive,
    certified_upper_bound,
    d_full_triangle,
    d_hirzebruch,
    d_rectangle,
    d_segment,
    d_triangle,
    full_report,
    hasse_weil_interval,
    mainthm_lower_bound,
    max_zero_section,
    rank3_family_distance,
    upper_bound_from_decomposition,
)
from toricode.code import (
    SectionPoly,
    build_code,
    evaluate_section,
    min_distance_exact,
    search_plan,
    weight_of_section,
)
from toricode.decomp import MinkowskiDecomposition, best_subpolygon_decomposition
from toricode.errors import (
    FieldTooSmall,
    HypothesisViolated,
    InvariantViolation,
    NoDecomposition,
    PolygonTooLargeForField,
)
from toricode.field import field_from_order
from toricode.polygon import LatticePolygon, lattice_equivalence

HEX9 = LatticePolygon([(1, 0), (2, 0), (0, 1), (1, 2), (3, 2), (3, 3)])
P54 = LatticePolygon([(0, 0), (1, 0), (3, 1), (2, 2), (1, 2)])
Q1 = LatticePolygon([(0, 0), (2, 1), (1, 2)])
SKEW_TRIANGLE = LatticePolygon([(0, 0), (1, 4), (4, 1)])

F5 = field_from_order(5)
F7 = field_from_order(7)
F8 = field_from_order(8)


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
        standard = side * side == tri.volume2 and lattice_equivalence(tri, model) is not None
        names = [name for name, _, _ in _closed_forms(tri, 7)]
        assert ("standard-triangle" in names) == standard, tri


@pytest.mark.parametrize("q", [7, 8])
def test_component_distance_matches_search(q):
    field = field_from_order(q)
    polys = {}
    for r in range(3, 10):
        for pts in itertools.combinations(itertools.product(range(3), repeat=2), r):
            poly = LatticePolygon(list(pts))
            if poly.dim == 2:
                polys[poly.translate_to_origin().vertices] = poly
    for poly in polys.values():
        want = min_distance_exact(build_code(poly, field)).weight
        assert _component_distance(poly, q, {}) == want, poly


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
    return MinkowskiDecomposition(poly, sub, (x0, y0), (sub,))


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
    assert res.zeros == 0
    assert res.section.terms == {(2, 3): 1}


def test_max_zero_genus_one_triangle():
    res = max_zero_section(Q1, F8)
    assert res.zeros == 9 and res.exhaustive
    # the count is realized by an actual codeword
    assert weight_of_section(res.section, build_code(Q1, F8)) == 49 - 9


def test_max_zero_catalog_fallback():
    tri = LatticePolygon([(1, 1), (2, 1), (1, 2)])
    res = max_zero_section(tri, F5, budget=10)
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


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_max_zero_exhaustive_matches_oracle(q):
    field = field_from_order(q)
    for poly in _oracle_polygons():
        for cap in (1, 64, None):
            best, sections = _max_zero_exhaustive(poly, field, cap=cap)
            want_best, want_sections = max_zero_oracle(poly, field, cap=cap)
            assert best == want_best, (poly.vertices, cap)
            assert [s.terms for s in sections] == [s.terms for s in want_sections]


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
        shared: dict = {}
        for dec in decs:
            assert _best_product_section(dec, field, shared) == _best_product_section(
                dec, field, {}
            )
        assert set(shared) == {p.vertices for dec in decs for p in dec.parts}


def test_product_zero_count_is_checked(monkeypatch):
    dec = best_subpolygon_decomposition(HEX9)[0]
    monkeypatch.setattr(bounds_module, "count_torus_zeros", lambda s, f: -1)
    with pytest.raises(InvariantViolation):
        _best_product_section(dec, F8, {})


def test_product_support_is_checked():
    dec = best_subpolygon_decomposition(HEX9)[0]
    shrunk = MinkowskiDecomposition(
        LatticePolygon([(0, 0)]), dec.subpolygon, dec.translation, dec.parts
    )
    with pytest.raises(InvariantViolation):
        _best_product_section(shrunk, F8, {})


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


# -- point count interval -------------------------------------------------------


def test_hasse_weil_examples():
    assert hasse_weil_interval(0, 7) == (8, 8)
    assert hasse_weil_interval(1, 49) == (36, 64)
    assert hasse_weil_interval(6, 8) == (0, 42)
    with pytest.raises(ValueError):
        hasse_weil_interval(-1, 7)


def test_hasse_weil_genus_zero():
    for q in (2, 3, 4, 5, 7, 8, 9, 16, 101):
        assert hasse_weil_interval(0, q) == (q + 1, q + 1)


def test_hasse_weil_contains_true_counts():
    # a line has q-1 torus points and genus 0; interval is about the
    # projective count, so this is a smoke check of monotonicity in g
    lo1, hi1 = hasse_weil_interval(1, 7)
    lo2, hi2 = hasse_weil_interval(2, 7)
    assert lo2 <= lo1 <= hi1 <= hi2


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


def test_mainthm_needs_exhaustive_search():
    decs = best_subpolygon_decomposition(HEX9)
    cut = [
        MinkowskiDecomposition(d.parent, d.subpolygon, d.translation, d.parts, False)
        for d in decs
    ]
    assert mainthm_lower_bound(HEX9, 13, cut) == LowerBound(108, False, 13)


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


def test_component_cap_counts_representatives():
    # Q1 over F256 has far more normalized messages than the cap, but its
    # search scans one representative per orbit, well under it
    code = build_code(Q1, field_from_order(256))
    assert (256**code.k - 1) // 255 > _COMPONENT_SEARCH_CAP
    assert search_plan(code).representatives <= _COMPONENT_SEARCH_CAP
    value = _component_distance(Q1, 256, {})
    assert value == min_distance_exact(code).weight
    assert 0 < value < 255**2


def test_report_pentagon_f256_keeps_component_entries():
    rep = full_report(P54, field_from_order(256))
    names = {e.name for e in rep.entries}
    assert "decomposition-lower" in names
    assert any(name.startswith("product-bound") for name in names)


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
