"""End-to-end acceptance checks, one test per numbered criterion.

Each test asserts the published values exactly and prints a single
PASS line (visible with -s; the -v report carries the same verdict).
The three "long" checks (the hexagon over F11 and F13, the exact
distance of the skew triangle over F8) run the largest exhaustive
searches, a few seconds each.
"""

import random
from collections import Counter
from time import perf_counter

from factoring import edge_multiset
from lattice_maps import apply_map
from toricode.bounds import (
    certified_upper_bound,
    d_hirzebruch,
    d_rectangle,
    d_segment,
    d_triangle,
    full_report,
    mainthm_lower_bound,
    rank3_family_distance,
    upper_bound_from_decomposition,
)
from toricode.code import (
    SectionPoly,
    build_code,
    count_torus_zeros,
    min_distance_exact,
    weight_distribution,
    weight_of_section,
)
from toricode.decomp import best_subpolygon_decomposition
from toricode.errors import FieldTooSmall, HypothesisViolated
from toricode.field import field_from_order, make_field
from toricode.polygon import LatticePolygon, minkowski_sum

HEXAGON = LatticePolygon([(1, 0), (2, 0), (0, 1), (1, 2), (3, 2), (3, 3)])
PENTAGON = LatticePolygon([(0, 0), (1, 0), (3, 1), (2, 2), (1, 2)])
SKEW_TRIANGLE = LatticePolygon([(0, 0), (1, 4), (4, 1)])


def exact_distance(poly, q, threads=1):
    code = build_code(poly, field_from_order(q))
    res = min_distance_exact(code, threads=threads)
    assert res.exact
    return res.weight


def _random_polygon(rng, span, npts):
    pts = [(rng.randint(0, span), rng.randint(0, span)) for _ in range(npts)]
    return LatticePolygon(pts)


def _random_unimodular(rng):
    m = ((1, 0), (0, 1))
    for _ in range(rng.randint(1, 4)):
        k = rng.randint(-3, 3)
        s = ((1, k), (0, 1)) if rng.random() < 0.5 else ((1, 0), (k, 1))
        m = (
            (m[0][0] * s[0][0] + m[0][1] * s[1][0], m[0][0] * s[0][1] + m[0][1] * s[1][1]),
            (m[1][0] * s[0][0] + m[1][1] * s[1][0], m[1][0] * s[0][1] + m[1][1] * s[1][1]),
        )
    if rng.random() < 0.5:
        m = (m[1], m[0])
    return m


# -- criterion 1: hexagon distance table ---------------------------------------


def test_criterion_1_hexagon_distance_table():
    want = {5: 6, 7: 20, 8: 28, 9: 42}
    budget = {5: 5.0, 7: 5.0, 8: 60.0, 9: 300.0}
    times = {}
    for q in (5, 7, 8, 9):
        t0 = perf_counter()
        got = exact_distance(HEXAGON, q)
        times[q] = perf_counter() - t0
        assert got == want[q], (q, got)
        assert times[q] < budget[q], (q, times[q])
    timing = " ".join(f"F{q}={times[q]:.1f}s" for q in times)
    print(f"CRITERION 1: PASS d(F5,F7,F8,F9) = (6, 20, 28, 42), {timing}")


def test_criterion_1_long_f11():
    got = exact_distance(HEXAGON, 11)
    assert got == 72
    print("CRITERION 1 (long): PASS d(F11) = 72")


def test_criterion_1_long_f13_threshold():
    # q = 13 clears #(P) + 3 = 12, so the lower bound holds unconditionally
    decs = best_subpolygon_decomposition(HEXAGON)
    lb = mainthm_lower_bound(HEXAGON, 13, decs)
    assert lb.applicable and lb.value == 108
    d13 = exact_distance(HEXAGON, 13)
    upper, _ = certified_upper_bound(HEXAGON, field_from_order(13), decs)
    assert lb.value <= d13 <= upper
    assert d13 == 110 and upper == 110
    print("CRITERION 1 (long): PASS F13 sandwich 108 <= 110 <= 110")


# -- criterion 2: decomposable pentagon ------------------------------------------


def _split_value(decs, want_parts, q):
    field = field_from_order(q)
    for dec in decs:
        if set(dec.parts) != want_parts:
            continue
        comps = []
        for part in dec.parts:
            if part.dim == 1:
                comps.append(d_segment(part.num_lattice_points - 1, q))
            else:
                comps.append(min_distance_exact(build_code(part, field)).weight)
        return upper_bound_from_decomposition(dec, q, comps)
    raise AssertionError(f"no decomposition with parts {want_parts}")


def test_criterion_2_pentagon_splits():
    t0 = perf_counter()
    assert exact_distance(PENTAGON, 8) == 33
    decs = best_subpolygon_decomposition(PENTAGON)
    genus_one = LatticePolygon([(0, 0), (2, 1), (1, 2)])
    hseg = LatticePolygon([(0, 0), (1, 0)])
    vseg = LatticePolygon([(0, 0), (0, 1)])
    assert _split_value(decs, {genus_one, hseg}, 8) == 33
    assert _split_value(decs, {hseg, vseg}, 8) == 35
    dt = perf_counter() - t0
    assert dt < 60.0, dt
    print(f"CRITERION 2: PASS d(F8) = 33, split bounds (33, 35), {dt:.1f}s")


# -- criterion 3: the skew triangle ----------------------------------------------


def test_criterion_3_skew_triangle_bound():
    f8 = field_from_order(8)
    t0 = perf_counter()
    code = build_code(SKEW_TRIANGLE, f8)
    t_build = perf_counter() - t0
    assert code.k == 11
    assert t_build < 1.0, t_build
    t0 = perf_counter()
    decs = best_subpolygon_decomposition(SKEW_TRIANGLE)
    value, witness = certified_upper_bound(SKEW_TRIANGLE, f8, decs)
    t_bound = perf_counter() - t0
    assert value == 28
    assert weight_of_section(witness, code) == 28
    assert t_bound < 5.0, t_bound
    print(f"CRITERION 3: PASS k = 11 ({t_build:.2f}s), certified upper 28 ({t_bound:.1f}s)")


def test_criterion_3_long_exact():
    assert exact_distance(SKEW_TRIANGLE, 8) == 28
    print("CRITERION 3 (long): PASS exact d(F8) = 28")


# -- criterion 4: zero count under both moduli ------------------------------------


def test_criterion_4_zero_count_modulus_free():
    section = SectionPoly({(1, 0): 1, (3, 3): 1, (0, 2): 1})
    for modulus in ((1, 0, 1, 1), (1, 1, 0, 1)):
        t0 = perf_counter()
        zeros = count_torus_zeros(section, make_field(2, 3, modulus=modulus))
        dt = perf_counter() - t0
        assert zeros == 21, modulus
        assert dt < 1.0, dt
    print("CRITERION 4: PASS 21 torus zeros under both cubic moduli")


# -- criterion 5: closed forms against exhaustive search --------------------------


def _formula_grid():
    cases = []
    for a in (1, 2, 3):
        cases.append((f"segment-{a}", lambda q, a=a: d_segment(a, q),
                      LatticePolygon([(0, 0), (a, 0)])))
    for d in (1, 2):
        for e in (1, 2):
            cases.append((f"rectangle-{d}x{e}", lambda q, d=d, e=e: d_rectangle(d, e, q),
                          LatticePolygon([(0, 0), (d, 0), (d, e), (0, e)])))
    for d, e, r in ((1, 1, 1), (1, 2, 1), (1, 1, 2), (2, 1, 1)):
        cases.append((f"hirzebruch-{d},{e},{r}",
                      lambda q, d=d, e=e, r=r: d_hirzebruch(d, e, r, q),
                      LatticePolygon([(0, 0), (d, 0), (0, e), (d, e + r * d)])))
    for a in (1, 2, 3):
        for c in range(1, a + 1):
            for b in range(0, a - c + 1):
                cases.append((f"triangle-{a},{b},{c}",
                              lambda q, a=a, b=b, c=c: d_triangle(a, b, c, q),
                              LatticePolygon([(0, 0), (a, 0), (b, c)])))
    return cases


def test_criterion_5_closed_forms_match_search():
    t0 = perf_counter()
    checked = 0
    for q in (5, 7, 8):
        field = field_from_order(q)
        for label, formula, poly in _formula_grid():
            if poly.fits_in_box(q) is None:
                continue
            value = formula(q)
            got = min_distance_exact(build_code(poly, field)).weight
            assert value == got, (label, q, value, got)
            checked += 1
        for case in ("I", "II", "III", "IV"):
            try:
                value, poly = rank3_family_distance(case, 1, 1, 1, 1, q)
            except FieldTooSmall:
                continue  # the all-ones polygon does not fit this torus box
            except HypothesisViolated:
                continue  # case III needs b > a, so all-ones is out of range
            got = min_distance_exact(build_code(poly, field)).weight
            assert value == got, (case, q, value, got)
            checked += 1
    dt = perf_counter() - t0
    assert checked == 70, checked
    assert dt < 600.0, dt
    print(f"CRITERION 5: PASS {checked} formula/search agreements, {dt:.0f}s")


# -- criterion 6: randomized property suites ---------------------------------------


def test_criterion_6_property_suites():
    t0 = perf_counter()

    # Pick's identity on doubled area
    rng = random.Random(601)
    done = 0
    while done < 500:
        p = _random_polygon(rng, span=7, npts=rng.randint(3, 8))
        if p.dim != 2:
            continue
        assert p.volume2 == 2 * p.num_lattice_points - p.boundary_count - 2
        done += 1

    # Scott's inequality wherever it applies
    rng = random.Random(602)
    done = 0
    while done < 500:
        p = _random_polygon(rng, span=7, npts=rng.randint(3, 8))
        if p.dim != 2 or p.interior_count == 0:
            continue
        assert p.scott_check()
        done += 1

    # genus = interior count = volume2 + 2 - #(P)
    rng = random.Random(603)
    done = 0
    while done < 500:
        p = _random_polygon(rng, span=7, npts=rng.randint(3, 8))
        if p.dim != 2:
            continue
        g = p.genus()
        assert g == p.interior_count == p.volume2 + 2 - p.num_lattice_points
        done += 1

    # Minkowski edge-multiset additivity and round-trip factorization
    rng = random.Random(604)
    for _ in range(500):
        a = _random_polygon(rng, span=2, npts=rng.randint(1, 5))
        b = _random_polygon(rng, span=2, npts=rng.randint(1, 5))
        s = minkowski_sum(a, b)
        merged = Counter(edge_multiset(a)) + Counter(edge_multiset(b))
        assert merged == Counter(edge_multiset(s))
        if s.dim == 0:
            continue
        for dec in best_subpolygon_decomposition(s, budget=20_000)[:3]:
            assert minkowski_sum(*dec.parts) == dec.subpolygon
            placed = dec.subpolygon.translate(*dec.translation)
            assert all(s.contains(v) for v in placed.vertices)

    # weight distribution is a unimodular invariant
    rng = random.Random(605)
    done = 0
    while done < 500:
        p = _random_polygon(rng, span=2, npts=rng.randint(2, 5))
        if p.num_lattice_points > 5:
            continue
        mapped = apply_map(p, _random_unimodular(rng))
        shift = mapped.fits_in_box(5)
        if shift is None:
            continue
        f5 = field_from_order(5)
        wd_a = weight_distribution(build_code(p, f5))
        wd_b = weight_distribution(build_code(mapped.translate(*shift), f5))
        assert wd_a == wd_b, (p.vertices, mapped.vertices)
        done += 1

    # dimension equals the lattice point count
    rng = random.Random(606)
    for _ in range(500):
        p = _random_polygon(rng, span=5, npts=rng.randint(1, 7))
        q = next(q for q in (5, 7, 8) if p.fits_in_box(q) is not None)
        assert build_code(p, field_from_order(q)).k == p.num_lattice_points

    # bound reports stay consistent with the exact distance
    rng = random.Random(607)
    f5 = field_from_order(5)
    done = 0
    while done < 500:
        p = _random_polygon(rng, span=3, npts=rng.randint(3, 6))
        if p.dim != 2 or p.num_lattice_points > 6:
            continue
        report = full_report(p, f5, exact=True)
        d = report.exact_d
        assert d == min_distance_exact(build_code(p, f5)).weight
        for e in report.entries:
            if not e.applicable:
                continue
            if e.kind in ("upper", "exact-formula"):
                assert e.value >= d, (p.vertices, e)
            if e.kind in ("lower", "exact-formula"):
                assert e.value <= d, (p.vertices, e)
        done += 1

    dt = perf_counter() - t0
    assert dt < 300.0, dt
    print(f"CRITERION 6: PASS 7 property suites x 500 cases, {dt:.0f}s")


# -- criterion 7: worker count does not change results -----------------------------


def test_criterion_7_thread_determinism():
    for poly, q in ((HEXAGON, 5), (HEXAGON, 7), (HEXAGON, 8), (HEXAGON, 9), (PENTAGON, 8)):
        field = field_from_order(q)
        one = min_distance_exact(build_code(poly, field), threads=1)
        eight = min_distance_exact(build_code(poly, field), threads=8)
        assert (one.weight, one.exact, one.enumerated) == (
            eight.weight,
            eight.exact,
            eight.enumerated,
        ), (poly.vertices, q)
    print("CRITERION 7: PASS 1-worker and 8-worker searches agree on all instances")
