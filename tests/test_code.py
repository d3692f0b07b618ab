import dataclasses
import hashlib
import itertools
import json
import math
import multiprocessing
import random
import sys

import numpy as np
import pytest

import frame_plan
from lattice_maps import apply_map, classes_in_box
from toricode import code as code_module
from toricode.code import (
    DistanceResult,
    SectionPoly,
    _build_suffix_table,
    _checkpoint_key,
    _load_checkpoint,
    _log_rows,
    _save_checkpoint,
    _SearchContext,
    build_code,
    count_torus_zeros,
    min_distance_exact,
    multiply_sections,
    search_plan,
    weight_distribution,
    weight_of_section,
)
from toricode.errors import (
    InvariantViolation,
    PolygonTooLargeForField,
    SupportOutsidePolygon,
    TooLarge,
)
from toricode.field import field_from_order
from toricode.polygon import LatticePolygon, normal_form

HEX9 = LatticePolygon([(1, 0), (2, 0), (0, 1), (1, 2), (3, 2), (3, 3)])
P54 = LatticePolygon([(0, 0), (1, 0), (3, 1), (2, 2), (1, 2)])
Q1 = LatticePolygon([(0, 0), (2, 1), (1, 2)])
SKEW_TRIANGLE = LatticePolygon([(0, 0), (1, 4), (4, 1)])

WRAPPED_SECTION = SectionPoly({(1, 0): 1, (3, 3): 1, (0, 2): 1})


def _rank(matrix, field):
    """Rank over F_q by Gaussian elimination on a copy; the oracle for build_code."""
    rows = [r.copy() for r in matrix]
    k = len(rows)
    n = rows[0].shape[0] if k else 0
    rank = 0
    for col in range(n):
        piv = next((r for r in range(rank, k) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = field.inv(int(rows[rank][col]))
        rows[rank] = field.scale_np(rows[rank], inv)
        for r in range(rank + 1, k):
            f = int(rows[r][col])
            if f:
                rows[r] = field.add_np(rows[r], field.scale_np(rows[rank], field.neg(f)))
        rank += 1
        if rank == k:
            break
    return rank


def brute_distribution(code):
    """Weight distribution from every message with leading coefficient 1.

    Codewords come from the generator rows through the field's own
    multiplication and negation tables; each message stands for its
    q - 1 scalar multiples.
    """
    f, q, k, n = code.field, code.field.q, code.k, code.n
    mul = np.array([[f.mul(a, b) for b in range(q)] for a in range(q)], dtype=np.int64)
    neg = np.array([f.neg(a) for a in range(q)], dtype=np.int64)
    add = np.array([[f.add(a, b) for b in range(q)] for a in range(q)], dtype=np.int64)
    rows = code.generator.astype(np.int64)
    dist = {0: 1}
    for lead in range(k):
        # up to four trailing rows at once, the others one message at a time
        split = max(lead + 1, k - 4)
        outer, inner = range(lead + 1, split), range(split, k)
        table = np.zeros((1, n), dtype=np.int64)
        for r in inner:
            table = add[table[:, None, :], mul[:, rows[r]][None]].reshape(-1, n)
        for coeffs in itertools.product(range(q), repeat=len(outer)):
            word = rows[lead]
            for r, c in zip(outer, coeffs):
                word = add[word, mul[c][rows[r]]]
            # word + table row is zero where the row equals -word
            weights = n - np.count_nonzero(table == neg[word][None, :], axis=1)
            for w, cnt in enumerate(np.bincount(weights, minlength=n + 1)):
                if cnt:
                    dist[w] = dist.get(w, 0) + int(cnt) * (q - 1)
    return dict(sorted(dist.items()))


def x_minus(field, a):
    return SectionPoly({(1, 0): 1, (0, 0): field.neg(a)})


def y_minus(field, b):
    return SectionPoly({(0, 1): 1, (0, 0): field.neg(b)})


def test_build_hexagon_f5():
    code = build_code(HEX9, field_from_order(5))
    assert (code.n, code.k) == (16, 9)
    assert code.translation == (0, 0)
    assert code.monomials == tuple(HEX9.lattice_points())
    # row of monomial (0, 1) is g^j repeated per i-block
    r = code.monomials.index((0, 1))
    expected = [code.field.exp_table[j % 4] for i in range(4) for j in range(4)]
    assert list(code.generator[r]) == expected


def test_build_skew_triangle_f8():
    code = build_code(SKEW_TRIANGLE, field_from_order(8))
    assert (code.n, code.k) == (49, 11)


def test_build_point_polygon():
    f = field_from_order(5)
    code = build_code(LatticePolygon([(3, 2)]), f)
    assert (code.n, code.k) == (16, 1)
    assert code.translation == (-3, -2)
    assert list(code.generator[0]) == [1] * 16


def test_build_rejects_wide_polygon():
    with pytest.raises(PolygonTooLargeForField):
        build_code(HEX9, field_from_order(4))


def test_zero_count_independent_of_modulus():
    for mod in (None, (1, 1, 0, 1), (1, 0, 1, 1)):
        f = field_from_order(8, modulus=mod)
        assert count_torus_zeros(WRAPPED_SECTION, f) == 21


def test_zero_count_trivia():
    for q in (3, 5, 8, 9):
        f = field_from_order(q)
        assert count_torus_zeros(x_minus(f, 1), f) == q - 1
        assert count_torus_zeros(SectionPoly({(0, 0): 1}), f) == 0
        assert count_torus_zeros(SectionPoly({}), f) == (q - 1) ** 2


def test_section_helpers():
    f = field_from_order(5)
    s = multiply_sections(x_minus(f, 2), x_minus(f, 3), f)
    # (x-2)(x-3) = x^2 - 5x + 6 = x^2 + 1 over F_5
    assert s.terms == {(2, 0): 1, (0, 0): 1}
    assert LatticePolygon(list(s.terms)) == LatticePolygon([(0, 0), (2, 0)])
    assert s.shift(0, 2).terms == {(2, 2): 1, (0, 2): 1}
    assert SectionPoly({(1, 1): 0, (0, 0): 3}).terms == {(0, 0): 3}


def test_weight_of_product_section_f8():
    f = field_from_order(8)
    code = build_code(HEX9, f)
    s = multiply_sections(
        x_minus(f, 1), multiply_sections(y_minus(f, 2), y_minus(f, 3), f), f
    )
    s = s.shift(1, 0)  # slide the rectangle support into the polygon
    assert weight_of_section(s, code) == 49 - (3 * 7 - 2)


def test_weight_of_constant_section():
    code = build_code(HEX9, field_from_order(7))
    assert weight_of_section(SectionPoly({(1, 1): 1}), code) == 36


def test_wrapped_section_support_leaves_the_hexagon():
    # its monomial (0,2) falls outside P; only its torus evaluation
    # matches a minimum weight codeword
    f = field_from_order(8)
    code = build_code(HEX9, f)
    with pytest.raises(SupportOutsidePolygon):
        weight_of_section(WRAPPED_SECTION, code)
    assert code.n - count_torus_zeros(WRAPPED_SECTION, f) == 28


def test_min_distance_hexagon_f5():
    code = build_code(HEX9, field_from_order(5))
    res = min_distance_exact(code)
    assert res == DistanceResult(6, True, (5**9 - 1) // 4)


def test_min_distance_hexagon_f8():
    res = min_distance_exact(build_code(HEX9, field_from_order(8)))
    assert res.weight == 28 and res.exact


def test_min_distance_pentagon_f8():
    res = min_distance_exact(build_code(P54, field_from_order(8)))
    assert res.weight == 33 and res.exact


def test_min_distance_triangle_q1_f8():
    res = min_distance_exact(build_code(Q1, field_from_order(8)))
    assert res.weight == 40 and res.exact


def test_weight_distribution_point_polygon():
    code = build_code(LatticePolygon([(0, 0)]), field_from_order(5))
    assert weight_distribution(code) == {0: 1, 16: 4}


def test_weight_distribution_hexagon_f5():
    code = build_code(HEX9, field_from_order(5))
    dist = weight_distribution(code)
    assert dist[0] == 1
    assert sum(dist.values()) == 5**9
    assert min(w for w in dist if w) == 6


def test_weight_distribution_guard():
    code = build_code(LatticePolygon([(0, 0), (6, 0), (0, 6), (6, 6)]), field_from_order(8))
    with pytest.raises(TooLarge):
        weight_distribution(code)


def test_distribution_invariant_under_unimodular_maps():
    rng = random.Random(31001)
    checked = 0
    while checked < 60:
        q = rng.choice((3, 4, 5))
        span = q - 2
        pts = [
            (rng.randint(0, span), rng.randint(0, span))
            for _ in range(rng.randint(1, 4))
        ]
        poly = LatticePolygon(pts)
        m = ((1, 0), (0, 1))
        for _ in range(rng.randint(1, 3)):
            s = rng.randint(-2, 2)
            m = (
                ((m[0][0] + s * m[1][0], m[0][1] + s * m[1][1]), m[1])
                if rng.random() < 0.5
                else (m[0], (m[1][0] + s * m[0][0], m[1][1] + s * m[0][1]))
            )
        image = apply_map(poly, m).translate_to_origin()
        if image.fits_in_box(q) is None:
            continue
        f = field_from_order(q)
        assert weight_distribution(build_code(poly, f)) == weight_distribution(
            build_code(image, f)
        )
        checked += 1


def test_dimension_matches_point_count():
    rng = random.Random(31002)
    for _ in range(100):
        q = rng.choice((4, 5, 7, 8))
        span = q - 2
        pts = [
            (rng.randint(0, span), rng.randint(0, span))
            for _ in range(rng.randint(1, 5))
        ]
        poly = LatticePolygon(pts)
        code = build_code(poly, field_from_order(q))
        assert code.k == poly.num_lattice_points


def test_distance_equals_distribution_minimum():
    rng = random.Random(31003)
    for _ in range(25):
        q = rng.choice((3, 4, 5))
        pts = [(rng.randint(0, 1), rng.randint(0, 1)) for _ in range(rng.randint(1, 4))]
        code = build_code(LatticePolygon(pts), field_from_order(q))
        dist = weight_distribution(code)
        res = min_distance_exact(code)
        assert res.exact and res.weight == min(w for w in dist if w)


def test_section_weights_bound_distance():
    f = field_from_order(5)
    code = build_code(P54, f)
    d = min_distance_exact(code).weight
    rng = random.Random(31004)
    pts = code.polygon.lattice_points()
    for _ in range(50):
        terms = {
            pt: rng.randrange(1, 5) for pt in pts if rng.random() < 0.5
        }
        if not terms:
            continue
        assert weight_of_section(SectionPoly(terms), code) >= d


def test_threads_agree():
    code = build_code(HEX9, field_from_order(5))
    one = min_distance_exact(code)
    code2 = build_code(HEX9, field_from_order(5))
    two = min_distance_exact(code2, threads=2)
    assert (one.weight, one.exact, one.enumerated) == (two.weight, two.exact, two.enumerated)


class _InlinePool:
    """multiprocessing.Pool stand-in: records its size and init args, runs jobs in-process."""

    sizes: list = []
    initargs: list = []

    def __init__(self, processes, initializer, initargs):
        self.sizes.append(processes)
        self.initargs.append(initargs)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def imap_unordered(self, fn, jobs):
        return map(fn, jobs)

    def terminate(self):
        pass


@pytest.mark.parametrize(
    "threads, cpus, size",
    [(2, 1, None), (3, 8, 3), (10**6, 4, 4), (10**6, 64, 20), (64, None, None)],
)
def test_pool_size_is_capped_by_tasks_and_cpus(monkeypatch, threads, cpus, size):
    # the skew triangle over F8 has 20 tasks; no real process is started
    monkeypatch.setattr(_InlinePool, "sizes", [])
    monkeypatch.setattr(_InlinePool, "initargs", [])
    monkeypatch.setattr(multiprocessing, "Pool", _InlinePool)
    monkeypatch.setattr(code_module, "_WORKER_CTX", None)
    monkeypatch.setattr(code_module.os, "cpu_count", lambda: cpus)
    code = build_code(SKEW_TRIANGLE, field_from_order(8))
    assert len(search_plan(code).tasks) == 20
    res = min_distance_exact(code, threads=threads)
    assert (res.weight, res.exact) == (28, True)
    assert _InlinePool.sizes == ([] if size is None else [size])
    # workers build their rows from the plan's monomials; no matrix is pickled
    assert len(_InlinePool.initargs) == len(_InlinePool.sizes)
    assert not any(isinstance(a, np.ndarray) for args in _InlinePool.initargs for a in args)


class _StoppablePool(_InlinePool):
    """An _InlinePool that records the jobs it starts and when it is terminated."""

    ran: list = []
    terminated: list = []

    def imap_unordered(self, fn, jobs):
        for job in jobs:
            self.ran.append(job[0])
            yield fn(job)

    def terminate(self):
        self.terminated.append(len(self.ran))


def test_pool_search_stops_its_pool_when_the_deadline_fires(monkeypatch):
    # the clock, one second a reading, fires the deadline while the hexagon
    # over F16 has tasks left; no real process is started
    for name in ("sizes", "initargs", "ran", "terminated"):
        monkeypatch.setattr(_StoppablePool, name, [])
    monkeypatch.setattr(multiprocessing, "Pool", _StoppablePool)
    monkeypatch.setattr(code_module, "_WORKER_CTX", None)
    monkeypatch.setattr(code_module.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(code_module, "time", _TickClock())
    code = build_code(HEX9, field_from_order(16))
    res = min_distance_exact(code, threads=2, deadline=40)
    assert not res.exact
    assert _StoppablePool.sizes == [2]
    assert 0 < len(_StoppablePool.ran) < len(search_plan(code).tasks)
    # stopped right after the result that found the deadline passed
    assert _StoppablePool.terminated == [len(_StoppablePool.ran)]
    assert 0 < res.enumerated < (16**9 - 1) // 15


def test_deadline_returns_upper_bound():
    # the whole search takes about 0.1 s
    code = build_code(SKEW_TRIANGLE, field_from_order(8))
    res = min_distance_exact(code, deadline=0.03)
    assert not res.exact
    assert 28 <= res.weight <= 49
    assert 0 < res.enumerated < (8**11 - 1) // 7


def test_deadline_search_with_more_leading_rows_than_the_recursion_limit():
    code = build_code(LatticePolygon([(0, 0), (40, 0), (40, 30), (0, 30)]), field_from_order(43))
    assert search_plan(code).lead > sys.getrecursionlimit()
    res = min_distance_exact(code, deadline=0.2)
    assert not res.exact
    assert 0 < res.enumerated and res.weight <= code.n


def test_checkpoint_resume(tmp_path):
    # the hexagon over F13 takes many times the deadline, so the first run is cut
    path = str(tmp_path / "search.json")
    code = build_code(HEX9, field_from_order(13))
    first = min_distance_exact(code, deadline=0.05, checkpoint=path)
    assert not first.exact
    code2 = build_code(HEX9, field_from_order(13))
    second = min_distance_exact(code2, checkpoint=path)
    assert second.exact and second.weight == 110
    assert second.enumerated == (13**9 - 1) // 12
    assert first.enumerated < second.enumerated


def _pivots(monomials, q, message):
    """Pivot rows of a message, from the rule in the code module's docstring."""
    piv = []
    for r, c in enumerate(message):
        if not c or len(piv) == 3:
            continue
        (a, b), base = monomials[r], [monomials[i] for i in piv]
        if len(piv) == 1:
            g = math.gcd(a - base[0][0], b - base[0][1], q - 1)
        elif len(piv) == 2:
            (a0, b0), (a1, b1) = base
            g = math.gcd((a1 - a0) * (b - b0) - (b1 - b0) * (a - a0), q - 1)
        else:
            g = 1
        if g == 1:
            piv.append(r)
    return tuple(piv)


def _representatives(plan):
    return sum(plan.count(t)[0] for t in plan.tasks)


@pytest.mark.parametrize("q", [4, 8, 9])
def test_outer_walk_reaches_every_element(q, monkeypatch):
    # the frame plan's odometer, which the oracle walks
    for width in (1, 2, 3):
        digits = [0] * width
        seen = {tuple(digits)}
        for changes in frame_plan.odometer(q, width):
            for i, old, new in changes:
                assert digits[i] == old
                digits[i] = new
            seen.add(tuple(digits))
        assert len(seen) == q**width
    # with no suffix table every row is a leading row: the scanned vectors
    # and their Frobenius images are exactly the messages whose pivots are
    # 1, so the free rows take every element of F_q, prime or not
    monkeypatch.setattr(code_module, "_SUFFIX_ROWS_CHAR2", 1)
    monkeypatch.setattr(code_module, "_SUFFIX_ROWS_ODD", 1)
    f = field_from_order(q)
    code = build_code(TRAPEZOID, f)
    plan = search_plan(code)
    assert plan.depth == 0 and plan.lead == code.k
    ctx = _SearchContext(f, plan)
    seen = set()
    for task in plan.tasks:
        for (coeffs, pivots, orbit, _), word in ctx.words(task):
            assert pivots == _pivots(code.monomials, q, coeffs)
            # the word is minus the codeword of the coefficients
            assert not f.add_np(word, code.evaluate_message(coeffs)).any()
            images = {tuple(f.pow(c, f.p**i) for c in coeffs) for i in range(f.e)}
            assert len(images) == orbit and not images & seen
            seen |= images
    expected = set()
    for msg in itertools.product(range(q), repeat=code.k):
        if all(msg[r] == 1 for r in _pivots(code.monomials, q, msg)):
            expected.add(msg)
    assert seen == expected
    free = [m[-1] for m in expected if len(_pivots(code.monomials, q, m[:-1])) == 3]
    assert set(free) == set(range(q))


@pytest.mark.parametrize("q, weight, reps", [(7, 20, 192_191), (13, 110, 6_197_009)])
def test_hexagon_representative_counts(q, weight, reps):
    # the frame plan scanned 843,151 and 34,189,897; the pivot form scans
    # about a (q-1)^2 share of the (q^9 - 1)/(q - 1) normalized messages
    res = min_distance_exact(build_code(HEX9, field_from_order(q)))
    assert (res.weight, res.exact, res.enumerated) == (weight, True, (q**9 - 1) // (q - 1))
    assert res.representatives == reps


def test_suffix_table_matches_messages():
    f = field_from_order(3)
    square = LatticePolygon([(0, 0), (1, 0), (0, 1), (1, 1)])
    code = build_code(square, f)
    table = _build_suffix_table(f, _log_rows(code.monomials, f.q - 1), 2)
    assert table.shape == (code.n, 9)
    for idx in range(9):
        msg = [0, 0, idx // 3, idx % 3]  # digit j scales row k-1-j
        assert np.array_equal(table[:, idx], code.evaluate_message(msg))


def test_rank_detects_dependence():
    f = field_from_order(5)
    code = build_code(LatticePolygon([(0, 0), (2, 0)]), f)
    g = code.generator
    stacked = np.vstack([g, g[0:1]])
    assert _rank(stacked, f) == code.k


def test_generator_rank_equals_point_count():
    for poly, q in ((HEX9, 5), (HEX9, 8), (P54, 7), (SKEW_TRIANGLE, 9),
                    (LatticePolygon([(0, 0), (2, 0)]), 4), (LatticePolygon([(1, 1)]), 3)):
        code = build_code(poly, field_from_order(q))
        assert _rank(code.generator, code.field) == code.k == poly.num_lattice_points


BOX31 = LatticePolygon([(0, 0), (3, 0), (0, 1), (3, 1)])
SEGMENT7 = LatticePolygon([(0, 0), (7, 0)])


@pytest.mark.parametrize(
    "poly, q", [(BOX31, 8), (BOX31, 9), (SEGMENT7, 9), (P54, 9)],
    ids=["box31-F8", "box31-F9", "segment7-F9", "pentagon-F9"],
)
def test_weight_distribution_matches_brute_force_nonprime(poly, q):
    code = build_code(poly, field_from_order(q))
    assert weight_distribution(code) == brute_distribution(code)


def _random_code(rng, q):
    span = min(q - 2, 3)
    while True:
        pts = [(rng.randint(0, span), rng.randint(0, span)) for _ in range(rng.randint(1, 4))]
        poly = LatticePolygon(pts)
        if q**poly.num_lattice_points <= 200_000:
            return build_code(poly, field_from_order(q))


@pytest.mark.parametrize("walk", [False, True], ids=["suffix-table", "all-walked"])
def test_engine_matches_brute_force(walk, monkeypatch):
    if walk:
        # a one-row table leaves every row outside the frame to the walk
        monkeypatch.setattr(code_module, "_SUFFIX_ROWS_CHAR2", 1)
        monkeypatch.setattr(code_module, "_SUFFIX_ROWS_ODD", 1)
    rng = random.Random(31005)
    codes = [
        build_code(LatticePolygon([(2, 1)]), field_from_order(7)),
        build_code(LatticePolygon([(0, 0), (3, 0)]), field_from_order(8)),
        build_code(Q1, field_from_order(9)),
        # n = 225, 256, 324: uint8 and uint16 zero counts, XOR and gathered addition
        build_code(LatticePolygon([(0, 0), (1, 0), (0, 1), (1, 1)]), field_from_order(16)),
        build_code(LatticePolygon([(0, 0), (3, 0)]), field_from_order(17)),
        build_code(LatticePolygon([(0, 0), (0, 2)]), field_from_order(19)),
        # Frobenius orbits of size 2, 3 and 4 on the pins once rows are walked
        build_code(LatticePolygon([(0, 0), (3, 0)]), field_from_order(16)),
        build_code(LatticePolygon([(0, 0), (2, 0)]), field_from_order(25)),
        build_code(LatticePolygon([(0, 0), (0, 2)]), field_from_order(27)),
    ]
    codes += [_random_code(rng, q) for q in (3, 4, 5, 7, 8, 9) for _ in range(4)]
    ranks, short = set(), False
    for code in codes:
        plan = search_plan(code)
        # pivots of a full support: 1 on a point, 2 on a segment, 3 otherwise
        ranks.add(len(_pivots(code.monomials, code.field.q, [1] * code.k)))
        short |= any(len(piv) < 3 for t in plan.tasks for _, piv, _, _ in plan.steps(t))
        dist = brute_distribution(code)
        assert weight_distribution(code) == dist
        res = min_distance_exact(code)
        assert res.exact and res.weight == min(w for w in dist if w)
        assert res.representatives == _representatives(plan)
    assert ranks == {1, 2, 3} and short


def _every_vector_plan(code):
    """The pivot plan without Frobenius: every leading vector scanned, each with weight 1."""
    plan = search_plan(code)
    bare = dataclasses.replace(plan, frobenius=())
    width = len(plan.tasks[0])
    return dataclasses.replace(bare, tasks=tuple(c for c, _, _ in bare.extend((), (), (), width)))


def _frobenius_orbit(field, a):
    orbit = [a]
    while field.pow(orbit[-1], field.p) != a:
        orbit.append(field.pow(orbit[-1], field.p))
    return orbit


BOX21 = LatticePolygon([(0, 0), (2, 0), (0, 1), (2, 1)])
TRAPEZOID = LatticePolygon([(0, 0), (2, 0), (1, 1), (0, 1)])
SEGMENT3 = LatticePolygon([(0, 0), (3, 0)])
ORBIT_CODES = [(BOX21, 4), (BOX21, 8), (SEGMENT3, 8), (BOX21, 9), (TRAPEZOID, 9),
               (TRAPEZOID, 16), (SEGMENT3, 16), (TRAPEZOID, 25), (SEGMENT3, 25),
               (TRAPEZOID, 27), (SEGMENT3, 27)]


def _small_table(monkeypatch, walk):
    # at most 27 table columns, or one: every code above walks leading rows
    cap = 1 if walk else 27
    monkeypatch.setattr(code_module, "_SUFFIX_ROWS_CHAR2", cap)
    monkeypatch.setattr(code_module, "_SUFFIX_ROWS_ODD", cap)


@pytest.mark.parametrize("walk", [False, True], ids=["suffix-table", "all-walked"])
def test_orbit_plan_matches_every_pin_plan(walk, monkeypatch):
    # the oracle scans every leading vector, the plan one per Frobenius orbit
    _small_table(monkeypatch, walk)
    for poly, q in ORBIT_CODES:
        f = field_from_order(q)
        plan = search_plan(build_code(poly, f))
        assert (plan.depth == 0) == walk
        assert any(orbit > 1 for t in plan.tasks for _, _, orbit, _ in plan.steps(t))
        dist = weight_distribution(build_code(poly, f))
        res = min_distance_exact(build_code(poly, f))
        with monkeypatch.context() as m:
            m.setattr(code_module, "search_plan", _every_vector_plan)
            assert weight_distribution(build_code(poly, f)) == dist
            oracle = min_distance_exact(build_code(poly, f))
        assert (res.weight, res.exact, res.enumerated) == (
            oracle.weight, oracle.exact, oracle.enumerated)
        assert res.representatives == _representatives(plan) < oracle.representatives


@pytest.mark.parametrize("walk", [False, True], ids=["suffix-table", "all-walked"])
def test_pin_slices_agree_along_frobenius_orbits(walk, monkeypatch):
    # one task per leading vector, none merged into its Frobenius orbit
    _small_table(monkeypatch, walk)
    for poly, q in ORBIT_CODES:
        code = build_code(poly, field_from_order(q))
        f = code.field
        plan = _every_vector_plan(code)
        plan = dataclasses.replace(
            plan, tasks=tuple(c for c, _, _ in plan.extend((), (), (), plan.lead)))
        ctx = _SearchContext(f, plan)
        slices = {}
        for task in plan.tasks:
            hist, _, _, done = ctx.run_task(task, None, True)
            assert done
            slices[task] = hist
        moved = 0
        for vec, hist in slices.items():
            for i in range(1, f.e):
                image = tuple(f.pow(c, f.p**i) for c in vec)
                assert np.array_equal(slices[image], hist)
                moved += image != vec
        assert moved


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13])
def test_prime_field_task_list_is_every_pin(q):
    f = field_from_order(q)
    polys = [LatticePolygon([(0, 0)]), LatticePolygon([(0, 0), (q - 2, 0)]), Q1, HEX9, P54]
    split = False
    for poly in polys:
        if poly.fits_in_box(q) is None:
            continue
        code = build_code(poly, f)
        plan = search_plan(code)
        assert plan.frobenius == ()
        assert plan.tasks == _every_vector_plan(code).tasks
        split |= len(plan.tasks) > 1
    assert split or q < 7


@pytest.mark.parametrize(
    "q, count", [(4, 3), (8, 4), (9, 6), (16, 6), (25, 15), (27, 11), (64, 14), (256, 36)]
)
def test_pin_orbit_counts(q, count):
    # the frame plan's pins, one per Frobenius orbit
    f = field_from_order(q)
    orbits = frame_plan.pin_orbits(f)
    assert sum(1 for size in orbits if size) == count
    assert sum(orbits) == q
    for a, size in enumerate(orbits):
        if size:
            orbit = _frobenius_orbit(f, a)
            assert len(orbit) == size and min(orbit) == a


@pytest.mark.parametrize("q", [2, 4, 8, 9, 16, 25, 27, 64, 256])
def test_plan_frobenius_maps(q):
    f = field_from_order(q)
    plan = search_plan(build_code(LatticePolygon([(0, 0)]), f))
    assert len(plan.frobenius) == f.e - 1
    for i, images in enumerate(plan.frobenius, 1):
        assert list(images) == [f.pow(c, f.p**i) for c in range(q)]


def _oracle_classes(q):
    """One polygon per lattice class in [0,3]^2 that fits over F_q, the point included.

    Up to F9 the classes with q^k <= 10^6, above it those of at most 5 points.
    """
    seen = set()
    for key in [((0, 0),), *classes_in_box(3)]:
        poly = LatticePolygon(key)
        k = poly.num_lattice_points
        if poly.fits_in_box(q) is None or (k > 5 if q >= 16 else q**k > 10**6):
            continue
        form = normal_form(poly)[0]
        if form not in seen:
            seen.add(form)
            yield poly


@pytest.mark.parametrize(
    "q, classes",
    [(3, 4), (4, 20), (5, 58), (7, 37), (8, 25), (9, 25), (16, 14), (25, 14), (27, 14)],
)
def test_pivot_plan_matches_frame_plan(q, classes):
    f = field_from_order(q)
    checked = 0
    for poly in _oracle_classes(q):
        code = build_code(poly, f)
        hist, best, scanned, _ = frame_plan.search(code)
        dist = {0: 1}
        for zeros, cnt in enumerate(hist):
            if cnt:
                dist[code.n - zeros] = dist.get(code.n - zeros, 0) + int(cnt) * (q - 1)
        assert weight_distribution(code) == dict(sorted(dist.items())), poly
        res = min_distance_exact(code)
        assert (res.weight, res.exact, res.enumerated) == (code.n - best, True, scanned), poly
        checked += 1
    assert checked == classes


def test_zero_counts_in_blocks_match_a_wide_sum():
    # n = 256, 324 and 576: one, two and three blocks of 255 rows
    rng = np.random.default_rng(17)
    for q in (17, 19, 25):
        code = build_code(LatticePolygon([(0, 0), (1, 0), (0, 1)]), field_from_order(q))
        plan = dataclasses.replace(search_plan(code), depth=2)
        ctx = _SearchContext(code.field, plan)
        table = ctx.suffix
        width = table.shape[1]
        words = [np.zeros(code.n, dtype=table.dtype), table[:, 5].copy(), table[:, width - 1].copy()]
        words += [rng.integers(0, q, code.n).astype(table.dtype) for _ in range(3)]
        for word in words:
            counts = ctx.zero_counts(word, width)
            want = (table == word[:, None]).sum(axis=0, dtype=np.uint16)
            assert counts.dtype == np.uint16 and np.array_equal(counts, want)
        assert ctx.zero_counts(table[:, 5].copy(), width)[5] == code.n


def _first_task_checkpoint(path, code, **override):
    """A checkpoint of the min search with its first task done, fields overridable."""
    plan = search_plan(code)
    task = plan.tasks[0]
    key = _checkpoint_key(code, plan)
    _save_checkpoint(path, key, {task}, plan.count(task)[1], 3)
    with open(path) as fh:
        data = json.load(fh)
    for name, value in override.items():
        if value is None:
            del data[name]
        else:
            data[name] = value
    with open(path, "w") as fh:
        json.dump(data, fh)
    return plan, key


def test_checkpoint_state_is_loaded(tmp_path):
    path = str(tmp_path / "search.json")
    code = build_code(HEX9, field_from_order(8))
    plan, key = _first_task_checkpoint(path, code)
    state = _load_checkpoint(path, key, plan, code.n)
    assert state.done == {plan.tasks[0]} and state.result == 3
    assert (state.representatives, state.scanned) == plan.count(plan.tasks[0])
    assert state.completed


@pytest.mark.parametrize(
    "override",
    [
        {"scanned": None},
        {"done": None},
        {"best": None},
        {"scanned": "12"},
        {"scanned": 1},
        {"done": [[1, "x", None]]},
        {"done": {"a": 1}},
        {"done": [[9, 9]]},
        {"best": -1},
        {"best": 1.5},
    ],
    ids=["no-scanned", "no-done", "no-best", "str-scanned", "wrong-scanned",
         "str-task", "dict-done", "foreign-task", "negative-best", "float-best"],
)
def test_bad_checkpoint_starts_fresh(tmp_path, override):
    path = str(tmp_path / "search.json")
    code = build_code(HEX9, field_from_order(8))
    plan, key = _first_task_checkpoint(path, code, **override)
    assert _load_checkpoint(path, key, plan, code.n) is None
    res = min_distance_exact(code, checkpoint=path)
    assert res.exact and res.weight == 28
    assert res.enumerated == (8**9 - 1) // 7
    assert res.representatives == _representatives(plan)


def test_checkpoint_that_is_not_utf8_starts_fresh(tmp_path):
    path = tmp_path / "search.json"
    path.write_bytes(b'{"key": "\xff\xfe"}')
    code = build_code(HEX9, field_from_order(8))
    plan = search_plan(code)
    assert _load_checkpoint(str(path), _checkpoint_key(code, plan), plan, code.n) is None
    res = min_distance_exact(code, checkpoint=str(path))
    assert res.exact and res.weight == 28
    assert res.representatives == _representatives(plan)


def test_failed_checkpoint_write_leaves_no_temp_file(tmp_path):
    path = tmp_path / "search.json"
    # json.dump fails on the unserializable best after the file is opened
    with pytest.raises(TypeError):
        _save_checkpoint(str(path), "key", {(0, 1)}, 5, object())
    assert list(tmp_path.iterdir()) == []


def test_checkpoint_of_an_earlier_version_resumes(tmp_path, monkeypatch):
    # as earlier versions wrote it for the hexagon over F16, cut by the
    # ticking clock after five of its 8 tasks
    path = tmp_path / "search.json"
    path.write_text(json.dumps({
        "key": "50f1999cecb419f8edc75d1857b6656f1c1207cf3796b923b5f1f3498ac157b1",
        "done": [[0, 0, 0], [0, 0, 1], [0, 1, 0], [0, 1, 1], [1, 0, 0]],
        "scanned": 303108369, "best": 43,
    }))
    ran = []
    real_run = _SearchContext.run_task

    def recording_run(ctx, task, *args):
        ran.append(task)
        return real_run(ctx, task, *args)

    monkeypatch.setattr(_SearchContext, "run_task", recording_run)
    code = build_code(HEX9, field_from_order(16))
    res = min_distance_exact(code, checkpoint=str(path))
    assert res == DistanceResult(182, True, (16**9 - 1) // 15)
    assert res.representatives == _representatives(search_plan(code))
    assert sorted(ran) == [(1, 0, 1), (1, 1, 0), (1, 1, 1)]


def test_checkpoint_key_names_the_enumeration_scheme(tmp_path):
    path = str(tmp_path / "search.json")
    code = build_code(HEX9, field_from_order(8))
    plan = search_plan(code)
    key = _checkpoint_key(code, plan)
    # a checkpoint keyed without the scheme, as earlier versions wrote it
    old_key = hashlib.sha256(json.dumps(
        {"q": 8, "modulus": list(code.field.modulus),
         "vertices": [list(v) for v in code.polygon.vertices], "mode": "min"},
        sort_keys=True,
    ).encode()).hexdigest()
    assert old_key != key
    with open(path, "w") as fh:
        json.dump({"key": old_key, "done": [[0, None]], "scanned": 1, "best": 40}, fh)
    assert _load_checkpoint(path, key, plan, code.n) is None
    # another suffix depth is another search
    other = dataclasses.replace(plan, depth=plan.depth - 1)
    assert _checkpoint_key(code, other) != key
    res = min_distance_exact(code, checkpoint=path)
    assert res.exact and res.weight == 28


def test_reprs():
    s = SectionPoly({(1, 0): 2, (0, 1): 1})
    assert repr(s) == "SectionPoly({(0, 1): 1, (1, 0): 2})"
    code = build_code(Q1, field_from_order(5))
    assert repr(code) == "ToricCode(n=16, k=4, q=5, polygon=[(0, 0), (2, 1), (1, 2)])"


class _TickClock:
    """A monotonic clock that moves one second per reading."""

    def __init__(self):
        self.now = 0.0

    def monotonic(self):
        self.now += 1.0
        return self.now


def test_checkpoint_resume_over_a_nonprime_field(tmp_path, monkeypatch):
    # the clock, one second a reading and one reading a leading vector,
    # cuts the hexagon over F16 after five of its 8 tasks, among them
    # tasks with leading vectors of Frobenius orbit 4
    path = str(tmp_path / "search.json")
    code = build_code(HEX9, field_from_order(16))
    plan = search_plan(code)
    assert len(plan.tasks) == 8
    with monkeypatch.context() as m:
        m.setattr(code_module, "time", _TickClock())
        first = min_distance_exact(code, deadline=40, checkpoint=path)
    assert not first.exact
    key = _checkpoint_key(code, plan)
    state = _load_checkpoint(path, key, plan, code.n)
    done = state.done
    assert 0 < len(done) < len(plan.tasks)
    assert any(orbit == 4 for t in done for _, _, orbit, _ in plan.steps(t))
    assert state.scanned == sum(plan.count(t)[1] for t in done)
    assert state.scanned != sum(plan.count(t)[0] for t in done)
    ran = []
    real_run = _SearchContext.run_task

    def recording_run(ctx, task, *args):
        ran.append(task)
        return real_run(ctx, task, *args)

    monkeypatch.setattr(_SearchContext, "run_task", recording_run)
    second = min_distance_exact(build_code(HEX9, field_from_order(16)), checkpoint=path)
    assert second.exact and second.weight == 182
    assert second.enumerated == (16**9 - 1) // 15
    assert second.representatives == _representatives(plan)
    assert sorted(ran + sorted(done)) == sorted(plan.tasks)


def test_checkpoint_of_the_every_pin_plan_is_ignored(tmp_path):
    path = str(tmp_path / "search.json")
    code = build_code(HEX9, field_from_order(8))
    plan, oracle = search_plan(code), _every_vector_plan(code)
    done = set(oracle.tasks[:10])
    scanned = sum(oracle.count(t)[1] for t in done)
    _save_checkpoint(path, _checkpoint_key(code, oracle), done, scanned, 20)
    assert _checkpoint_key(code, oracle) != _checkpoint_key(code, plan)
    assert _load_checkpoint(path, _checkpoint_key(code, plan), plan, code.n) is None
    res = min_distance_exact(code, checkpoint=path)
    assert res.exact and res.weight == 28
    assert res.enumerated == (8**9 - 1) // 7
    assert res.representatives == _representatives(plan)


def test_checkpoint_of_the_frame_plan_is_ignored(tmp_path):
    # written as the frame plan wrote them, under its key, with its tasks
    path = str(tmp_path / "search.json")
    code = build_code(HEX9, field_from_order(8))
    plan, old = search_plan(code), frame_plan.frame_plan(code)
    old_key = frame_plan.checkpoint_key(code, old, False)
    done = old.tasks[:10]
    with open(path, "w") as fh:
        json.dump({"key": old_key, "done": [list(t) for t in done],
                   "scanned": sum(old.rows(t) * old.weight(t) for t in done), "best": 20}, fh)
    key = _checkpoint_key(code, plan)
    assert old_key != key
    assert _load_checkpoint(path, key, plan, code.n) is None
    res = min_distance_exact(code, checkpoint=path)
    assert res.exact and res.weight == 28
    assert res.enumerated == (8**9 - 1) // 7
    assert res.representatives == _representatives(plan)


def test_deadline_ignores_wall_clock_jumps(monkeypatch):
    # a wall clock stuck in the past must not keep a deadline from firing
    monkeypatch.setattr(code_module.time, "time", lambda: 0.0)
    res = min_distance_exact(build_code(SKEW_TRIANGLE, field_from_order(8)), deadline=0.02)
    assert not res.exact


def test_coverage_check_survives_optimization(monkeypatch):
    code = build_code(HEX9, field_from_order(5))
    real = code_module._enumerate

    def short(*args, **kwargs):
        out = real(*args, **kwargs)
        out.scanned -= 1
        return out

    monkeypatch.setattr(code_module, "_enumerate", short)
    with pytest.raises(InvariantViolation):
        min_distance_exact(code)
    with pytest.raises(InvariantViolation):
        weight_distribution(code)
