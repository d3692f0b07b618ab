"""Minimum-distance bounds for toric surface codes.

Closed-form distances for the standard polygon families, upper bounds
witnessed by explicit product sections, the decomposition lower bound
with its applicability threshold, and a report aggregator that pattern
matches a polygon against all of the above.
"""

from __future__ import annotations

import functools
import itertools
from bisect import bisect_right
from dataclasses import dataclass
from math import gcd, isqrt, prod
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .code import (
    SectionPoly,
    _build_suffix_table,
    _log_grid,
    _log_rows,
    build_code,
    count_torus_zeros,
    min_distance_exact,
    multiply_sections,
)
from .decomp import DEFAULT_BUDGET, MinkowskiDecomposition, best_subpolygon_decomposition
from .errors import (
    BudgetExceeded,
    DeadlineExceeded,
    FieldTooSmall,
    HypothesisViolated,
    InvariantViolation,
    NoDecomposition,
    TooLarge,
)
from .field import FieldSpec, field_from_order
from .polygon import LatticePolygon, _run_directions, _xgcd, normal_form

# exhaustive section maximization is allowed up to this many coefficient
# vectors; larger spaces fall back to the split-form catalog (see _exhaustive)
DEFAULT_SECTION_BUDGET = 300_000

# cap on candidate sections kept per summand when building products
_CANDIDATE_CAP = 64

# exact search over candidate tuples is done up to this many combinations
_PAIRING_CAP = 10_000

# the pairing searches score rows in chunks whose accumulator (one byte
# per torus point and row) takes about this many bytes
_PAIRING_BYTES = 1 << 21

# parameter grid limit when matching against the rank-3 families
_RANK3_SCAN_CAP = 16

# bound reports evaluate sections and mark zeros over the whole torus;
# past 2^20 points (q above 1024) a report on the paper's polygons took
# up to 47 s and 220 MB (F_2048), and F_65536 has 2^32
_TORUS_CAP = 1 << 20

# exact summand distances of this process, keyed by (summand, q) and by
# (normal form, q); see _component_distance
_DISTANCES: dict = {}


# -- closed forms ---------------------------------------------------------------


def d_segment(a: int, q: int) -> int:
    """Distance of the code on a lattice segment of length a."""
    if a < 0:
        raise ValueError("segment length must be nonnegative")
    if q <= a + 1:
        raise FieldTooSmall(f"a length-{a} segment needs q > {a + 1}, got q = {q}")
    return (q - 1) ** 2 - a * (q - 1)


def d_full_triangle(a: int, q: int) -> int:
    """Distance for the right triangle conv{(0,0),(a,0),(0,a)}."""
    if a < 0:
        raise ValueError("side length must be nonnegative")
    if q <= a + 1:
        raise FieldTooSmall(f"a side-{a} triangle needs q > {a + 1}, got q = {q}")
    return (q - 1) ** 2 - a * (q - 1)


def d_triangle(a: int, b: int, c: int, q: int) -> int:
    """Distance for conv{(0,0),(a,0),(b,c)} when a >= b + c.

    The hypothesis is inclusive: a == b + c is allowed.  Below it the
    formula does not apply and the caller must fall back to search.
    """
    if min(a, b, c) < 0:
        raise ValueError("triangle parameters must be nonnegative")
    if a < b + c:
        raise HypothesisViolated(f"triangle form needs a >= b + c, got {a} < {b + c}")
    if q <= a + 1:
        raise FieldTooSmall(f"base length {a} needs q > {a + 1}, got q = {q}")
    return (q - 1) ** 2 - a * (q - 1)


def d_rectangle(d: int, e: int, q: int) -> int:
    """Distance for the axis box [0,d] x [0,e]."""
    if min(d, e) < 0:
        raise ValueError("box sides must be nonnegative")
    if q <= max(d, e) + 1:
        raise FieldTooSmall(f"a {d}x{e} box needs q > {max(d, e) + 1}, got q = {q}")
    return (q - 1) ** 2 - (d + e) * (q - 1) + d * e


def d_hirzebruch(d: int, e: int, r: int, q: int) -> int:
    """Distance for conv{(0,0),(d,0),(0,e),(d,e+rd)} with twist r >= 1.

    r = 0 is the untwisted case and delegates to the box formula.
    """
    if r == 0:
        return d_rectangle(d, e, q)
    if r < 0 or d < 0 or e < 0:
        raise ValueError("parameters must be nonnegative")
    if e + d * r >= q - 1:
        raise FieldTooSmall(f"need e + d*r < q - 1, got {e + d * r} >= {q - 1}")
    return (q - 1) ** 2 - (r * d + e) * (q - 1)


# -- the rank-3 families --------------------------------------------------------

_RANK3_CASES = ("I", "II", "III", "IV")


def _rank3_polygon(case: str, a: int, b: int, c: int, r: int) -> LatticePolygon:
    # s and t are the two support values that decide which edge carries
    # the longest lattice run
    s = a + b
    t = c + (r - 1) * a + r * b
    if case == "I":
        n = s + t
        return LatticePolygon([(0, 0), (n, 0), (b + c, s), (b, s), (0, a)])
    if case == "II":
        if r == 1:
            # the pentagon degenerates; which quadrilateral survives
            # depends on the sign of c - a
            if c > a:
                return LatticePolygon([(0, 0), (s, 0), (s, b + c), (0, c - a)])
            if a > c:
                return LatticePolygon([(0, 0), (a - c, 0), (s, b + c), (0, b + c)])
            return LatticePolygon([(0, 0), (s, 0), (s, s)])
        return LatticePolygon([(0, 0), (s, 0), (s, t), (b, c + r * b), (0, c)])
    if case == "III":
        return LatticePolygon([(0, 0), (1, 0), (1, 2 * b + c - a), (0, b + c)])
    w = s + t
    return LatticePolygon([(0, 0), (w, 0), (w, a), (w - b, s), (r * s, s)])


def _rank3_drop(case: str, a: int, b: int, c: int, r: int) -> int:
    s = a + b
    t = c + (r - 1) * a + r * b
    if case in ("I", "IV"):
        return s + t
    if case == "II":
        return max(s, t)
    return 2 * b + c - a


def rank3_family_distance(
    case: str, a: int, b: int, c: int, r: int, q: int
) -> tuple[int, LatticePolygon]:
    """Closed-form distance for one of the four rank-3 fan families.

    Returns the distance together with the constructed polygon so the
    caller can cross-check against search.  Case III carries the extra
    hypothesis b > a; its polygon does not involve r, which is only
    validated.
    """
    case = case.strip().upper()
    if case not in _RANK3_CASES:
        raise ValueError(f"case must be one of {_RANK3_CASES}, got {case!r}")
    if min(a, b, c, r) < 1:
        raise HypothesisViolated("family parameters a, b, c, r must be >= 1")
    if case == "III" and b <= a:
        raise HypothesisViolated(f"case III needs b > a, got b = {b}, a = {a}")
    poly = _rank3_polygon(case, a, b, c, r)
    if poly.fits_in_box(q) is None:
        w, h = poly.width_height()
        raise FieldTooSmall(f"the family polygon spans {w}x{h}, needs q >= {max(w, h) + 2}")
    m = _rank3_drop(case, a, b, c, r)
    return (q - 1) ** 2 - m * (q - 1), poly


# -- bounds from decompositions -------------------------------------------------


def upper_bound_from_decomposition(
    dec: MinkowskiDecomposition, q: int, component_distances: Sequence[int]
) -> int:
    """Sum of component distances minus (ell - 1)(q-1)^2.

    Valid only under the hypothesis that maximizing sections of the
    components have pairwise disjoint zero sets, which is not checked
    here; see certified_upper_bound for the unconditional variant.
    """
    ds = list(component_distances)
    if len(ds) != dec.ell:
        raise ValueError(f"expected {dec.ell} component distances, got {len(ds)}")
    return sum(ds) - (dec.ell - 1) * (q - 1) ** 2


class MaxZeroResult(NamedTuple):
    section: SectionPoly
    zeros: int
    exhaustive: bool


def _exhaustive(poly, q):
    """Whether sections on poly are searched over all q^#(P) messages, not the catalog."""
    return q ** poly.num_lattice_points <= DEFAULT_SECTION_BUDGET


def _section(pts, vector):
    """The section with coefficient vector[i] at pts[i]; candidates are such vectors."""
    return SectionPoly(zip(pts, vector))


def _max_zero_exhaustive(poly, field, cap=None):
    """Maximum zero count over all sections supported on the polygon.

    Scalar multiples share a zero set, so messages are normalized to a
    leading coefficient 1 and ordered by lead position, then
    lexicographically.  One _build_suffix_table, over rows 1 .. k-2,
    serves every lead: its first q^(k-2-lead) columns run through the
    rows strictly between the lead and the last row r, the row before r
    fastest, which is that order, and a lead's words are its row plus
    each of those columns, set side by side with the other leads' in
    scan order for one count.  Lead k-1, r alone, vanishes nowhere while
    lead 0 has a binomial with a zero, so it is never searched.  The
    last coefficient c is resolved per point: w + c*r = 0 iff w = c = 0,
    or c != 0 with log c = log(-w) - log r mod q-1, since r never
    vanishes; a bincount of that log per column counts every c at once,
    and a winner's zeros are the points whose log is its c's (q-1
    standing for c = 0).  One stable argsort of a winning column groups
    its points by log, each group in ascending order, and the cumulative
    bincount of the column bounds the groups, so every winner in the
    column reads its zeros from that one sort.  Returns the count, the
    first `cap` maximizing coefficient vectors in that order, each over
    the lattice points in lexicographic order (see _section), and their
    zeros, each an ascending array of torus indices.  A point has its
    one vector [1], which vanishes nowhere.

    With cap 1, each lead scans one coefficient prefix per torus orbit
    on rows lead+1 and lead+2 where they precede the last row.  The
    torus point (g^s, g^t), with the scalar that keeps the lead at 1,
    adds s*a + t*b to the log of the coefficient at p_lead + (a, b) and
    permutes the zeros, so an orbit shares its lead and its count.  The
    first maximizer is then the least member of its orbit, and the
    restricted scan keeps it if it keeps every orbit's least member.
    Lexicographic half-planes are convex, so a lattice point on the
    segment or triangle that consecutive lattice points span lies in
    the polygon between them in lexicographic order: consecutive points
    differ by a primitive vector, and three span an empty triangle.  So
    row lead+1 takes every log, and its nonzero values form one orbit,
    least at the code 1.  When it is 0, row lead+2's image is the
    subgroup of index gcd(p_lead+2 - p_lead, q-1).  When it is 1, the
    torus points that keep it are the multiples of a vector orthogonal
    to the primitive p_lead+1 - p_lead mod q-1, whose image on row
    lead+2 has index gcd(det(p_lead+1 - p_lead, p_lead+2 - p_lead), q-1);
    the det is +-1, or 0 on a collinear triple, index q-1 with every
    value alone.  The least member holds 0 or the least code of its
    coset (see _orbit_prefixes).  The suffix table's columns then cover
    only the rows after those two, in one block per kept prefix, in
    order, so the count, the first maximizer and its zeros are the full
    scan's.  The table's row 1 is lead 0's next row and 0 for every
    other lead, so only its values 0 and 1 are built.  Larger caps scan
    every prefix.
    """
    q, qm = field.q, field.q - 1
    pts = poly.lattice_points()
    k = len(pts)
    if k == 1:
        return 0, [[1]], [np.zeros(0, dtype=np.intp)]
    logs = _log_rows(pts, qm)
    shift = (field.log_table[field.neg(1)] - logs[-1])[:, None]
    # bincount columns are in log order with c = 0 last; reorder to coefficient codes
    by_code = [qm] + field.log_table[1:]
    table = _build_suffix_table(field, logs[: k - 1], k - 2 - (cap == 1 and k > 2))
    if cap == 1 and k > 2:
        # row 1 takes 0 and 1 only: the full table's first 2q^(k-3) columns
        table = np.concatenate((table, field.add_np(table, field.exp_np[logs[1]][:, None])), axis=1)
    words, starts, spans = [], [0], []
    for lead in range(k - 1):
        free = k - 2 - lead
        fixed = min(2, free) if cap == 1 else 0
        width = q ** (free - fixed)
        cols = table[:, : q**free]
        prefixes = [0]
        if fixed:
            # column block b holds prefix b on the fixed rows, the first the higher digit
            prefixes = _orbit_prefixes(field, pts[lead : lead + fixed + 1])
            cols = cols.reshape(len(cols), -1, width)[:, prefixes].reshape(len(cols), -1)
        words.append(field.add_np(cols, field.exp_np[logs[lead]][:, None]))
        starts.append(starts[-1] + cols.shape[1])
        spans.append((prefixes, width))
    words = np.concatenate(words, axis=1)
    bins = np.where(words == 0, qm, (field.log_np[words] + shift) % qm)
    total = starts[-1]
    counts = np.bincount((bins + np.arange(total) * q).ravel(), minlength=total * q)
    counts = counts.reshape(-1, q)[:, by_code].ravel()
    best = int(counts.max())
    vectors, zeros = [], []
    column = None
    # index = column * q + c, so a column's winners are consecutive
    for index in np.flatnonzero(counts == best)[:cap].tolist():
        at, c = divmod(index, q)
        if at != column:
            column = at
            codes = bins[:, column].astype(np.uint16)
            order = np.argsort(codes, kind="stable")
            edges = np.concatenate(([0], np.bincount(codes, minlength=q).cumsum()))
        code = by_code[c]
        zeros.append(order[edges[code] : edges[code + 1]])
        lead = bisect_right(starts, at) - 1
        prefixes, width = spans[lead]
        block, offset = divmod(at - starts[lead], width)
        index = (prefixes[block] * width + offset) * q + c
        msg = [0] * k
        msg[lead] = 1
        for pos in range(k - 1, lead, -1):
            index, msg[pos] = divmod(index, q)
        vectors.append(msg)
    return best, vectors, zeros


def _orbit_prefixes(field, pts):
    """Least member of each torus orbit of prefixes on the rows after a lead, as block numbers.

    pts are the lead's point and the one or two points after it.  The
    first row takes 0 and 1; the second, after each, takes 0 and the
    least code of each coset of the subgroup of index g (see
    _max_zero_exhaustive), cosets of logs mod g.  Prefix (c1, c2) is
    block c1*q + c2, so the blocks come in lexicographic order.
    """
    if len(pts) == 2:
        return [0, 1]
    q = field.q
    (x0, y0), (x1, y1), (x2, y2) = pts
    out = []
    for c1, g in (
        (0, gcd(x2 - x0, y2 - y0, q - 1)),
        (1, gcd((x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0), q - 1)),
    ):
        least = {}
        for c in range(1, q):
            least.setdefault(field.log_table[c] % g, c)
        out += [c1 * q + c for c in [0, *sorted(least.values())]]
    return out


class _CatalogEntry(NamedTuple):
    """A split-form section, described by its pencils, with its zero count.

    Each pencil (u, t, offset) is the product of X^u - g^(offset+i) over
    i < t, for a primitive u and t < q-1; the section is the product of
    the pencils times x^base.  X^u maps the torus onto F_q* with every
    fibre of size q-1, so a pencil vanishes at exactly t(q-1) torus
    points, and a product of two pencils on a unimodular pair (u, v),
    an automorphism of the torus, at t1(q-1) + t2(q-1) - t1*t2.
    """

    zeros: int
    base: tuple
    pencils: tuple

    def section(self, field) -> SectionPoly:
        s = SectionPoly({(0, 0): 1})
        for u, t, offset in self.pencils:
            for i in range(t):
                root = field.exp_table[(offset + i) % (field.q - 1)]
                s = multiply_sections(s, SectionPoly({u: 1, (0, 0): field.neg(root)}), field)
        return s.shift(*self.base)

    def zero_mask(self, qm) -> np.ndarray:
        """Torus points where the section vanishes, from exponents alone.

        X^u = g^(offset+i) with i < t exactly where the log of X^u minus
        offset is below t mod q-1.
        """
        mask = np.zeros(qm * qm, dtype=bool)
        for (a, b), t, offset in self.pencils:
            window = np.arange(2 * qm) % qm < t
            mask |= window[_log_grid(qm, a, b, -offset)].ravel()
        return mask


def _catalog_sections(poly, field, cap):
    """Split-form candidate sections supported inside the polygon.

    One pencil per lattice direction with a run, in the first `cap` of
    its q-1 root rotations, which give products room to avoid common
    zeros, plus one product of two pencils per unimodular direction pair
    that spans a cell inside the polygon.  Entries carry their
    closed-form zero counts and build their sections on demand.  runs[u][p] counts the
    steps along u from p that stay in the polygon, one walk per lattice
    line, which a convex polygon meets in consecutive points; p and
    p + g*u put p + u in it, so every direction has a run.  A pencil
    sits at the first point of the longest run in lattice-point order.
    A direction's rotations share one zero count and sit next to each
    other, so a stable ranking keeps them in rotation order, and its
    first `cap` entries are the same for any `cap` rotations or more.
    """
    qm = field.q - 1
    pts = poly.lattice_points()
    ptset = set(pts)
    out = []
    runs = {}
    for u in _run_directions(pts):
        run = runs[u] = {}
        for x, y in pts:
            if (x - u[0], y - u[1]) in ptset:
                continue
            line = [(x, y)]
            while (x + u[0], y + u[1]) in ptset:
                x, y = x + u[0], y + u[1]
                line.append((x, y))
            for steps, p in enumerate(reversed(line)):
                run[p] = steps

    for u, run in runs.items():
        base = max(pts, key=run.__getitem__)
        t = run[base]
        for j in range(min(cap, qm)):
            out.append(_CatalogEntry(t * qm, base, ((u, t, j),)))

    for u, v in itertools.combinations(runs, 2):
        if abs(u[0] * v[1] - u[1] * v[0]) != 1:
            continue
        run_u, run_v = runs[u], runs[v]
        best = None
        for p in pts:
            for i in range(1, run_u[p] + 1):
                # the cell's sides along v run from p and from p + i*u
                t2 = min(run_v[p], run_v[p[0] + i * u[0], p[1] + i * u[1]])
                if t2 < 1:
                    continue
                score = (i + t2) * qm - i * t2
                if best is None or score > best[0]:
                    best = (score, p, i, t2)
        if best is not None:
            score, p, t1, t2 = best
            out.append(_CatalogEntry(score, p, ((u, t1, 0), (v, t2, 0))))
    return out


def max_zero_section(poly: LatticePolygon, field: FieldSpec) -> MaxZeroResult:
    """Section with the most torus zeros among those supported on poly.

    Exhaustive over all coefficient vectors when _exhaustive allows it;
    otherwise the best member of a catalog of split forms, with
    exhaustive=False to flag that the count is only a lower estimate of
    the true maximum.  Both come from the first candidate of
    _max_zero_candidates, whose vector is built into a section only
    here; the catalog winner's count, the size of the zero list read
    from its exponent mask, is checked against a count of its zeros.
    """
    q = field.q
    boxed, shift = poly.place_in_box(q)
    # a single point has no catalog section, but its q <= MAX_Q messages fit the budget
    vectors, _, sizes = _max_zero_candidates(boxed, field, cap=1)
    section, zeros = _section(boxed.lattice_points(), vectors[0]), int(sizes[0])
    exhaustive = _exhaustive(boxed, q)
    if not exhaustive:
        counted = count_torus_zeros(section, field)
        if counted != zeros:
            raise InvariantViolation(
                f"catalog section has {counted} torus zeros, its mask {zeros}"
            )
    return MaxZeroResult(section.shift(-shift[0], -shift[1]), zeros, exhaustive)


def _max_zero_candidates(poly, field, cap=_CANDIDATE_CAP):
    """Candidate vectors for one summand (see _section), most zeros first, with their zero lists.

    Where _exhaustive allows, the first `cap` maximizers of
    _max_zero_exhaustive, with the zeros its enumeration read off.
    Otherwise catalog entries ranked by their closed-form counts, read
    onto the points; the sort is stable, so ties keep catalog order.
    Returns the vectors, a matrix whose row i lists the torus indices
    where vector i vanishes, padded with the index (q-1)^2 past the
    torus, and the list sizes.
    """
    q = field.q
    if _exhaustive(poly, q):
        _, vectors, lists = _max_zero_exhaustive(poly, field, cap=cap)
    else:
        kept = sorted(_catalog_sections(poly, field, cap), key=lambda e: -e.zeros)[:cap]
        vectors = []
        for e in kept:
            terms = e.section(field).terms
            vectors.append([terms.pop(p, 0) for p in poly.lattice_points()])
            if terms:
                raise InvariantViolation(f"catalog term {next(iter(terms))} is off the polygon")
        lists = [np.flatnonzero(e.zero_mask(q - 1)) for e in kept]
    sizes = np.array([len(z) for z in lists], dtype=np.intp)
    zeros = np.full((len(lists), sizes.max(initial=0)), (q - 1) ** 2, dtype=np.intp)
    for row, z in zip(zeros, lists):
        row[: len(z)] = z
    return vectors, zeros, sizes


def _shape(pts):
    """Shape key of lattice points in lexicographic order, with its frame.

    The differences p_i - p_0 are the columns of a 2 x (k-1) matrix D.
    Row operations in GL2(Z) bring D to its Hermite normal form H = V D,
    carried out on [I | D] so that V, the frame, is read off its first
    columns: the first column goes to (g, 0) with g its gcd, and where
    the rank is two, the first column with a nonzero second row gets a
    positive entry h there and the entry above it reduced into [0, h).
    H, the key, is the same for every point list that a unimodular map
    sends to this one point by point.  Returns the key and V.
    """
    x0, y0 = pts[0]
    r0 = [1, 0] + [x - x0 for x, _ in pts[1:]]
    r1 = [0, 1] + [y - y0 for _, y in pts[1:]]
    if len(pts) > 1:
        # the points are distinct, so the first difference is nonzero
        g, u, v = _xgcd(r0[2], r1[2])
        a, b = r0[2] // g, r1[2] // g
        r0, r1 = [u * s + v * t for s, t in zip(r0, r1)], [a * t - b * s for s, t in zip(r0, r1)]
        j = next((j for j in range(3, len(r1)) if r1[j]), None)
        if j is not None:
            if r1[j] < 0:
                r1 = [-t for t in r1]
            f = r0[j] // r1[j]
            r0 = [s - f * t for s, t in zip(r0, r1)]
    return (tuple(r0[2:]), tuple(r1[2:])), ((r0[0], r0[1]), (r1[0], r1[1]))


def _torus_map(frame, new_frame):
    """The matrix A^-T, for A = V'^-1 V with V and V' the frames of one shape.

    det(V) adj(V) is V^-1 when V is unimodular, so the product below is
    A^-1 = V^-1 V', with determinant 1 or -1, exactly when both frames
    are unimodular.
    """
    (a, b), (c, d) = frame
    det = a * d - b * c
    (e, f), (g, h) = new_frame
    (w, x), (y, z) = (
        (det * (d * e - b * g), det * (d * f - b * h)),
        (det * (a * g - c * e), det * (a * h - c * f)),
    )
    if w * z - x * y not in (1, -1):
        raise InvariantViolation(f"frames {frame} and {new_frame} are not related by GL2(Z)")
    return (w, y), (x, z)


def _moved_candidates(frame, found, new_frame, qm):
    """Candidates of points p'_i from those found for points p_i of one shape.

    With frames V and V' (see _shape), A = V'^-1 V sends p_i - p_0 to
    p'_i - p'_0 for every i.  A section sum c_i x^(p'_i) at the torus
    point (g^i, g^j) is a monomial, which vanishes nowhere, times
    sum c_i x^(p_i) at A^T (i, j), so its zeros are those of the first
    section moved by (i, j) -> A^-T (i, j) mod q-1, a permutation of the
    torus.  Both point lists are in lexicographic order, so the vector
    list is returned as it is; each zero list is moved and sorted again,
    and the padding index (q-1)^2 stays last.
    """
    vectors, zeros, sizes = found
    (a, b), (c, d) = _torus_map(frame, new_frame)
    i, j = np.divmod(zeros, qm)
    moved = (a * i + b * j) % qm * qm + (c * i + d * j) % qm
    moved[zeros == qm * qm] = qm * qm
    moved.sort(axis=1)
    return vectors, moved, sizes


class _ReportCache:
    """What the product searches of one report share.

    `parts` maps a summand's vertices to its candidates, `shapes` a shape
    key to the frame and candidates of the first exhaustive summand of
    that shape (see _part_candidates), and `most` a summand to the count
    certified_upper_bound prunes with (see _most_zeros).  `acc` is the
    accumulator of _pairing, grown to the largest chunk a search of the
    report has needed and clear between searches.
    """

    def __init__(self):
        self.parts, self.shapes, self.most = {}, {}, {}
        self.acc = np.zeros(0, dtype=np.uint8)


def _part_candidates(part, field, cache):
    """Candidates of one summand with their zero lists, memoized in `cache`.

    Parts are stored at the origin, so equal summands of different
    decompositions share one entry of cache.parts, keyed by their
    vertices.  Summands that _exhaustive admits are searched once per
    shape (see _shape): a summand of a shape seen before takes the
    first one's vector list on its own points, zero lists moved (see
    _moved_candidates).  _max_zero_exhaustive ranks coefficient vectors
    on the points in lexicographic order, and the unimodular map between
    two summands of one shape keeps that order and every zero count, so
    the search would pick the same vectors in the same order on both.
    Catalog entries follow run directions, whose order such a map does
    not keep, so catalog summands are searched as they are.
    """
    if part.vertices in cache.parts:
        return cache.parts[part.vertices]
    if not _exhaustive(part, field.q):
        found = _max_zero_candidates(part, field)
    else:
        key, frame = _shape(part.lattice_points())
        if key in cache.shapes:
            found = _moved_candidates(*cache.shapes[key], frame, field.q - 1)
        else:
            found = _max_zero_candidates(part, field)
            cache.shapes[key] = frame, found
    cache.parts[part.vertices] = found
    return found


def _most_zeros(part, field, most):
    """Most torus zeros among the candidate sections of one summand.

    The same count as the first of _max_zero_candidates' sizes, but
    without building the candidates, and by the same _exhaustive rule.
    Where those come from the exhaustive search, the count is the length
    (q-1)^2 minus the distance of the summand's code (see
    _component_distance).  Otherwise it is the best closed-form catalog
    count; the code's length minus its distance would be a looser bound
    there.  Both are memoized in `most` by the summand.
    """
    if part not in most:
        q = field.q
        if _exhaustive(part, q):
            most[part] = (q - 1) ** 2 - _component_distance(part, q)
        else:
            most[part] = max((e.zeros for e in _catalog_sections(part, field, 1)), default=0)
    return most[part]


def _hits(acc, zeros):
    """Entry (j, r) counts the points of zero list j that column r of acc marks.

    The lists are gathered in blocks of 255 points, whose sums fit in
    uint8, and each block is summed by halving it, so every add runs over
    long contiguous rows (numpy sums a middle axis in short inner loops).
    """
    hits = np.zeros((len(zeros), acc.shape[1]), dtype=np.intp)
    for b in range(0, zeros.shape[1], 255):
        block = np.take(acc, zeros[:, b : b + 255], axis=0)
        while block.shape[1] > 1:
            half = block.shape[1] // 2
            folded = block[:, :half] + block[:, half : 2 * half]
            if block.shape[1] % 2:
                folded[:, 0] += block[:, -1]
            block = folded
        hits += block[:, 0]
    return hits


def _pairing(zeros, sizes, n, exact, cache):
    """Zero counts of the unions of candidate tuples, one candidate per part.

    zeros[p] and sizes[p] are part p's zero lists and their sizes (see
    _max_zero_candidates) over a torus of n points.  Exact: the rows fix
    every part but the last in itertools.product order, and the last
    part's candidates are all counted, so the counts run over every
    tuple in that order.  Greedy: the rows fix the first part, and each
    further part takes the candidate adding the most zeros, the first of
    equal gains.  Rows go in chunks whose accumulator, n + 1 bytes per
    row, holds at most about _PAIRING_BYTES: the first bytes of
    cache.acc, a clear buffer that one report's searches share (see
    _ReportCache), grown here when a chunk needs more.  Byte
    z * width + r marks that row r's picks so far vanish at point z;
    the bytes of the padding index n stay clear.  Gathering them at a
    list Z counts Z's zeros already in the union (see _hits), so the
    candidate adds its size minus that, and a row's count is its first
    pick's size plus its gains.  Each chunk unmarks what it marked, so
    the buffer is clear again on return.  Returns the picks, one row
    per tuple or per first factor, and their counts.
    """
    parts = len(zeros)
    dims = [len(s) for s in sizes]
    if exact:
        lead = np.indices(dims[:-1]).reshape(parts - 1, prod(dims[:-1])).T
    else:
        lead = np.arange(dims[0])[:, None]
    step = max(1, _PAIRING_BYTES // (n + 1))
    need = (n + 1) * min(step, len(lead))
    if len(cache.acc) < need:
        cache.acc = np.zeros(need, dtype=np.uint8)
    picks, counts = [], []
    for start in range(0, len(lead), step):
        rows = lead[start : start + step]
        width = len(rows)
        at = np.arange(width)
        marked = cache.acc[: (n + 1) * width]
        count = np.zeros(width, dtype=np.intp)
        chosen, marks_made = [], []
        for p in range(parts):
            if p < rows.shape[1]:
                idx = rows[:, p]
                marks = zeros[p][idx] * width + at[:, None]
                gain = sizes[p][idx] - np.take(marked, marks).sum(axis=1, dtype=np.intp)
            else:
                gains = sizes[p][:, None] - _hits(marked.reshape(n + 1, width), zeros[p])
                if exact:
                    counts.append((count + gains).T.ravel())
                    break
                idx = gains.argmax(axis=0)
                gain = gains[idx, at]
                marks = zeros[p][idx] * width + at[:, None]
            count += gain
            chosen.append(idx)
            if p < parts - 1:
                marked[marks] = 1
                marked[n * width :] = 0
                marks_made.append(marks)
        else:
            picks.append(np.stack(chosen, axis=1))
            counts.append(count)
        for marks in marks_made:
            marked[marks] = 0
    if exact:
        return np.indices(dims).reshape(parts, -1).T, np.concatenate(counts)
    return np.concatenate(picks), np.concatenate(counts)


def _best_product_section(dec, field, cache):
    """Product over the parts of a decomposition maximizing total zeros.

    Candidate tuples are searched exactly when the combination count is
    at most _PAIRING_CAP, else by greedy accumulation restarted from
    every choice of the first factor; both keep the first maximum in
    their order, and both count unions from the candidates' zero lists
    (see _pairing).  `cache`, a _ReportCache, holds the candidates of
    summands already seen (see _part_candidates) and the accumulator.
    Only the picked vectors are built into sections.  Every summand, a
    primitive segment, a unimodular triangle or T0 (see decomp), has a
    candidate.  Returns (zeros, section).
    """
    vectors, lists, sizes = zip(*(_part_candidates(p, field, cache) for p in dec.parts))
    exact = prod(len(v) for v in vectors) <= _PAIRING_CAP
    picks, counts = _pairing(lists, sizes, (field.q - 1) ** 2, exact, cache)
    # argmax keeps the first maximum in row order
    best = int(np.argmax(counts))
    best_count, pick = int(counts[best]), picks[best].tolist()

    factors = [_section(p.lattice_points(), v[i]) for p, v, i in zip(dec.parts, vectors, pick)]
    section = factors[0]
    for factor in factors[1:]:
        section = multiply_sections(section, factor, field)
    section = section.shift(*dec.translation)
    zeros = count_torus_zeros(section, field)
    # a product vanishes exactly where some factor does
    if zeros != best_count:
        raise InvariantViolation(
            f"product has {zeros} torus zeros, the union of its factors' {best_count}"
        )
    outside = [pt for pt in section.terms if not dec.parent.contains(pt)]
    if outside:
        raise InvariantViolation(f"product section uses {outside[0]}, outside the polygon")
    return zeros, section


def _check_torus_size(q):
    if (q - 1) ** 2 > _TORUS_CAP:
        raise TooLarge(
            f"the torus of F_{q} has {(q - 1) ** 2} points; bound reports allow {_TORUS_CAP}"
        )


def certified_upper_bound(
    P: LatticePolygon, F: FieldSpec, decs: Sequence[MinkowskiDecomposition]
) -> tuple[int, SectionPoly]:
    """Upper bound on the distance with an explicit witness section.

    Builds product sections over each decomposition, choosing factors
    to maximize the union of their zero sets, and counts the product's
    torus zeros exactly.  The result (q-1)^2 - zeros is unconditionally
    valid: the witness evaluates to a codeword of that weight.  A
    single catalog section on the whole polygon is kept as fallback.
    Summands are searched once per shape (see _part_candidates), and a
    decomposition whose factors' best zero counts add up to no more
    than the best section so far is passed over.
    Fields whose torus exceeds _TORUS_CAP points raise TooLarge.
    """
    q = F.q
    _check_torus_size(q)
    base = max_zero_section(P, F)
    best_zeros, best_section = base.zeros, base.section
    cache = _ReportCache()
    for dec in decs:
        # a product vanishes exactly where some factor does, so it has at
        # most the sum of its factors' best counts; a decomposition that
        # cannot pass the best section so far is passed over
        if sum(_most_zeros(p, F, cache.most) for p in dec.parts) <= best_zeros:
            continue
        zeros, section = _best_product_section(dec, F, cache)
        if zeros > best_zeros:
            best_zeros, best_section = zeros, section
    return (q - 1) ** 2 - best_zeros, best_section


class LowerBound(NamedTuple):
    value: int
    applicable: bool
    threshold: int


def _component_distance(part, q, threads=1, deadline=None):
    """Exact distance of one summand over F_q, memoized in _DISTANCES.

    Equivalent polygons give monomially equivalent codes, so summands
    equivalent under a unimodular map share the entry keyed by their
    normal form; the summand itself is a key too, so one seen before
    needs no normal form.  The first matching closed form wins; a
    summand none matches is searched as it is, since its normal form
    need not fit the box [0, q-2]^2.  A search cut short by the
    deadline raises DeadlineExceeded and stores nothing.
    """
    if (part, q) in _DISTANCES:
        return _DISTANCES[part, q]
    key = (normal_form(part)[0], q)
    val = _DISTANCES.get(key)
    if val is None:
        val = next((value for _, value, _ in _closed_forms(part, q)), None)
    if val is None:
        code = build_code(part, field_from_order(q))
        res = min_distance_exact(code, threads=threads, deadline=deadline)
        if not res.exact:
            raise DeadlineExceeded("component distance search was cut short")
        val = res.weight
    _DISTANCES[key] = _DISTANCES[part, q] = val
    return val


def _decomposition_value(dec, q, threads=1, deadline=None):
    """Sum of the exact distances of dec's summands minus (ell-1)(q-1)^2."""
    comps = [_component_distance(p, q, threads, deadline) for p in dec.parts]
    return upper_bound_from_decomposition(dec, q, comps)


def mainthm_lower_bound(
    P: LatticePolygon,
    q: int,
    decs: Sequence[MinkowskiDecomposition],
    threads: int = 1,
    deadline: Optional[float] = None,
) -> LowerBound:
    """Decomposition lower bound with its applicability threshold.

    The value is the minimum over all maximal decompositions of the sum
    of component distances minus (ell-1)(q-1)^2; the bound is only
    guaranteed at the minimizer, so every maximal decomposition must be
    supplied.  It applies once q >= (4 I(P) + 3)^2, or already for
    q > #(P) + ell when every component is one-dimensional or a point.
    Below the threshold the value is still reported, as conditional.
    """
    decs = [d for d in decs if d.ell >= 1]
    if not decs:
        raise NoDecomposition("no decomposition supplied")
    ell = max(d.ell for d in decs)
    decs = [d for d in decs if d.ell == ell]
    value = min(_decomposition_value(d, q, threads, deadline) for d in decs)

    strong = (4 * P.interior_count + 3) ** 2
    all_flat = all(p.interior_count == 0 for d in decs for p in d.parts)
    relaxed = P.num_lattice_points + ell + 1
    threshold = min(strong, relaxed) if all_flat else strong
    return LowerBound(value, q >= threshold, threshold)


# -- pattern matchers -----------------------------------------------------------


def _match_triangle(poly):
    """Least (a, b, c) with a >= b + c and poly equivalent to conv{(0,0),(a,0),(b,c)}.

    Returns None when there is none.  Each counterclockwise edge in turn
    goes onto [0, a] x {0} with the apex above it at height c.  The
    shears fixing the base move the apex's x through one class mod c,
    and the reflection swapping the base's ends turns x into a - x, so
    b = x mod c and (a - x) mod c are the least candidates for that
    edge; a larger b only weakens a >= b + c.
    """
    vs = poly.vertices
    if poly.dim != 2 or len(vs) != 3:
        return None
    hits = []
    for i in range(3):
        (ox, oy), (ex, ey), (wx, wy) = vs[i], vs[(i + 1) % 3], vs[(i + 2) % 3]
        a = gcd(ex - ox, ey - oy)
        px, py = (ex - ox) // a, (ey - oy) // a
        _, u, v = _xgcd(px, py)
        c = px * (wy - oy) - py * (wx - ox)
        x = u * (wx - ox) + v * (wy - oy)
        for b in (x % c, (a - x) % c):
            if a >= b + c:
                hits.append((a, b, c))
    return min(hits) if hits else None


def _match_hirzebruch(poly, form):
    """(d, e, r) for the twisted box with normal form `form`, else None.

    r = 0 is the d x e box, returned with d <= e as d runs upward; no box
    matches an r >= 1 model, which is no parallelogram.
    """
    if len(form) != 4:
        return None
    v2 = poly.volume2
    for d in range(1, isqrt(v2) + 1):
        for r in range(v2 // (d * d) + 1):
            rest = v2 - r * d * d
            if rest <= 0:
                break
            if rest % (2 * d):
                continue
            e = rest // (2 * d)
            # edges of lattice length d, e + rd, d and e
            if 2 * (d + e) + r * d != poly.boundary_count:
                continue
            model = LatticePolygon([(0, 0), (d, 0), (0, e), (d, e + r * d)])
            if normal_form(model)[0] == form:
                return d, e, r
    return None


def _rank3_volume2(case, a, b, c, r):
    # closed shoelace values; lets the matcher filter on integers alone
    s = a + b
    t = c + (r - 1) * a + r * b
    if case == "I":
        return s * (s + t) + c * s + a * b
    if case == "II":
        if r == 1:
            if c > a:
                return s * (b + 2 * c - a)
            if a > c:
                return (2 * a + b - c) * (b + c)
            return s * s
        return s * t + s * c + s * r * b - b * t + b * c
    if case == "III":
        return 3 * b + 2 * c - a
    w = s + t
    return 2 * w * s - s * b - r * s * s + a * b


@functools.cache
def _rank3_members(case, volume2):
    """Family members of doubled area volume2, by normal form.

    Walks the (a, b, c, r) grid below _RANK3_SCAN_CAP in order, filtered
    on the closed-form area, and maps each member's normal form to the
    first parameters that reach it.  Cached per process: a bound report
    and each of its components look up the same few areas.
    """
    members = {}
    r_range = (1,) if case == "III" else range(1, _RANK3_SCAN_CAP)
    for a in range(1, _RANK3_SCAN_CAP):
        for b in range(a + 1 if case == "III" else 1, _RANK3_SCAN_CAP):
            for c in range(1, _RANK3_SCAN_CAP):
                for r in r_range:
                    cv = _rank3_volume2(case, a, b, c, r)
                    if cv > volume2:
                        break
                    if cv != volume2:
                        continue
                    cand = _rank3_polygon(case, a, b, c, r)
                    if cand.volume2 != cv:
                        raise InvariantViolation(f"family-{case} area {cand.volume2} is not {cv}")
                    members.setdefault(normal_form(cand)[0], (a, b, c, r))
    return members


def _match_rank3(poly, form, case):
    """Family parameters (a, b, c, r) for the normal form `form`, else None."""
    return _rank3_members(case, poly.volume2).get(form)


def _closed_form(formula, *args):
    """formula(*args), or None where it raises FieldTooSmall or HypothesisViolated."""
    try:
        return formula(*args)
    except (FieldTooSmall, HypothesisViolated):
        return None


def _closed_forms(poly, q):
    """Every closed-form distance that matches the polygon over F_q.

    Yields (name, value, provenance) in a fixed order, cheapest matcher
    first: point, segment, standard-triangle, triangle, rectangle,
    hirzebruch, then the rank-3 families.  Matchers are lazy, so a
    caller that needs one value stops at the first match.  Each formula
    decides its own field size: a match it rejects is skipped.
    """
    qm = q - 1
    if poly.dim == 0:
        yield "point", qm * qm, "single monomial: every nonzero codeword has full weight"
        return
    if poly.dim == 1:
        a = poly.num_lattice_points - 1
        if (value := _closed_form(d_segment, a, q)) is not None:
            yield "segment", value, f"lattice segment of length {a}"
        return
    tri = _match_triangle(poly)
    if tri is not None:
        a, b, c = tri
        # a >= b + c makes this (a, 0, a): conv{(0,0),(a,0),(0,a)} up to
        # a unimodular map
        if c == a and (value := _closed_form(d_full_triangle, a, q)) is not None:
            yield "standard-triangle", value, f"equivalent to the right triangle of side {a}"
        if (value := _closed_form(d_triangle, a, b, c, q)) is not None:
            yield "triangle", value, f"triangle form (a,b,c)={tri} with a >= b+c"
    form = normal_form(poly)[0]
    hz = _match_hirzebruch(poly, form)
    if hz is not None and (value := _closed_form(d_hirzebruch, *hz, q)) is not None:
        d, e, r = hz
        if r:
            yield "hirzebruch", value, f"equivalent to the twisted box (d,e,r)={hz}"
        else:
            yield "rectangle", value, f"equivalent to the {d}x{e} box"
    for case in _RANK3_CASES:
        params = _match_rank3(poly, form, case)
        found = params and _closed_form(rank3_family_distance, case, *params, q)
        if found:
            provenance = f"rank-3 fan family, configuration {case}, parameters (a,b,c,r)={params}"
            yield f"family-{case}", found[0], provenance


# -- the aggregate report -------------------------------------------------------


@dataclass
class BoundEntry:
    """One named bound with its applicability flag and witness.

    kind is "upper", "lower", or "exact-formula".  Entries with
    applicable=False are reported but excluded from consistency
    checking: they hold only under unverified hypotheses.
    """

    name: str
    kind: str
    value: int
    applicable: bool
    provenance: str
    witness: object = None

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "value": self.value,
            "applicable": self.applicable,
            "provenance": self.provenance,
            "witness": _witness_dict(self.witness),
        }


def _witness_dict(w):
    if w is None:
        return None
    if isinstance(w, SectionPoly):
        return {
            "type": "section",
            "terms": [[a, b, c] for (a, b), c in sorted(w.terms.items())],
        }
    if isinstance(w, MinkowskiDecomposition):
        return {
            "type": "decomposition",
            "subpolygon": [list(v) for v in w.subpolygon.vertices],
            "translation": list(w.translation),
            "parts": [[list(v) for v in p.vertices] for p in w.parts],
        }
    raise InvariantViolation(f"cannot serialize witness of type {type(w).__name__}")


@dataclass
class BoundReport:
    polygon: LatticePolygon
    q: int
    exact_d: Optional[int]
    entries: tuple

    def as_dict(self) -> dict:
        return {
            "polygon": [list(v) for v in self.polygon.vertices],
            "q": self.q,
            "exact_d": self.exact_d,
            "entries": [e.as_dict() for e in self.entries],
        }


def _check_consistency(entries, exact_d):
    uppers = [e for e in entries if e.applicable and e.kind in ("upper", "exact-formula")]
    lowers = [e for e in entries if e.applicable and e.kind in ("lower", "exact-formula")]
    for lo in lowers:
        for hi in uppers:
            if lo.value > hi.value:
                raise InvariantViolation(
                    f"{lo.name} = {lo.value} exceeds {hi.name} = {hi.value}"
                )
    formulas = [e for e in entries if e.applicable and e.kind == "exact-formula"]
    for e, f in itertools.combinations(formulas, 2):
        if e.value != f.value:
            raise InvariantViolation(
                f"exact formulas disagree: {e.name} = {e.value}, {f.name} = {f.value}"
            )
    if exact_d is not None:
        for lo in lowers:
            if lo.value > exact_d:
                raise InvariantViolation(f"{lo.name} = {lo.value} exceeds exact {exact_d}")
        for hi in uppers:
            if hi.value < exact_d:
                raise InvariantViolation(f"{hi.name} = {hi.value} is below exact {exact_d}")


def full_report(
    P: LatticePolygon,
    F: FieldSpec,
    exact: bool = False,
    threads: int = 1,
    deadline: Optional[float] = None,
    budget: int = DEFAULT_BUDGET,
) -> BoundReport:
    """Aggregate every applicable bound on the polygon's code distance.

    Pattern matchers contribute closed forms, the decomposition search
    feeds the certified and hypothetical upper bounds plus the lower
    bound, and exact=True adds an exhaustive search.  Every decomposition
    the search returns is maximal; the product and lower bound entries
    come from the exact distances of their summands (see
    _component_distance).  `deadline` bounds the exact search and each
    summand search of the lower bound, in seconds, but not a summand
    that _exhaustive admits (q^#(points) at most DEFAULT_SECTION_BUDGET):
    the certified upper bound has already searched that one without a
    deadline, when it ranks the decompositions (see _most_zeros).  A
    decomposition search that runs out of its budget leaves out the
    product and lower bound entries, and the certified upper bound then
    uses no decomposition.  A summand search cut short by the deadline
    leaves out the product and lower bound entries only.  All applicable
    entries are cross-checked before the report is returned; witness
    sections are given in box-normalized coordinates.  Fields whose
    torus exceeds _TORUS_CAP points raise TooLarge before any work.
    """
    q = F.q
    _check_torus_size(q)
    boxed, _ = P.place_in_box(q)
    entries = [
        BoundEntry(name, "exact-formula", value, True, provenance)
        for name, value, provenance in _closed_forms(boxed, q)
    ]

    try:
        decs = [] if boxed.dim == 0 else best_subpolygon_decomposition(boxed, budget)
    except BudgetExceeded:
        decs = []

    search = None
    if exact:
        search = min_distance_exact(build_code(boxed, F), threads=threads, deadline=deadline)
    exact_d = search.weight if search is not None and search.exact else None

    value, witness = certified_upper_bound(boxed, F, decs)
    entries.append(
        BoundEntry(
            "certified-upper",
            "upper",
            value,
            True,
            f"explicit section with {(q - 1) ** 2 - value} torus zeros",
            witness,
        )
    )

    if decs and decs[0].ell >= 2:
        try:
            lb = mainthm_lower_bound(boxed, q, decs, threads=threads, deadline=deadline)
        except DeadlineExceeded:
            lb = None
        if lb is not None:
            # every summand distance is in the memo now
            products: dict[int, MinkowskiDecomposition] = {}
            for dec in decs:
                products.setdefault(_decomposition_value(dec, q), dec)
            for i, (val, dec) in enumerate(sorted(products.items())):
                entries.append(
                    BoundEntry(
                        f"product-bound[{i}]",
                        "upper",
                        val,
                        False,
                        "component distance sum minus (ell-1)(q-1)^2; "
                        "assumes the factors have disjoint zero sets",
                        dec,
                    )
                )
            status = "applicable" if lb.applicable else f"conditional at q = {q}"
            entries.append(
                BoundEntry(
                    "decomposition-lower",
                    "lower",
                    lb.value,
                    lb.applicable,
                    f"minimum over {len(decs)} maximal decompositions; "
                    f"guaranteed for q >= {lb.threshold}, {status}",
                )
            )

    if search is not None and not search.exact:
        entries.append(
            BoundEntry(
                "search-upper",
                "upper",
                search.weight,
                True,
                f"smallest weight seen in a stopped enumeration of "
                f"{search.enumerated} messages",
            )
        )

    _check_consistency(entries, exact_d)
    return BoundReport(P, q, exact_d, tuple(entries))
