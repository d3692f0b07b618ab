"""Minimum-distance bounds for toric surface codes.

Closed-form distances for the standard polygon families, upper bounds
witnessed by explicit product sections, the decomposition lower bound
with its applicability threshold, and a report aggregator that pattern
matches a polygon against all of the above.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import gcd, isqrt
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
    PolygonTooLargeForField,
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

# the exact search counts mask unions in chunks of about this many bytes
_PAIRING_BYTES = 1 << 21

# parameter grid limit when matching against the rank-3 families
_RANK3_SCAN_CAP = 16

# bound reports evaluate sections and hold zero masks over the whole
# torus; past 2^20 points (q above 1024) a report on the paper's
# polygons took up to 47 s and 220 MB (F_2048), and F_65536 has 2^32
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
    if case == "IV":
        w = s + t
        return LatticePolygon([(0, 0), (w, 0), (w, a), (w - b, s), (r * s, s)])
    raise ValueError(f"unknown family case {case!r}")


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


def _max_zero_exhaustive(poly, field, cap=None):
    """Maximum zero count over all sections supported on the polygon.

    Scalar multiples share a zero set, so messages are normalized to a
    leading coefficient 1 and ordered by lead position, then
    lexicographically.  The words of one lead are its row plus each
    column of _build_suffix_table over the rows strictly between the
    lead and the last row r, the row before r varying fastest, which is
    that order.  The last coefficient c is resolved per point: w + c*r
    = 0 iff w = c = 0, or c != 0 with log c = log(-w) - log r mod q-1,
    since r never vanishes; a bincount of that log per column counts
    every c at once, and a winner's zero mask is the points whose log is
    its c's (q-1 standing for c = 0).  Returns the count, the first `cap`
    maximizing sections in that order and their masks, each packed as
    soon as it is found.  The polygon stays where it lies.
    """
    q, qm = field.q, field.q - 1
    pts = [tuple(p) for p in poly.lattice_points()]
    k = len(pts)
    # widened once: numpy casts int32 indices to intp on every lookup
    logs = _log_rows(pts, qm).astype(np.intp)
    shift = (field.log_table[field.neg(1)] - logs[-1])[:, None]
    # bincount columns are in log order with c = 0 last; reorder to coefficient codes
    by_code = [qm] + field.log_table[1:]
    best, sections, masks = -1, [], []
    for lead in range(k):
        if lead < k - 1:
            words = field.add_np(
                _build_suffix_table(field, logs[lead + 1 : k - 1], k - 2 - lead),
                field.exp_np[logs[lead]][:, None],
            )
            bins = np.where(words == 0, qm, (field.log_np[words] + shift) % qm)
            counts = np.bincount(
                (bins + np.arange(bins.shape[1]) * q).ravel(), minlength=bins.shape[1] * q
            )
            counts = counts.reshape(-1, q)[:, by_code].ravel()
        else:
            # the last monomial alone, a unit on the torus: no point has a bin
            bins, counts = np.full((qm * qm, 1), -1), np.zeros(1, dtype=np.int64)
        top = int(counts.max())
        if top < best:
            continue
        if top > best:
            best, sections, masks = top, [], []
        room = None if cap is None else cap - len(sections)
        # index = column * q + c; the last lead has one message, index 0
        for index in np.flatnonzero(counts == top)[:room].tolist():
            column, c = divmod(index, q)
            masks.append(_packed(bins[:, column] == by_code[c]))
            msg = [0] * k
            msg[lead] = 1
            for pos in range(k - 1, lead, -1):
                index, msg[pos] = divmod(index, q)
            sections.append(SectionPoly({p: v for p, v in zip(pts, msg) if v}))
    return best, sections, masks


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


def _catalog_sections(poly, field):
    """Split-form candidate sections supported inside the polygon.

    One pencil per lattice direction with a run, in each of its q-1
    root rotations, which give products room to avoid common zeros,
    plus one product of two pencils per unimodular direction pair that
    spans a cell inside the polygon.  Entries carry their closed-form zero
    counts and build their sections on demand.
    """
    qm = field.q - 1
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
        for j in range(qm):
            out.append(_CatalogEntry(t * qm, base, ((u, t, j),)))

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
            out.append(_CatalogEntry(score, p, ((u, t1, 0), (v, t2, 0))))
    return out


def max_zero_section(poly: LatticePolygon, field: FieldSpec) -> MaxZeroResult:
    """Section with the most torus zeros among those supported on poly.

    Exhaustive over all coefficient vectors when _exhaustive allows it;
    otherwise the best member of a catalog of split forms, with
    exhaustive=False to flag that the count is only a lower estimate of
    the true maximum.  Both come from the first candidate of
    _max_zero_candidates; the catalog winner's count, read from its
    exponent mask, is checked against a count of its zeros.
    """
    q = field.q
    shift = poly.fits_in_box(q)
    if shift is None:
        w, h = poly.width_height()
        raise PolygonTooLargeForField(f"polygon spans {w}x{h}, too large for q = {q}")
    boxed = poly.translate(*shift)
    # a single point has no catalog section, but its q <= MAX_Q messages fit the budget
    sections, masks = _max_zero_candidates(boxed, field, cap=1)
    section, zeros = sections[0], int(np.bitwise_count(masks[0]).sum())
    exhaustive = _exhaustive(boxed, q)
    if not exhaustive:
        counted = count_torus_zeros(section, field)
        if counted != zeros:
            raise InvariantViolation(
                f"catalog section has {counted} torus zeros, its mask {zeros}"
            )
    return MaxZeroResult(section.shift(-shift[0], -shift[1]), zeros, exhaustive)


def _max_zero_candidates(poly, field, cap=_CANDIDATE_CAP):
    """Candidate sections for one summand, most zeros first, with packed zero masks.

    Where _exhaustive allows, the first `cap` maximizers of
    _max_zero_exhaustive, with the masks its enumeration read off.
    Otherwise catalog entries ranked by their closed-form counts; the
    sort is stable, so ties keep catalog order.  Row i of the mask array
    holds the torus zeros of section i as uint64 words (see _packed).
    """
    q = field.q
    if _exhaustive(poly, q):
        _, sections, masks = _max_zero_exhaustive(poly, field, cap=cap)
    else:
        kept = sorted(_catalog_sections(poly, field), key=lambda e: -e.zeros)[:cap]
        sections = [e.section(field) for e in kept]
        masks = [_packed(e.zero_mask(q - 1)) for e in kept]
    words = -(-(q - 1) ** 2 // 64)
    return sections, np.array(masks, dtype=np.uint64).reshape(len(sections), words)


def _packed(mask):
    """A boolean mask as uint64 words, zero padded; callers pack each mask as it is made."""
    row = np.zeros(-(-mask.size // 64) * 8, dtype=np.uint8)
    row[: -(-mask.size // 8)] = np.packbits(mask)
    return row.view(np.uint64)


def _part_candidates(part, field, cache):
    """Candidate sections of one summand with their packed zero masks, memoized.

    Parts are stored at the origin, so equal summands of different
    decompositions share one entry of `cache`, keyed by their vertices.
    """
    if part.vertices not in cache:
        cache[part.vertices] = _max_zero_candidates(part, field)
    return cache[part.vertices]


def _most_zeros(part, field, cache):
    """Most torus zeros among the candidate sections of one summand.

    The same count as the top row of _max_zero_candidates' masks, but
    without building the candidates, and by the same _exhaustive rule.
    Where those come from the exhaustive search, the count is the length
    (q-1)^2 minus the distance of the summand's code (see
    _component_distance).  Otherwise it is the best closed-form catalog
    count, memoized in `cache` by the summand; the code's length minus
    its distance would be a looser bound there.
    """
    q = field.q
    if _exhaustive(part, q):
        return (q - 1) ** 2 - _component_distance(part, q)
    if part not in cache:
        cache[part] = max((e.zeros for e in _catalog_sections(part, field)), default=0)
    return cache[part]


def _union_counts(masks, picks):
    """Torus zeros of the union of masks[p][pick[p]], one count per row of picks."""
    union = masks[0][picks[:, 0]]
    for part in range(1, picks.shape[1]):
        union |= masks[part][picks[:, part]]
    return np.bitwise_count(union).sum(axis=1)


def _greedy_picks(masks):
    """Greedy accumulation from every choice of the first factor at once.

    Row f starts from candidate f of the first part, then takes from
    each further part the candidate adding the most zeros to the row's
    union, the first of equal gains.  Gains are counted in chunks of
    rows of at most _PAIRING_BYTES.  Returns the picks, one row per
    first factor, and the zero count of each row's union.
    """
    union = masks[0].copy()
    picks = [np.arange(len(union))]
    for part in masks[1:]:
        rows = max(1, _PAIRING_BYTES // part.nbytes)
        idx = np.concatenate([
            np.bitwise_count(union[i : i + rows, None, :] | part[None]).sum(axis=2).argmax(axis=1)
            for i in range(0, len(union), rows)
        ])
        picks.append(idx)
        union |= part[idx]
    return np.stack(picks, axis=1), np.bitwise_count(union).sum(axis=1)


def _best_product_section(dec, field, cache):
    """Product over the parts of a decomposition maximizing total zeros.

    Candidate tuples are searched exactly when the combination count is
    small, else by greedy accumulation restarted from every choice of
    the first factor (see _greedy_picks); both keep the first maximum
    in their order.  Zero masks are packed into words and their unions
    counted in bulk, in chunks of at most _PAIRING_BYTES.  `cache` holds
    the candidates of summands already seen (see _part_candidates).
    Returns (zeros, section) or None.
    """
    cand_lists, masks = zip(*(_part_candidates(p, field, cache) for p in dec.parts))
    if any(not lst for lst in cand_lists):
        return None
    sizes = [len(lst) for lst in cand_lists]
    total = 1
    for s in sizes:
        total *= s

    if total <= _PAIRING_CAP:
        # rows in itertools.product order: the last part varies fastest
        picks = np.indices(sizes).reshape(len(sizes), -1).T
        rows = max(1, _PAIRING_BYTES // masks[0][0].nbytes)
        counts = np.concatenate(
            [_union_counts(masks, picks[i : i + rows]) for i in range(0, total, rows)]
        )
    else:
        picks, counts = _greedy_picks(masks)
    # argmax keeps the first maximum in row order
    best = int(np.argmax(counts))
    best_count, best_pick = int(counts[best]), tuple(picks[best].tolist())

    section = cand_lists[0][best_pick[0]]
    for part, idx in enumerate(best_pick[1:], start=1):
        section = multiply_sections(section, cand_lists[part][idx], field)
    section = section.shift(*dec.translation)
    zeros = count_torus_zeros(section, field)
    # a product vanishes exactly where some factor does
    if zeros != best_count:
        raise InvariantViolation(
            f"product has {zeros} torus zeros, the mask union {best_count}"
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
    Summands that recur across decompositions are searched once, and a
    decomposition whose factors' best zero counts add up to no more
    than the best section so far is passed over.
    Fields whose torus exceeds _TORUS_CAP points raise TooLarge.
    """
    q = F.q
    _check_torus_size(q)
    if P.fits_in_box(q) is None:
        w, h = P.width_height()
        raise PolygonTooLargeForField(f"polygon spans {w}x{h}, too large for q = {q}")
    base = max_zero_section(P, F)
    best_zeros, best_section = base.zeros, base.section
    cache: dict = {}
    most: dict = {}
    for dec in decs:
        # a product vanishes exactly where some factor does, so it has at
        # most the sum of its factors' best counts; a decomposition that
        # cannot pass the best section so far is passed over
        if sum(_most_zeros(p, F, most) for p in dec.parts) <= best_zeros:
            continue
        got = _best_product_section(dec, F, cache)
        if got is None:
            continue
        zeros, section = got
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

    interior = P.interior_count
    strong = (4 * interior + 3) ** 2
    all_flat = all(p.interior_count == 0 for d in decs for p in d.parts)
    relaxed = P.num_lattice_points + ell + 1
    threshold = min(strong, relaxed) if all_flat else strong
    applicable = q >= strong or (all_flat and q >= relaxed)
    return LowerBound(value, applicable, threshold)


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
                    if cv > volume2 and case != "III":
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


def _closed_forms(poly, q):
    """Every closed-form distance that matches the polygon over F_q.

    Yields (name, value, provenance) in a fixed order, cheapest matcher
    first: point, segment, standard-triangle, triangle, rectangle,
    hirzebruch, then the rank-3 families.  Matchers are lazy, so a
    caller that needs one value stops at the first match.
    """
    qm = q - 1
    if poly.dim == 0:
        yield "point", qm * qm, "single monomial: every nonzero codeword has full weight"
        return
    if poly.dim == 1:
        a = poly.num_lattice_points - 1
        if q > a + 1:
            yield "segment", d_segment(a, q), f"lattice segment of length {a}"
        return
    tri = _match_triangle(poly)
    if tri is not None and q > tri[0] + 1:
        a, b, c = tri
        # a >= b + c makes this (a, 0, a): conv{(0,0),(a,0),(0,a)} up to
        # a unimodular map
        if c == a:
            yield (
                "standard-triangle",
                d_full_triangle(a, q),
                f"equivalent to the right triangle of side {a}",
            )
        yield "triangle", d_triangle(a, b, c, q), f"triangle form (a,b,c)={tri} with a >= b+c"
    form = normal_form(poly)[0]
    hz = _match_hirzebruch(poly, form)
    if hz is not None:
        d, e, r = hz
        if r == 0 and q > max(d, e) + 1:
            yield "rectangle", d_rectangle(d, e, q), f"equivalent to the {d}x{e} box"
        elif r and e + d * r < q - 1:
            twisted = f"equivalent to the twisted box (d,e,r)={hz}"
            yield "hirzebruch", d_hirzebruch(d, e, r, q), twisted
    for case in _RANK3_CASES:
        params = _match_rank3(poly, form, case)
        if params is None:
            continue
        try:
            value, _ = rank3_family_distance(case, *params, q)
        except (FieldTooSmall, HypothesisViolated):
            continue
        yield (
            f"family-{case}",
            value,
            f"rank-3 fan family, configuration {case}, parameters (a,b,c,r)={params}",
        )


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
    budget: Optional[int] = None,
) -> BoundReport:
    """Aggregate every applicable bound on the polygon's code distance.

    Pattern matchers contribute closed forms, the decomposition search
    feeds the certified and hypothetical upper bounds plus the lower
    bound, and exact=True adds an exhaustive search.  Every decomposition
    the search returns is maximal; the product and lower bound entries
    come from the exact distances of their summands (see
    _component_distance), whose searches, like the exact one, are each
    bounded by `deadline` seconds.  A decomposition search that runs out
    of its budget leaves out the product and lower bound entries, and the
    certified upper bound then uses no decomposition.  A summand search
    cut short by the deadline leaves out the product and lower bound
    entries only.  All applicable entries are cross-checked before the
    report is returned; witness sections are given in box-normalized
    coordinates.  Fields whose torus exceeds _TORUS_CAP points raise
    TooLarge before any work.
    """
    q = F.q
    _check_torus_size(q)
    shift = P.fits_in_box(q)
    if shift is None:
        w, h = P.width_height()
        raise PolygonTooLargeForField(f"polygon spans {w}x{h}, too large for q = {q}")
    boxed = P.translate(*shift)
    entries = [
        BoundEntry(name, "exact-formula", value, True, provenance)
        for name, value, provenance in _closed_forms(boxed, q)
    ]

    try:
        decs = [] if boxed.dim == 0 else best_subpolygon_decomposition(
            boxed, budget if budget is not None else DEFAULT_BUDGET
        )
    except BudgetExceeded:
        decs = []

    exact_d = None
    partial_upper = None
    partial_scanned = 0
    if exact:
        code = build_code(boxed, F)
        res = min_distance_exact(code, threads=threads, deadline=deadline)
        if res.exact:
            exact_d = res.weight
        else:
            partial_upper = res.weight
            partial_scanned = res.enumerated

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

    if partial_upper is not None:
        entries.append(
            BoundEntry(
                "search-upper",
                "upper",
                partial_upper,
                True,
                f"smallest weight seen in a stopped enumeration of "
                f"{partial_scanned} messages",
            )
        )

    _check_consistency(entries, exact_d)
    return BoundReport(P, q, exact_d, tuple(entries))
