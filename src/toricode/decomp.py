"""Minkowski decompositions of lattice polygons.

A decomposition of a polygon matches a partition of its primitive edge
multiset into groups that each sum to zero: any group, walked in
angular order, closes up into a convex summand, and summing the parts
merges the multisets back together.  Segments carry both directions in
their multiset, which keeps the correspondence exact for degenerate
summands.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from .errors import BudgetExceeded, DegeneratePolygon, InvariantViolation
from .polygon import (
    LatticePolygon,
    minkowski_sum,
    polygon_from_edges,
    sort_directions_ccw,
)

DEFAULT_BUDGET = 200_000


class _Budget:
    __slots__ = ("left",)

    def __init__(self, n):
        self.left = n

    def tick(self, k=1):
        self.left -= k
        if self.left < 0:
            raise BudgetExceeded("search budget exhausted")


def _edge_basis(poly):
    em = poly.edge_multiset()
    dirs = tuple(sort_directions_ccw(em.keys()))
    return dirs, tuple(em[d] for d in dirs)


def _group_to_polygon(dirs, group):
    edges = []
    for d, c in zip(dirs, group):
        edges.extend([d] * c)
    return polygon_from_edges((0, 0), edges).translate_to_origin()


def _parts_key(parts):
    return tuple(p.vertices for p in parts)


def _sort_parts(parts):
    return tuple(sorted(parts, key=lambda p: (p.num_lattice_points, p.vertices)))


@dataclass(frozen=True)
class MinkowskiDecomposition:
    """A subpolygon of a parent polygon, split into Minkowski summands.

    The subpolygon is stored translated to the origin; translation
    places it back inside the parent.  Summands are normalized the
    same way, so they add up to the subpolygon only up to translation.
    """

    parent: LatticePolygon
    subpolygon: LatticePolygon
    translation: tuple[int, int]
    parts: tuple[LatticePolygon, ...]
    exhaustive: bool = field(default=True, compare=False)

    @property
    def ell(self) -> int:
        return len(self.parts)

    def __len__(self):
        return len(self.parts)


def _make_decomposition(parent, placed_sub, dirs, groups, exhaustive=True):
    parts = _sort_parts(_group_to_polygon(dirs, g) for g in groups)
    sub = placed_sub.translate_to_origin()
    x0, y0, _, _ = placed_sub.bounding_box()
    if not all(parent.contains(v) for v in placed_sub.vertices):
        raise InvariantViolation("subpolygon leaves the parent polygon")
    if minkowski_sum(*parts).translate_to_origin() != sub:
        raise InvariantViolation("summands do not add up to the subpolygon")
    return MinkowskiDecomposition(parent, sub, (x0, y0), parts, exhaustive)


class _EdgeEngine:
    """Partition search over one polygon's primitive edge multiset."""

    def __init__(self, poly, budget):
        self.dirs, self.total = _edge_basis(poly)
        self.budget = budget
        self.groups = self._zero_sum_groups()
        self._max_memo = {}

    def _zero_sum_groups(self):
        dirs, total = self.dirs, self.total
        out = []
        for g in product(*(range(c + 1) for c in total)):
            self.budget.tick()
            if not any(g):
                continue
            if (
                sum(c * d[0] for c, d in zip(g, dirs)) == 0
                and sum(c * d[1] for c, d in zip(g, dirs)) == 0
            ):
                out.append(g)
        return out

    def max_parts(self, rem=None):
        """Largest number of zero-sum groups the multiset splits into."""
        rem = self.total if rem is None else rem
        if not any(rem):
            return 0
        if rem in self._max_memo:
            return self._max_memo[rem]
        first = next(i for i, c in enumerate(rem) if c)
        best = 0
        for g in self.groups:
            if g[first] == 0 or any(a > b for a, b in zip(g, rem)):
                continue
            self.budget.tick()
            sub = tuple(a - b for a, b in zip(rem, g))
            cand = 1 + self.max_parts(sub)
            if cand > best:
                best = cand
        self._max_memo[rem] = best
        return best

    def partitions(self, min_count, max_count):
        """All unordered partitions into min_count to max_count groups."""
        out = []

        def rec(rem, prev, acc):
            if not any(rem):
                if len(acc) >= min_count:
                    out.append(tuple(acc))
                return
            if len(acc) >= max_count or len(acc) + self.max_parts(rem) < min_count:
                return
            for g in self.groups:
                if g > prev or any(a > b for a, b in zip(g, rem)):
                    continue
                self.budget.tick()
                rec(tuple(a - b for a, b in zip(rem, g)), g, acc + [g])

        rec(self.total, self.total, [])
        return out


def maximal_decompositions(
    poly: LatticePolygon, budget: int = DEFAULT_BUDGET
) -> list[MinkowskiDecomposition]:
    """All decompositions of the polygon with the largest part count."""
    if poly.dim == 0:
        raise DegeneratePolygon("a single point has no decompositions")
    engine = _EdgeEngine(poly, _Budget(budget))
    top = engine.max_parts()
    decs = [
        _make_decomposition(poly, poly, engine.dirs, groups)
        for groups in engine.partitions(top, top)
    ]
    decs.sort(key=lambda d: _parts_key(d.parts))
    return decs


def _iter_subpolygons(poly, bud):
    """Every convex polygon on the lattice points, once per translation class.

    Segments come from point pairs.  Two-dimensional subpolygons come
    from chains anchored at their lex-min vertex v0, extended by w only
    when the chain turns left at its last point and w lies strictly
    counterclockwise of that point around v0.  The other points are
    lex-greater than v0, so they span less than a half turn around it:
    such a chain is the counterclockwise vertex list of a convex polygon
    (v0 lies strictly left of every edge not through it, so the chain
    closes with left turns), and each polygon has exactly one such
    chain.  A class is yielded at its first placement in walk order.
    """
    pts = poly.lattice_points()
    n = len(pts)
    seen = set()

    def place(chain):
        # the chain is already the hull, counterclockwise from lex-min
        x0 = min(x for x, _ in chain)
        y0 = min(y for _, y in chain)
        key = tuple((x - x0, y - y0) for x, y in chain)
        if key in seen:
            return None
        seen.add(key)
        q = LatticePolygon(chain)
        if q.vertices != tuple(chain):
            raise InvariantViolation(f"chain {chain} is not its own hull")
        return q

    for i in range(n):
        for j in range(i + 1, n):
            bud.tick()
            q = place((pts[i], pts[j]))
            if q is not None:
                yield q
    if poly.dim < 2:
        return

    def chains(v0, cand, chain):
        bud.tick()
        if len(chain) >= 3:
            q = place(chain)
            if q is not None:
                yield q
        (ox, oy), (px, py), (lx, ly) = v0, chain[-2], chain[-1]
        ex, ey = lx - px, ly - py
        rx, ry = lx - ox, ly - oy
        for w in cand:
            wx, wy = w
            # a left turn at the last point, and w counterclockwise of it around v0
            if ex * (wy - ly) - ey * (wx - lx) > 0 and rx * (wy - oy) - ry * (wx - ox) > 0:
                yield from chains(v0, cand, chain + [w])

    for i0 in range(n):
        v0 = pts[i0]
        cand = pts[i0 + 1 :]
        for w in cand:
            yield from chains(v0, cand, [v0, w])


@dataclass(frozen=True)
class SubpolygonSearch:
    """Outcome of maximizing the part count over all subpolygons."""

    length: int
    decompositions: tuple[MinkowskiDecomposition, ...]
    exhaustive: bool


def subpolygon_decomposition_search(
    poly: LatticePolygon, budget: int = DEFAULT_BUDGET
) -> SubpolygonSearch:
    """Largest part count over subpolygons, with every witness.

    Returns the maximum number of Minkowski summands over all convex
    subpolygons drawn on the polygon's lattice points, together with
    all distinct summand multisets achieving it.  Falls back to a
    greedy, non-exhaustive answer when the budget runs out.
    """
    if poly.dim == 0:
        raise DegeneratePolygon("a single point admits no subpolygon search")
    bud = _Budget(budget)
    try:
        engines = []
        for q in _iter_subpolygons(poly, bud):
            eng = _EdgeEngine(q, bud)
            engines.append((q, eng, eng.max_parts()))
        best = max(ell for _, _, ell in engines)
        found = {}
        for q, eng, ell in engines:
            if ell != best:
                continue
            for groups in eng.partitions(best, best):
                dec = _make_decomposition(poly, q, eng.dirs, groups)
                found.setdefault(_parts_key(dec.parts), dec)
        decs = tuple(sorted(found.values(), key=lambda d: _parts_key(d.parts)))
        return SubpolygonSearch(best, decs, True)
    except BudgetExceeded:
        return _greedy_search(poly, budget)


def best_subpolygon_decomposition(
    poly: LatticePolygon, budget: int = DEFAULT_BUDGET
) -> list[MinkowskiDecomposition]:
    """All subpolygon decompositions with the largest summand count."""
    return list(subpolygon_decomposition_search(poly, budget).decompositions)


def _greedy_search(poly, budget):
    # cheap lower estimate: longest lattice run in a few directions plus
    # whatever the polygon itself splits into under a reduced budget
    pts = set(poly.lattice_points())
    dirs = set(poly.edge_multiset()) | {(1, 0), (0, 1), (1, 1), (1, -1)}
    candidates = []
    for d in dirs:
        for p in pts:
            run = 0
            x, y = p
            while (x + d[0], y + d[1]) in pts:
                x, y = x + d[0], y + d[1]
                run += 1
            if run:
                seg = LatticePolygon([p, (x, y)])
                unit = LatticePolygon([(0, 0), d]).translate_to_origin()
                x0, y0, _, _ = seg.bounding_box()
                candidates.append(
                    MinkowskiDecomposition(
                        poly,
                        seg.translate_to_origin(),
                        (x0, y0),
                        _sort_parts([unit] * run),
                        False,
                    )
                )
    try:
        for dec in maximal_decompositions(poly, budget=min(budget, 50_000)):
            candidates.append(
                MinkowskiDecomposition(
                    poly, dec.subpolygon, dec.translation, dec.parts, False
                )
            )
    except BudgetExceeded:
        x0, y0, _, _ = poly.bounding_box()
        candidates.append(
            MinkowskiDecomposition(
                poly,
                poly.translate_to_origin(),
                (x0, y0),
                (poly.translate_to_origin(),),
                False,
            )
        )
    best = max(len(c.parts) for c in candidates)
    found = {}
    for c in candidates:
        if len(c.parts) == best:
            found.setdefault(_parts_key(c.parts), c)
    decs = tuple(sorted(found.values(), key=lambda d: _parts_key(d.parts)))
    return SubpolygonSearch(best, decs, False)
