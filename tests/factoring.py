"""The subpolygon walk and the edge-partition engine, kept as the oracle.

`walk_search` is how `decomp.subpolygon_decomposition_search` worked
before it searched sums of L = 1 shapes: it walks every convex
subpolygon once per translation class, splits each class's primitive
edge multiset into the most zero-sum groups, and keeps every summand
multiset of the largest count at the first placement the walk reaches.
A decomposition of a polygon matches a partition of its primitive edge
multiset into groups that each sum to zero: any group, walked in
angular order, closes up into a convex summand, and summing the parts
merges the multisets back together.  Segments carry both directions in
their multiset, which keeps the correspondence exact for degenerate
summands.
"""

from fractions import Fraction
from itertools import product
from math import gcd

from toricode.decomp import (
    DEFAULT_BUDGET,
    MinkowskiDecomposition,
    SubpolygonSearch,
    _Budget,
)
from toricode.errors import DegeneratePolygon, InvariantViolation
from toricode.polygon import LatticePolygon, minkowski_sum


def _parts_key(parts):
    return tuple(p.vertices for p in parts)


def _sort_parts(parts):
    return tuple(sorted(parts, key=lambda p: (p.num_lattice_points, p.vertices)))


def _make_decomposition(parent, placed_sub, parts):
    """The decomposition of placed_sub, the sum of `parts`, as it sits in parent."""
    x0, y0, _, _ = placed_sub.bounding_box()
    if not all(parent.contains(v) for v in placed_sub.vertices):
        raise InvariantViolation("subpolygon leaves the parent polygon")
    parts = _sort_parts(p.translate_to_origin() for p in parts)
    return MinkowskiDecomposition(parent, placed_sub.translate_to_origin(), (x0, y0), parts)


def edge_multiset(poly):
    """Primitive edge directions with their lattice lengths.

    Counterclockwise orientation for a 2-dim polygon.  A segment
    contributes both directions so that multisets stay additive
    under Minkowski sums.  A point has no edges.
    """
    vs = poly.vertices
    out = {}
    if len(vs) == 2:
        (x0, y0), (x1, y1) = vs
        g = gcd(abs(x1 - x0), abs(y1 - y0))
        d = ((x1 - x0) // g, (y1 - y0) // g)
        out[d] = g
        out[(-d[0], -d[1])] = g
    elif len(vs) > 2:
        n = len(vs)
        for i in range(n):
            (ax, ay), (bx, by) = vs[i], vs[(i + 1) % n]
            g = gcd(abs(bx - ax), abs(by - ay))
            d = ((bx - ax) // g, (by - ay) // g)
            out[d] = out.get(d, 0) + g
    return out


def polygon_from_edges(start, edges):
    """Walk edge vectors from a start point and take the hull.

    The edges must sum to zero; the walk closes up and its hull is the
    polygon they bound when taken in angular order.
    """
    x, y = start
    pts = [(x, y)]
    for dx, dy in edges:
        x, y = x + dx, y + dy
        pts.append((x, y))
    if (x, y) != start:
        raise DegeneratePolygon("edge vectors do not close up")
    return LatticePolygon(pts)


def _angle_key(v):
    # counterclockwise from (1, 0): half-plane index, then -cot of the angle,
    # which increases strictly within each open half-plane
    x, y = v
    if y == 0:
        return (0 if x > 0 else 1, Fraction(-(1 << 62)))
    return (0 if y > 0 else 1, Fraction(-x, y))


def sort_directions_ccw(dirs):
    """Sort direction vectors counterclockwise starting from (1, 0)."""
    return sorted(dirs, key=_angle_key)


def _edge_basis(poly):
    em = edge_multiset(poly)
    dirs = tuple(sort_directions_ccw(em.keys()))
    return dirs, tuple(em[d] for d in dirs)


def _group_to_polygon(dirs, group):
    edges = []
    for d, c in zip(dirs, group):
        edges.extend([d] * c)
    return polygon_from_edges((0, 0), edges).translate_to_origin()


def _decomposition(parent, placed_sub, dirs, groups):
    parts = [_group_to_polygon(dirs, g) for g in groups]
    if minkowski_sum(*parts).translate_to_origin() != placed_sub.translate_to_origin():
        raise InvariantViolation("summands do not add up to the subpolygon")
    return _make_decomposition(parent, placed_sub, parts)


class EdgeEngine:
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


def max_parts(poly, budget=DEFAULT_BUDGET):
    """Maximum number of summands in any decomposition of the polygon."""
    return EdgeEngine(poly, _Budget(budget)).max_parts()


def factor_polygon(poly, max_count=None, budget=DEFAULT_BUDGET, min_count=1):
    """Every decomposition of the polygon itself, largest part count first.

    Decompositions are deduplicated up to summand reordering and
    translation; max_count caps the number of summands when given.
    """
    if poly.dim == 0:
        raise DegeneratePolygon("a single point has no decompositions")
    engine = EdgeEngine(poly, _Budget(budget))
    decs = [
        _decomposition(poly, poly, engine.dirs, groups)
        for groups in engine.partitions(
            min_count, sum(engine.total) if max_count is None else max_count
        )
    ]
    decs.sort(key=lambda d: (-len(d.parts), _parts_key(d.parts)))
    return decs


def maximal_decompositions(poly, budget=DEFAULT_BUDGET):
    """All decompositions of the polygon itself with the largest part count."""
    if poly.dim == 0:
        raise DegeneratePolygon("a single point has no decompositions")
    engine = EdgeEngine(poly, _Budget(budget))
    top = engine.max_parts()
    decs = [
        _decomposition(poly, poly, engine.dirs, groups)
        for groups in engine.partitions(top, top)
    ]
    decs.sort(key=lambda d: _parts_key(d.parts))
    return decs


def iter_subpolygons(poly, bud):
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


def walk_search(poly, budget=DEFAULT_BUDGET):
    """Largest part count over subpolygons, with every witness, by the walk.

    Raises BudgetExceeded when the walk and the edge searches need more
    than `budget` ticks.
    """
    if poly.dim == 0:
        raise DegeneratePolygon("a single point admits no subpolygon search")
    bud = _Budget(budget)
    engines = []
    for q in iter_subpolygons(poly, bud):
        eng = EdgeEngine(q, bud)
        engines.append((q, eng, eng.max_parts()))
    best = max(ell for _, _, ell in engines)
    found = {}
    for q, eng, ell in engines:
        if ell != best:
            continue
        for groups in eng.partitions(best, best):
            dec = _decomposition(poly, q, eng.dirs, groups)
            found.setdefault(_parts_key(dec.parts), dec)
    decs = tuple(sorted(found.values(), key=lambda d: _parts_key(d.parts)))
    return SubpolygonSearch(best, decs)
