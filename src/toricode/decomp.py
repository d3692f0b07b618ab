"""Minkowski length and maximal decompositions of lattice polygons.

The Minkowski length L(P) is the largest number of summands of
dimension at least 1 in a Minkowski sum whose lattice translate lies in
P.  Three elementary facts make one small search exact.

(a) Every summand of dimension at least 1 contains a primitive segment,
    one lattice step of an edge.  So a sum of l such summands inside P
    contains a zonotope sum of l primitive segments inside P.

(b) In a sum of L(P) summands inside P, every summand Q has L(Q) = 1.
    Otherwise Q contains a translate of A + B with A and B of dimension
    at least 1; replacing Q by A + B gives L(P) + 1 summands whose sum
    lies in a translate of the old sum, hence in P.

(c) L(Q) = 1 implies #(Q) <= 4: among five lattice points two agree mod
    2, so their midpoint is a lattice point and Q contains a segment of
    lattice length 2, the sum of two primitive segments.  The polygons
    with at most 4 points and L = 1 are the primitive segments, the
    unimodular triangles (doubled area 1) and the triangles of doubled
    area 3 with primitive edges.  A longer segment and a polygon with a
    non-primitive edge contain a segment of length 2.  A quadrilateral
    with 4 points splits along a diagonal into two unimodular
    triangles, so its fourth vertex lies on the next lattice line
    parallel to that diagonal, and convexity makes it a unit
    parallelogram, the sum of two segments.  A triangle with 4 points
    has an edge of length 2, or 3 boundary points and one interior
    point, doubled area 3 by Pick's formula.  Every triangle of that
    last kind is equivalent to T0 = conv{(1,0),(0,1),(2,2)}: with one
    edge on [(0,0),(1,0)] the third vertex is at height 3, a shear
    brings its x into {0, 1, 2}, and only x = 2 leaves the other two
    edges primitive (Soprunov & Soprunova, "Toric surface codes and
    Minkowski length of polygons", SIAM J. Discrete Math. 23, 2009).

So the maximal decompositions are the largest multisets of these L = 1
shapes whose sum has a lattice translate in P.  Each shape is stored
with its lex-min vertex at the origin, and so is each sum, since the
lex-min vertex of a sum is the sum of the lex-min vertices.  A search
adds shapes in non-decreasing index and keeps the set T of positions
of the sum's lex-min vertex that keep the sum inside P: adding a shape
with vertices v intersects the translates T - v, because P is convex.
A largest sum S fits at one position only: if it fit at t and t + u,
then S + [0, u] would fit, one summand more.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from math import gcd

from .errors import BudgetExceeded, DegeneratePolygon, InvariantViolation
from .polygon import LatticePolygon, _run_directions, minkowski_sum

DEFAULT_BUDGET = 200_000

# every L = 1 shape contains a primitive segment u, whose widths along
# these functionals sum to |u1| + |u2| + |u1 + u2| + |u1 - u2| >= 3
_WIDTH_FUNCTIONALS = ((1, 0), (0, 1), (1, 1), (1, -1))


class _Budget:
    __slots__ = ("left",)

    def __init__(self, n):
        self.left = n

    def tick(self, k=1):
        self.left -= k
        if self.left < 0:
            raise BudgetExceeded("search budget exhausted")


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

    @property
    def ell(self) -> int:
        return len(self.parts)


def _make_decomposition(parent, placed_sub, parts):
    """The decomposition of placed_sub, the sum of `parts`, as it sits in parent."""
    x0, y0, _, _ = placed_sub.bounding_box()
    if not all(parent.contains(v) for v in placed_sub.vertices):
        raise InvariantViolation("subpolygon leaves the parent polygon")
    parts = _sort_parts(p.translate_to_origin() for p in parts)
    return MinkowskiDecomposition(parent, placed_sub.translate_to_origin(), (x0, y0), parts)


class _Grid:
    """The polygon's lattice points as the set bits of one integer.

    Point (x, y) is bit (x - x0) * stride + (y - y0).  The stride leaves
    `height` empty rows above each column, so subtracting a vector whose
    y is at most the height in absolute value, as every vector of a
    shape drawn on the polygon's directions is, never carries a point
    into a neighbouring column.
    """

    def __init__(self, poly):
        x0, y0, _, y1 = poly.bounding_box()
        self.origin = x0, y0
        self.stride = 2 * (y1 - y0) + 1
        self.points = self._mask(poly.lattice_points())
        # cuts[f][c]: the points whose value of f is below its least value + c
        self.cuts = []
        for a, b in _WIDTH_FUNCTIONALS:
            levels = {}
            for x, y in poly.lattice_points():
                levels.setdefault(a * x + b * y, []).append((x, y))
            lo, hi = min(levels), max(levels)
            cut, acc = [0], 0
            for c in range(lo, hi + 1):
                acc |= self._mask(levels.get(c, ()))
                cut.append(acc)
            self.cuts.append(cut)

    def _mask(self, pts):
        (x0, y0), s = self.origin, self.stride
        return sum(1 << ((x - x0) * s + y - y0) for x, y in pts)

    def shift(self, v):
        return v[0] * self.stride + v[1]

    def point(self, t):
        """The point of a one-point set."""
        if t & (t - 1):
            raise InvariantViolation("a largest sum fits at more than one position")
        x, y = divmod(t.bit_length() - 1, self.stride)
        return self.origin[0] + x, self.origin[1] + y

    def room(self, t):
        """How many more L = 1 shapes a sum with positions T can take, at most.

        If S + R fits at t, every vertex r of R has t + r in T, so R's
        width along each functional is at most T's.  Widths add over the
        shapes of R, and each shape's widths sum to at least 3.
        """
        total = 0
        for cut in self.cuts:
            levels = range(len(cut))
            first = bisect_left(levels, True, key=lambda c: t & cut[c] != 0)
            last = bisect_left(levels, True, key=lambda c: t & cut[c] == t)
            total += last - first
        return total // 3


def _shapes(poly, bud):
    """Vertices, lex-min first at the origin, of the candidate L = 1 shapes.

    Segments come first, one per primitive direction with a lattice run,
    then unimodular triangles, then triangles of doubled area 3 with
    primitive edges, each from a pair of those directions.  The search
    drops the triangles that have no translate in the polygon.
    """
    pts = poly.lattice_points()
    bud.tick(len(pts) * (len(pts) - 1) // 2)
    dirs = _run_directions(pts)
    bud.tick(len(dirs) * (len(dirs) - 1) // 2)
    triangles = {1: [], 3: []}
    for i, (ax, ay) in enumerate(dirs):
        for bx, by in dirs[i + 1 :]:
            det = abs(ax * by - ay * bx)
            if det in triangles and gcd(bx - ax, by - ay) == 1:
                triangles[det].append(((0, 0), (ax, ay), (bx, by)))
    return [((0, 0), u) for u in dirs] + triangles[1] + triangles[3]


def _largest_multisets(shapes, grid, bud):
    """Every largest multiset of shapes that fits, with its positions.

    Returns the size and a list of (shape indices, position set) pairs.
    """
    best, found = 0, []

    def visit(chosen, t, options):
        nonlocal best, found
        bud.tick()
        depth = len(chosen)
        if depth > best:
            best, found = depth, []
        if depth == best:
            found.append((chosen, t))
        if depth + grid.room(t) < best:
            return
        kids = []
        for i, shifts in options:
            nt = t
            for k in shifts:
                nt &= t >> k
            if nt:
                kids.append((i, shifts, nt))
        # a shape that no longer fits never fits again further down
        options = [(i, shifts) for i, shifts, _ in kids]
        for j, (i, _, nt) in enumerate(kids):
            visit(chosen + (i,), nt, options[j:])

    shifts = [tuple(grid.shift(v) for v in verts[1:]) for verts in shapes]
    visit((), grid.points, list(enumerate(shifts)))
    return best, found


@dataclass(frozen=True)
class SubpolygonSearch:
    """Outcome of maximizing the part count over all subpolygons."""

    length: int
    decompositions: tuple[MinkowskiDecomposition, ...]

    @property
    def exhaustive(self) -> bool:
        """Always true: a search that runs out of budget raises instead.

        No caller in the package reads it; perfbench/spans.py does.
        """
        return True


def subpolygon_decomposition_search(
    poly: LatticePolygon, budget: int = DEFAULT_BUDGET
) -> SubpolygonSearch:
    """Minkowski length of the polygon, with every maximal decomposition.

    Returns L(P) and one decomposition per distinct summand multiset
    achieving it, each at the one position where its sum fits.  The
    budget counts one tick per pair of lattice points and per pair of
    segment directions listed, and one per search node; running out
    raises BudgetExceeded.
    """
    if poly.dim == 0:
        raise DegeneratePolygon("a single point admits no subpolygon search")
    bud = _Budget(budget)
    shapes = _shapes(poly, bud)
    grid = _Grid(poly)
    best, found = _largest_multisets(shapes, grid, bud)
    # each shape used, built once, with its bounding box at the origin
    used = {i for chosen, _ in found for i in chosen}
    polys = {i: LatticePolygon(shapes[i]).translate_to_origin() for i in used}
    decs = []
    for chosen, t in found:
        parts = [polys[i] for i in chosen]
        total = minkowski_sum(*parts)
        # the sum's lex-min vertex, its first, goes to the one position
        (lx, ly), (px, py) = total.vertices[0], grid.point(t)
        decs.append(_make_decomposition(poly, total.translate(px - lx, py - ly), parts))
    decs.sort(key=lambda d: _parts_key(d.parts))
    return SubpolygonSearch(best, tuple(decs))


def best_subpolygon_decomposition(
    poly: LatticePolygon, budget: int = DEFAULT_BUDGET
) -> list[MinkowskiDecomposition]:
    """All subpolygon decompositions with the largest summand count."""
    return list(subpolygon_decomposition_search(poly, budget).decompositions)
