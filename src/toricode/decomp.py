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
from functools import cached_property
from math import gcd

from .errors import BudgetExceeded, DegeneratePolygon, InvariantViolation, TooLarge
from .polygon import LatticePolygon, _run_directions, minkowski_sum

DEFAULT_BUDGET = 200_000
# the most bits a position grid may take; a polygon in [0, 1022]^2, the
# largest box a bound report allows, takes at most 1023 * 2046 = 2,093,058
_GRID_CAP = 1 << 22


class _Budget:
    __slots__ = ("left",)

    def __init__(self, n):
        self.left = n

    def tick(self, k=1):
        self.left -= k
        if self.left < 0:
            raise BudgetExceeded("search budget exhausted")


@dataclass(frozen=True)
class MinkowskiDecomposition:
    """A subpolygon of a parent polygon, split into Minkowski summands.

    Each part sits with its bounding box corner at the origin, and so
    does their sum, the subpolygon; translation places it inside the
    parent.
    """

    parent: LatticePolygon
    translation: tuple[int, int]
    parts: tuple[LatticePolygon, ...]

    @property
    def ell(self) -> int:
        return len(self.parts)

    @cached_property
    def subpolygon(self) -> LatticePolygon:
        """The sum of the parts, built on first read."""
        return minkowski_sum(*self.parts)


class _Grid:
    """The polygon's lattice points as the set bits of one integer.

    Point (x, y) is bit (x - x0) * stride + (y - y0) for a polygon of
    width w and height h.  The stride s = h + max(h, w) + 2 leaves more
    than h empty rows above each column, so subtracting a vector whose
    y is at most h in absolute value, as every vector of a shape drawn
    on the polygon's directions is, never carries a point into a
    neighbouring column.  `room` needs s > h + w + 1.  Points are listed
    on first read; a grid of more than _GRID_CAP bits raises TooLarge.
    """

    def __init__(self, poly):
        x0, y0, x1, y1 = poly.bounding_box()
        w, h = x1 - x0, y1 - y0
        self.origin = x0, y0
        self.stride = s = h + max(h, w) + 2
        if (w + 1) * s > _GRID_CAP:
            raise TooLarge(f"a {w}x{h} polygon needs {(w + 1) * s} grid bits, over {_GRID_CAP}")
        self.poly = poly
        self.column, self.top = (1 << s) - 1, w * s
        # shifts by k = 1, 2, 4, ... columns that together fold every
        # column onto one, k up to w
        self.folds = []
        k = 1
        while k <= w:
            self.folds.append((k * s, k * (s - 1), k * (s + 1)))
            k *= 2

    @cached_property
    def points(self):
        return self._mask(self.poly.lattice_points())

    def _mask(self, pts):
        (x0, y0), s = self.origin, self.stride
        buf = bytearray((self.top + s + 7) // 8)
        for x, y in pts:
            bit = (x - x0) * s + y - y0
            buf[bit >> 3] |= 1 << (bit & 7)
        return int.from_bytes(buf, "little")

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
        width along each of x, y, x + y and x - y is at most T's.
        Widths add over the shapes of R, and each shape's four widths
        sum to at least 3: it contains a primitive segment u, whose
        widths are |u1|, |u2|, |u1 + u2| and |u1 - u2|.

        T's least and greatest x are the columns of its lowest and
        highest bits.  The other values are gathered on one column by
        shifts of 1, 2, 4, ... columns: right by s keeps y, which
        gathers the y values on column 0; right by s - 1 a column moves
        (x, y) to (x - 1, y + 1), which gathers x + y on column 0; left
        by s + 1 moves it to (x + 1, y + 1), which gathers y - x + w on
        column w.  Each gathered value lies in [0, h + w], below the
        stride.  A point shifted past column 0 falls below bit 0, except
        one shifted a column too far, which would carry back into
        column 0 only at x + y + 1 >= s; a point shifted past column w
        stays above it.
        """
        s, cut = self.stride, self.column
        ys = diag = anti = t
        for by_y, by_diag, by_anti in self.folds:
            ys |= ys >> by_y
            diag |= diag >> by_diag
            anti |= anti << by_anti
        ys &= cut
        diag &= cut
        anti = anti >> self.top & cut
        total = (t.bit_length() - 1) // s - ((t & -t).bit_length() - 1) // s
        for f in (ys, diag, anti):
            total += f.bit_length() - (f & -f).bit_length()
        return total // 3


def _shapes(poly, bud):
    """Vertices, lex-min first at the origin, of the candidate L = 1 shapes.

    Segments come first, one per primitive direction with a lattice run,
    then unimodular triangles, then triangles of doubled area 3 with
    primitive edges, each from a pair of those directions.  The search
    drops the triangles that have no translate in the polygon.  Point
    pairs are charged from their count, before any point is listed.
    """
    k = poly.num_lattice_points
    bud.tick(k * (k - 1) // 2)
    dirs = _run_directions(poly.lattice_points())
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

    Returns the size and a list of (shape indices, position set) pairs,
    in depth-first order.  A node's position set T fixes its room and
    the shapes that fit at it, so both are computed once per distinct
    T.  A shape that fits at T fits at every superset of T, so the
    shapes that fit at a child are found among those that fit at its
    parent, and a node adds those not below the last shape it added.
    """
    best, found = 0, []
    rooms, fits = {}, {}

    def visit(chosen, t, last, options):
        nonlocal best, found
        bud.tick()
        depth = len(chosen)
        if depth > best:
            best, found = depth, []
        if depth == best:
            found.append((chosen, t))
        room = rooms.get(t)
        if room is None:
            room = rooms[t] = grid.room(t)
        if depth + room < best:
            return
        kids = fits.get(t)
        if kids is None:
            entries = [(i, a, b, nt) for i, a, b, _ in options if (nt := t & t >> a & t >> b)]
            kids = fits[t] = [i for i, _, _, _ in entries], entries
        indices, entries = kids
        for i, _, _, nt in entries[bisect_left(indices, last) :]:
            visit(chosen + (i,), nt, i, entries)

    # the shifts of a shape's other vertices; a segment's last is its second
    shifts = [(i, grid.shift(v[1]), grid.shift(v[-1]), 0) for i, v in enumerate(shapes)]
    visit((), grid.points, 0, shifts)
    return best, found


def _summand_points(part):
    """#(part) of a summand: 2 on a primitive segment, 3 on a unimodular triangle, 4 on T0.

    By (c), vertex count, doubled area and boundary count tell these
    apart, and Pick's formula gives #(part) = (area + boundary + 2) / 2.
    Any other part raises InvariantViolation.
    """
    v2, b = part.volume2, part.boundary_count
    if (len(part.vertices), v2, b) not in ((2, 0, 2), (3, 1, 3), (3, 3, 3)):
        raise InvariantViolation(f"{part.vertices} is not a summand of a maximal decomposition")
    return (v2 + b + 2) // 2


def _decompositions(poly, shapes, grid, found):
    """The decompositions of the found multisets, sorted by their parts.

    A shape's lex-min vertex, which has its least x, sits at the origin,
    so the shape moved up by -y0, with y0 its least y, is a part with
    its bounding box corner at the origin.  The sum of the shapes goes
    to the one point p of its positions, so the sum of the parts goes
    to p + (0, sum of the y0).  That sum lies in P when, along every
    outer normal n of P's edges and of P's bounding box, the parts'
    largest values plus <n, translation> stay within P's; the box
    normals bound a segment P at its ends.
    """
    vs = poly.vertices
    normals = [(by - ay, ax - bx) for (ax, ay), (bx, by) in zip(vs, vs[1:] + vs[:1])]
    normals += [(1, 0), (0, 1), (-1, 0), (0, -1)]
    tops = [max(a * x + b * y for x, y in vs) for a, b in normals]
    parts, lows, keys, values = {}, {}, {}, {}
    for i in {i for chosen, _ in found for i in chosen}:
        lows[i] = min(y for _, y in shapes[i])
        part = parts[i] = LatticePolygon(shapes[i]).translate(0, -lows[i])
        keys[i] = _summand_points(part), part.vertices
        values[i] = [max(a * x + b * y for x, y in part.vertices) for a, b in normals]
    decs = []
    for chosen, t in found:
        px, py = grid.point(t)
        tx, ty = px, py + sum(lows[i] for i in chosen)
        reach = map(sum, zip(*(values[i] for i in chosen)))
        if any(r + a * tx + b * ty > top for r, (a, b), top in zip(reach, normals, tops)):
            raise InvariantViolation("subpolygon leaves the parent polygon")
        order = sorted(chosen, key=keys.__getitem__)
        decs.append(MinkowskiDecomposition(poly, (tx, ty), tuple(parts[i] for i in order)))
    decs.sort(key=lambda dec: [p.vertices for p in dec.parts])
    return tuple(decs)


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
    raises BudgetExceeded.  A polygon whose position grid would exceed
    _GRID_CAP bits raises TooLarge.
    """
    if poly.dim == 0:
        raise DegeneratePolygon("a single point admits no subpolygon search")
    bud = _Budget(budget)
    grid = _Grid(poly)
    shapes = _shapes(poly, bud)
    best, found = _largest_multisets(shapes, grid, bud)
    return SubpolygonSearch(best, _decompositions(poly, shapes, grid, found))


def best_subpolygon_decomposition(
    poly: LatticePolygon, budget: int = DEFAULT_BUDGET
) -> list[MinkowskiDecomposition]:
    """All subpolygon decompositions with the largest summand count."""
    return list(subpolygon_decomposition_search(poly, budget).decompositions)
