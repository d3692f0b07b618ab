"""Exact integer geometry for convex lattice polygons.

Everything here is exact: hulls, point counts and point lists use
integer arithmetic, never floats.  Polygons may degenerate to a
segment or a single point; those cases stay representable because
Minkowski summands are often segments.
"""

from __future__ import annotations

import itertools
from math import gcd

from .errors import (
    CoordinateOverflow,
    DegeneratePolygon,
    EmptyInput,
    InvariantViolation,
    NotApplicable,
    PolygonTooLargeForField,
)

Point = tuple[int, int]

MAX_COORD = 1 << 31


def _check_points(pts):
    for x, y in pts:
        if abs(x) >= MAX_COORD or abs(y) >= MAX_COORD:
            raise CoordinateOverflow(f"coordinate out of range at ({x}, {y})")


def _cross(o: Point, a: Point, b: Point) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull(points) -> tuple[Point, ...]:
    """Strict convex hull, counterclockwise, starting at the lex-min vertex.

    Collinear points never appear as vertices.  Degenerate inputs give a
    single point or the two endpoints of a segment.
    """
    pts = sorted({(int(x), int(y)) for x, y in points})
    if not pts:
        raise EmptyInput("convex hull of no points")
    _check_points(pts)
    if len(pts) == 1:
        return (pts[0],)
    lower = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    if len(lower) == 2 and len(upper) == 2:
        return (pts[0], pts[-1])  # collinear input
    hull = lower[:-1] + upper[:-1]
    # monotone chain already starts at the lex-min point
    return tuple(hull)


class LatticePolygon:
    """Immutable convex lattice polygon (possibly a segment or point).

    Vertices are stored counterclockwise starting from the
    lexicographically smallest one, so equal polygons compare equal.
    """

    __slots__ = ("vertices", "_points")

    def __init__(self, points):
        self.vertices = convex_hull(points)
        self._points = None

    @property
    def dim(self) -> int:
        if len(self.vertices) == 1:
            return 0
        if len(self.vertices) == 2:
            return 1
        return 2

    # -- counting ----------------------------------------------------------

    @property
    def volume2(self) -> int:
        """Twice the euclidean area (always an integer)."""
        vs = self.vertices
        n = len(vs)
        if n < 3:
            return 0
        s = 0
        for i in range(n):
            x0, y0 = vs[i]
            x1, y1 = vs[(i + 1) % n]
            s += x0 * y1 - x1 * y0
        if s <= 0:
            raise InvariantViolation("hull must be counterclockwise")
        return s

    @property
    def boundary_count(self) -> int:
        """Number of lattice points on the boundary."""
        vs = self.vertices
        if len(vs) == 1:
            return 1
        if len(vs) == 2:
            (x0, y0), (x1, y1) = vs
            return gcd(abs(x1 - x0), abs(y1 - y0)) + 1
        n = len(vs)
        return sum(
            gcd(abs(vs[(i + 1) % n][0] - vs[i][0]), abs(vs[(i + 1) % n][1] - vs[i][1]))
            for i in range(n)
        )

    @property
    def interior_count(self) -> int:
        """Number of interior lattice points, from the area and boundary."""
        if self.dim < 2:
            return 0
        # volume2 = 2*interior + boundary - 2
        i2 = self.volume2 - self.boundary_count + 2
        if i2 % 2 or i2 < 0:
            raise InvariantViolation(f"Pick's theorem gives 2*interior = {i2}")
        return i2 // 2

    @property
    def num_lattice_points(self) -> int:
        return self.interior_count + self.boundary_count

    def lattice_points(self) -> list[Point]:
        """All lattice points of the polygon, sorted lexicographically."""
        if self._points is not None:
            return self._points
        vs = self.vertices
        if len(vs) == 1:
            pts = [vs[0]]
        elif len(vs) == 2:
            (x0, y0), (x1, y1) = vs
            g = gcd(abs(x1 - x0), abs(y1 - y0))
            dx, dy = (x1 - x0) // g, (y1 - y0) // g
            pts = sorted((x0 + t * dx, y0 + t * dy) for t in range(g + 1))
        else:
            pts = self._scanline()
        if len(pts) != self.num_lattice_points:
            raise InvariantViolation(
                f"{len(pts)} lattice points listed, {self.num_lattice_points} counted"
            )
        self._points = pts
        return pts

    def _scanline(self):
        """Lattice points column by column, each column's bounds in exact integers.

        A non-vertical edge from (ax, ay) to (bx, by) meets column x at
        height ay + (x - ax)(by - ay)/(bx - ax), and a vertical edge on
        the column at both ends; the column's points run from the least
        ceiling of those heights to the greatest floor.
        """
        vs = self.vertices
        n = len(vs)
        xmin = min(x for x, _ in vs)
        xmax = max(x for x, _ in vs)
        pts = []
        for x in range(xmin, xmax + 1):
            lo = hi = None
            for i in range(n):
                (ax, ay), (bx, by) = vs[i], vs[(i + 1) % n]
                if ax == bx:
                    if ax != x:
                        continue
                    bottom, top = min(ay, by), max(ay, by)
                else:
                    if not (min(ax, bx) <= x <= max(ax, bx)):
                        continue
                    num, den = (x - ax) * (by - ay), bx - ax
                    if den < 0:
                        num, den = -num, -den
                    bottom, top = ay - (-num // den), ay + num // den
                lo = bottom if lo is None or bottom < lo else lo
                hi = top if hi is None or top > hi else hi
            if lo is None:
                raise InvariantViolation(f"scanline x = {x} misses the polygon")
            pts.extend((x, y) for y in range(lo, hi + 1))
        return pts

    # -- transforms ----------------------------------------------------------

    def translate(self, dx: int, dy: int) -> "LatticePolygon":
        if not dx and not dy:
            return self  # immutable, so the polygon itself will do
        # a translation keeps the counterclockwise order and the lex-min
        # first vertex, so the moved vertices are already the hull
        out = object.__new__(LatticePolygon)
        out.vertices = tuple((x + int(dx), y + int(dy)) for x, y in self.vertices)
        _check_points(out.vertices)
        out._points = None
        return out

    def translate_to_origin(self) -> "LatticePolygon":
        """Translate so the bounding box corner sits at (0, 0)."""
        xmin = min(x for x, _ in self.vertices)
        ymin = min(y for _, y in self.vertices)
        return self.translate(-xmin, -ymin)

    # -- queries ---------------------------------------------------------------

    def contains(self, pt) -> bool:
        x, y = pt
        vs = self.vertices
        if len(vs) == 1:
            return (x, y) == vs[0]
        if len(vs) == 2:
            (x0, y0), (x1, y1) = vs
            if _cross((x0, y0), (x1, y1), (x, y)) != 0:
                return False
            return min(x0, x1) <= x <= max(x0, x1) and min(y0, y1) <= y <= max(y0, y1)
        n = len(vs)
        return all(_cross(vs[i], vs[(i + 1) % n], (x, y)) >= 0 for i in range(n))

    def bounding_box(self) -> tuple[int, int, int, int]:
        xs = [x for x, _ in self.vertices]
        ys = [y for _, y in self.vertices]
        return min(xs), min(ys), max(xs), max(ys)

    def width_height(self) -> tuple[int, int]:
        x0, y0, x1, y1 = self.bounding_box()
        return x1 - x0, y1 - y0

    def fits_in_box(self, q: int):
        """Translation placing the polygon inside [0, q-2]^2, or None.

        Fitting in the box means all lattice points have distinct
        exponent pairs mod q-1, which the evaluation code needs.
        """
        w, h = self.width_height()
        if w > q - 2 or h > q - 2:
            return None
        x0, y0, _, _ = self.bounding_box()
        return (-x0, -y0)

    def place_in_box(self, q: int) -> tuple["LatticePolygon", Point]:
        """The polygon translated into [0, q-2]^2, and that translation.

        Raises PolygonTooLargeForField when no translation fits.
        """
        shift = self.fits_in_box(q)
        if shift is None:
            w, h = self.width_height()
            raise PolygonTooLargeForField(
                f"polygon spans {w}x{h}, exceeding the {q - 2}x{q - 2} box for q={q}"
            )
        return self.translate(*shift), shift

    def counts(self) -> dict:
        """Doubled area plus lattice point tallies, as one record."""
        return {
            "volume2": self.volume2,
            "total": self.num_lattice_points,
            "boundary": self.boundary_count,
            "interior": self.interior_count,
        }

    def genus(self) -> int:
        """Genus of a smooth curve with this Newton polygon.

        Equals volume2 + 2 - #(P), which Pick's theorem makes the same
        as the interior point count.
        """
        if self.dim < 2:
            raise DegeneratePolygon("genus needs a 2-dimensional polygon")
        return self.interior_count

    def scott_check(self) -> bool:
        """Verify #(P) <= 3 I(P) + 7; needs at least one interior point."""
        i = self.interior_count
        if i == 0:
            raise NotApplicable("no interior lattice points")
        return self.num_lattice_points <= 3 * i + 7

    # -- identity ----------------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, LatticePolygon) and self.vertices == other.vertices

    def __hash__(self):
        return hash(self.vertices)

    def __repr__(self):
        return f"LatticePolygon({list(self.vertices)})"


def minkowski_sum(*polys: LatticePolygon) -> LatticePolygon:
    """Minkowski sum, as the hull of pairwise vertex sums."""
    if not polys:
        raise EmptyInput("Minkowski sum of no polygons")
    acc = polys[0]
    for nxt in polys[1:]:
        acc = LatticePolygon(
            [
                (ax + bx, ay + by)
                for ax, ay in acc.vertices
                for bx, by in nxt.vertices
            ]
        )
    return acc


def _run_directions(pts):
    """Primitive directions, lex-positive and sorted, of the lattice runs.

    A pair of points whose difference is g times a primitive u spans a
    run of g steps along u inside any convex polygon holding both, so
    these are exactly the directions of the polygon's primitive
    segments.
    """
    dirs = set()
    for (x1, y1), (x2, y2) in itertools.combinations(pts, 2):
        dx, dy = x2 - x1, y2 - y1
        g = gcd(abs(dx), abs(dy))
        dx, dy = dx // g, dy // g
        if dx < 0 or (dx == 0 and dy < 0):
            dx, dy = -dx, -dy
        dirs.add((dx, dy))
    return sorted(dirs)


def _xgcd(a, b):
    if b == 0:
        return (a, 1, 0) if a >= 0 else (-a, -1, 0)
    g, x, y = _xgcd(b, a % b)
    return g, y, x - (a // b) * y


def _mat_apply(m, v):
    (a, b), (c, d) = m
    return (a * v[0] + b * v[1], c * v[0] + d * v[1])


def _sub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def normal_form(poly: LatticePolygon):
    """Canonical vertex cycle under unimodular maps and translations.

    Returns (vertices, (M, t)) where vertices lists M v + t over the
    polygon's vertices v in one cyclic order, M unimodular.  Two
    polygons are lattice equivalent exactly when their vertex tuples
    are equal.

    Each vertex in turn, in both orientations, goes to the origin with
    its outgoing primitive edge direction on (1, 0) and the polygon
    above the edge.  That fixes the map up to the shears fixing (1, 0),
    and the shear that brings the next vertex's x into [0, y) fixes it
    completely.  The least of these 2n vertex cycles is kept (Grinis &
    Kasprzyk, "Normal forms of convex lattice polytopes",
    arXiv:1301.6641).  A point becomes ((0, 0),) and a segment of
    lattice length g becomes ((0, 0), (g, 0)).
    """
    vs = poly.vertices
    n = len(vs)
    if n == 1:
        return ((0, 0),), (((1, 0), (0, 1)), _sub((0, 0), vs[0]))
    # the reversed ring walks the same polygon clockwise; a map of
    # determinant -1 turns it counterclockwise again
    rings = ((1, vs), (-1, vs[:1] + vs[:0:-1])) if n > 2 else ((1, vs),)
    starts = []
    for sign, ring in rings:
        for i in range(n):
            cycle = ring[i:] + ring[:i]
            ex, ey = _sub(cycle[1], cycle[0])
            g = gcd(ex, ey)
            dx, dy = ex // g, ey // g
            _, a, b = _xgcd(dx, dy)
            c, d = -sign * dy, sign * dx
            head = (g, 0)
            if n > 2:
                wx, wy = _sub(cycle[2], cycle[0])
                x, y = a * wx + b * wy, c * wx + d * wy
                k = -(x // y)
                a, b = a + k * c, b + k * d
                head = (g, 0), (x + k * y, y)
            starts.append((head, ((a, b), (c, d)), cycle))
    # only the starts whose first edge and next vertex are least can
    # give the least cycle, so only they are mapped in full
    lead = min(head for head, _, _ in starts)
    best = None
    for head, m, cycle in starts:
        if head != lead:
            continue
        image = tuple(_mat_apply(m, _sub(v, cycle[0])) for v in cycle)
        if best is None or image < best[0]:
            best = image, (m, _sub((0, 0), _mat_apply(m, cycle[0])))
    return best
