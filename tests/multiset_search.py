"""The search over sums of L = 1 shapes without its memo, kept as the oracle.

`largest_multisets` is how `decomp._largest_multisets` worked before it
computed room and the fitting shapes once per position set: every node
filters its parent's fitting shapes and asks `CutGrid.room`, which
finds T's width along each functional by bisecting over the level sets
of the polygon's points.  `node_search` is the whole search as it was,
its decompositions built one sum and one `_make_decomposition` each.
`prefix_decompositions` is how `decomp._decompositions` worked while a
decomposition stored its subpolygon: it builds the hull of every prefix
sum and checks the placed sum's vertices against `PointGrid.holds`.
"""

from bisect import bisect_left

from factoring import _make_decomposition, _parts_key
from toricode.decomp import SubpolygonSearch, _Budget, _Grid, _shapes
from toricode.errors import DegeneratePolygon, InvariantViolation
from toricode.polygon import LatticePolygon, minkowski_sum

# every L = 1 shape contains a primitive segment u, whose widths along
# these functionals sum to |u1| + |u2| + |u1 + u2| + |u1 - u2| >= 3
WIDTH_FUNCTIONALS = ((1, 0), (0, 1), (1, 1), (1, -1))


class CutGrid:
    """The polygon's lattice points as bits at stride 2h + 1, with level cuts.

    Point (x, y) is bit (x - x0) * stride + (y - y0).
    """

    def __init__(self, poly):
        x0, y0, _, y1 = poly.bounding_box()
        self.origin = x0, y0
        self.stride = 2 * (y1 - y0) + 1
        self.points = self.mask(poly.lattice_points())
        # cuts[f][c]: the points whose value of f is below its least value + c
        self.cuts = []
        for a, b in WIDTH_FUNCTIONALS:
            levels = {}
            for x, y in poly.lattice_points():
                levels.setdefault(a * x + b * y, []).append((x, y))
            lo, hi = min(levels), max(levels)
            cut, acc = [0], 0
            for c in range(lo, hi + 1):
                acc |= self.mask(levels.get(c, ()))
                cut.append(acc)
            self.cuts.append(cut)

    def mask(self, pts):
        (x0, y0), s = self.origin, self.stride
        return sum(1 << ((x - x0) * s + y - y0) for x, y in pts)

    def shift(self, v):
        return v[0] * self.stride + v[1]

    def point(self, t):
        x, y = divmod(t.bit_length() - 1, self.stride)
        return self.origin[0] + x, self.origin[1] + y

    def room(self, t):
        total = 0
        for cut in self.cuts:
            levels = range(len(cut))
            first = bisect_left(levels, True, key=lambda c: t & cut[c] != 0)
            last = bisect_left(levels, True, key=lambda c: t & cut[c] == t)
            total += last - first
        return total // 3


def largest_multisets(shapes, grid, bud, visited=None):
    """Every largest multiset of shapes that fits, with its positions.

    Returns the size and a list of (shape indices, position set) pairs;
    `visited`, if given, gets the position set of every node.
    """
    best, found = 0, []

    def visit(chosen, t, options):
        nonlocal best, found
        bud.tick()
        if visited is not None:
            visited.append(t)
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


def node_search(poly, budget):
    """The decomposition search with a room and a filter at every node."""
    if poly.dim == 0:
        raise DegeneratePolygon("a single point admits no subpolygon search")
    bud = _Budget(budget)
    shapes = _shapes(poly, bud)
    grid = CutGrid(poly)
    best, found = largest_multisets(shapes, grid, bud)
    used = {i for chosen, _ in found for i in chosen}
    polys = {i: LatticePolygon(shapes[i]).translate_to_origin() for i in used}
    decs = []
    for chosen, t in found:
        parts = [polys[i] for i in chosen]
        total = minkowski_sum(*parts)
        (lx, ly), (px, py) = total.vertices[0], grid.point(t)
        decs.append(_make_decomposition(poly, total.translate(px - lx, py - ly), parts))
    decs.sort(key=lambda d: _parts_key(d.parts))
    return SubpolygonSearch(best, tuple(decs))


class PointGrid(_Grid):
    """`decomp._Grid` with a lattice-point test on its bits."""

    def __init__(self, poly):
        super().__init__(poly)
        self.height = poly.width_height()[1]

    def holds(self, pts):
        """Whether every point is a lattice point of the polygon."""
        (x0, y0), s = self.origin, self.stride
        return all(
            x >= x0 and 0 <= y - y0 <= self.height and self.points >> ((x - x0) * s + y - y0) & 1
            for x, y in pts
        )


def prefix_decompositions(poly, shapes, grid, found):
    """(translation, parts, subpolygon) of the found multisets, sorted by their parts.

    Consecutive multisets share prefixes, and each prefix's sum is
    built once.  Shapes have their lex-min vertex at the origin, so
    each sum has too, and it goes to the one point of its positions.
    """
    polys, parts, keys = {}, {}, {}
    for i in {i for chosen, _ in found for i in chosen}:
        polys[i] = LatticePolygon(shapes[i])
        part = parts[i] = polys[i].translate_to_origin()
        # #(part): 2 on a segment, 3 on a unimodular triangle, 4 on T0
        (ax, ay), (bx, by) = shapes[i][1], shapes[i][-1]
        keys[i] = len(shapes[i]) + (abs(ax * by - ay * bx) == 3), part.vertices
    decs = []
    # sums[d]: the sum of the first d + 1 shapes of the last multiset
    sums, last = [], ()
    for chosen, t in found:
        d = 0
        while d < len(last) and chosen[d] == last[d]:
            d += 1
        del sums[d:]
        for i in chosen[d:]:
            sums.append(minkowski_sum(sums[-1], polys[i]) if sums else polys[i])
        last, total = chosen, sums[-1]
        px, py = grid.point(t)
        if not grid.holds((x + px, y + py) for x, y in total.vertices):
            raise InvariantViolation("subpolygon leaves the parent polygon")
        x0, y0, _, _ = total.bounding_box()
        order = sorted(chosen, key=keys.__getitem__)
        decs.append((
            tuple(parts[i].vertices for i in order),
            ((px + x0, py + y0), tuple(parts[i] for i in order), total.translate(-x0, -y0)),
        ))
    decs.sort(key=lambda kd: kd[0])
    return [dec for _, dec in decs]
