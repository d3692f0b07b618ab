"""The search over sums of L = 1 shapes without its memo, kept as the oracle.

`largest_multisets` is how `decomp._largest_multisets` worked before it
computed room and the fitting shapes once per position set: every node
filters its parent's fitting shapes and asks `CutGrid.room`, which
finds T's width along each functional by bisecting over the level sets
of the polygon's points.  `node_search` is the whole search as it was,
its decompositions built one sum and one `_make_decomposition` each.
"""

from bisect import bisect_left

from factoring import _make_decomposition, _parts_key
from toricode.decomp import SubpolygonSearch, _Budget, _shapes
from toricode.errors import DegeneratePolygon
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
