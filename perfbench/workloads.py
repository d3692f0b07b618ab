"""The operation lists of the three workloads, made from a seed.

Every operation is one call into a public entry point of toricode:
a subcommand run in-process through `toricode.cli.main(argv)`, or
`toricode.code.weight_distribution` on a code built from a polygon
file.  The program sees only the polygon files written here.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field

import oracle

# Polygons named in the paper and the README, at the origin.
HEXAGON = oracle.HEXAGON
PENTAGON = oracle.PENTAGON
SKEW_TRIANGLE = ((0, 0), (1, 4), (4, 1))
TRIANGLE_20 = ((0, 0), (20, 0), (0, 20))


def box(d, e):
    return ((0, 0), (d, 0), (d, e), (0, e))


def segment(a):
    return ((0, 0), (a, 0))


# conv{(0,3),(1,1),(4,0),(3,2)} with --budget 50 exits 3 at q = 11 and 13:
# the budget runs out, the greedy fallback returns a smaller ell, and the
# decomposition lower bound is marked applicable without an exhaustive
# search.  These operations count as failed until that is fixed.
GREEDY_FAULT_QUAD = ((0, 3), (1, 1), (4, 0), (3, 2))
GREEDY_FAULT_ARGS = ("--budget", "50")
GREEDY_FAULT_QS = (11, 13)


@dataclass
class Op:
    kind: str  # "mindist", "weights", "bounds" or "code"
    name: str  # polygon name, for labels
    q: int
    vertices: tuple  # as written to the polygon file
    extra: tuple = ()
    expect_exit: int = 0
    path: str = ""
    argv: list = field(default_factory=list)

    @property
    def label(self):
        return f"{self.kind} {self.name} F{self.q}{' ' + ' '.join(self.extra) if self.extra else ''}"


# The eight symmetries of the square: unimodular, and they keep a
# polygon's bounding box size, so a seeded image fits the same fields.
_D4 = [((1, 0), (0, 1)), ((0, 1), (1, 0)), ((-1, 0), (0, 1)), ((1, 0), (0, -1)),
       ((-1, 0), (0, -1)), ((0, -1), (1, 0)), ((0, 1), (-1, 0)), ((0, -1), (-1, 0))]


def seeded_image(rng, vertices, symmetries=_D4):
    """A random square symmetry and translation of the polygon, vertices shuffled."""
    (a, b), (c, d) = rng.choice(symmetries)
    tx, ty = rng.randint(-6, 6), rng.randint(-6, 6)
    out = [(a * x + b * y + tx, c * x + d * y + ty) for x, y in vertices]
    rng.shuffle(out)
    return tuple(out)


# distance: (mode, polygon name, vertices, q).  The hexagon and the box
# 2x2 have k = 9, the box 3x1 and the segment of length 7 have k = 8, the
# pentagon k = 7, the box 2x1 and the segment of length 5 k = 6.
# weight_distribution stops at q^k > 10^8, and over F8 and F9 it is kept
# to codes whose search walks no Gray digit (see the FOUND line on the
# Gray walk in CHANGES.md), so its large codes are the k = 9 ones over
# F7, each in three seeded images.  The hexagon over F9 (about 4.5 s) is
# left out so that a pass stays near 6 s and a run holds several passes.
DISTANCE = [
    ("mindist", "hexagon", HEXAGON, 7),
    ("mindist", "hexagon", HEXAGON, 8),
    ("mindist", "pentagon", PENTAGON, 8),
    ("mindist", "pentagon", PENTAGON, 9),
    ("mindist", "box3x1", box(3, 1), 9),
    ("mindist", "segment7", segment(7), 9),
    ("mindist", "box2x2", box(2, 2), 7),
    *[("weights", "hexagon", HEXAGON, 7)] * 3,
    *[("weights", "box2x2", box(2, 2), 7)] * 3,
    ("weights", "box3x1", box(3, 1), 7),
    ("weights", "pentagon", PENTAGON, 7),
    ("weights", "pentagon", PENTAGON, 8),
    ("weights", "segment5", segment(5), 7),
    ("weights", "box2x1", box(2, 1), 8),
    ("weights", "box2x1", box(2, 1), 9),
]

# large-q: (command, polygon name, vertices, q).  The same polygons recur
# across q; n = (q-1)^2 reaches 65025 at q = 256.
LARGE_Q = [
    ("code", "hexagon", HEXAGON, 49),
    ("code", "hexagon", HEXAGON, 128),
    ("code", "hexagon", HEXAGON, 256),
    ("code", "pentagon", PENTAGON, 64),
    ("code", "pentagon", PENTAGON, 256),
    ("code", "skew-triangle", SKEW_TRIANGLE, 81),
    ("code", "skew-triangle", SKEW_TRIANGLE, 256),
    ("code", "triangle20", TRIANGLE_20, 49),
    ("bounds", "hexagon", HEXAGON, 49),
    ("bounds", "hexagon", HEXAGON, 128),
    ("bounds", "box2x2", box(2, 2), 64),
    ("bounds", "box2x2", box(2, 2), 256),
    ("bounds", "pentagon", PENTAGON, 49),
]

# sweep: (lattice points, q) per slot; one seeded random polygon in the
# [0, SWEEP_SPAN]^2 box per slot, no two alike up to translation.  Five
# cheap reports and the two failing operations sit below five reports on
# 5-point polygons over F8, whose cost is mostly the fixed 4681-message
# section enumeration; five costly reports here and the two fixed shapes
# below sit above, so the median operation falls inside that cluster.
SWEEP_SPAN = 4
SWEEP_SLOTS = [
    (3, 7), (3, 16), (6, 16), (7, 9), (8, 11),
    (5, 8), (5, 8), (5, 8), (5, 8), (5, 8),
    (5, 9), (10, 8), (10, 13), (10, 16), (5, 11),
]
# The two costliest reports take over half of a pass, and their cost
# varies by a sixth between random shapes, so their shapes are fixed and
# only a translation is seeded (a symmetry reorders the lattice points and
# moves the cost of a search cut off by its budget by a fifth): an
# exhaustive search on 11 points (about 80k hulls) and one on 12 points
# that runs out of the default budget.
SWEEP_FIXED = [
    ("search11", ((0, 0), (2, 0), (4, 2), (4, 3), (0, 1)), 8),
    ("budget12", ((1, 0), (3, 0), (4, 3), (3, 4), (2, 4)), 11),
]


def _random_polygon(rng, span, npts, seen):
    while True:
        pts = [(rng.randint(0, span), rng.randint(0, span)) for _ in range(rng.randint(3, 7))]
        verts = oracle.hull(pts)
        if len(verts) < 3:
            continue
        if len(oracle.lattice_points(verts)) != npts:
            continue
        key = tuple(oracle.to_origin(verts))
        if key in seen:
            continue
        seen.add(key)
        return tuple(verts)


def build(workload: str, seed: int) -> list[Op]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "distance":
        return [Op(kind, name, q, seeded_image(rng, verts)) for kind, name, verts, q in DISTANCE]
    if workload == "large-q":
        return [Op(kind, name, q, seeded_image(rng, verts)) for kind, name, verts, q in LARGE_Q]
    if workload == "sweep":
        seen: set = set()
        ops = [
            Op("bounds", f"random{npts}", q, _random_polygon(rng, SWEEP_SPAN, npts, seen))
            for npts, q in SWEEP_SLOTS
        ]
        ops += [
            Op("bounds", name, q, seeded_image(rng, verts, _D4[:1]))
            for name, verts, q in SWEEP_FIXED
        ]
        ops += [
            Op("bounds", "greedy-fault-quad", q, GREEDY_FAULT_QUAD, GREEDY_FAULT_ARGS, 3)
            for q in GREEDY_FAULT_QS
        ]
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def write_inputs(ops: list[Op], directory: str):
    """Write one polygon file per operation and fill in the argv."""
    os.makedirs(directory, exist_ok=True)
    for i, op in enumerate(ops):
        op.path = os.path.join(directory, f"op{i:03d}.json")
        with open(op.path, "w") as fh:
            json.dump({"vertices": [list(v) for v in op.vertices]}, fh)
        if op.kind != "weights":
            op.argv = [op.kind, "--polygon", op.path, "--q", str(op.q), *op.extra]
        if op.kind in ("mindist", "bounds"):
            op.argv += ["--threads", "1"]
