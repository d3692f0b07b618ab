"""The frame plan of the distance search, the oracle for the pivot plan.

Scalars and the torus move nonzero coefficients on a frame of monomials
(the first unimodular triangle in monomial order, else two adjacent
points of a segment, else the single point) to 1, so frame coefficients
range over {0, 1} and the other rows over F_q.  A task (mask, lead, pin)
sets the frame rows of the mask's bits to 1; mask 0 leaves the frame
zero and makes row `lead` among the others the first nonzero one, fixed
to 1.  When rows remain beyond the suffix table the first of them is
pinned, one pin per Frobenius orbit weighted by the orbit size.  The
rows between are walked by an odometer, every one over all of F_q.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from toricode.code import _build_suffix_table, _log_rows, _suffix_depth


def frame(monomials, dim):
    """Positions of the frame monomials, the first choice in monomial order."""
    if dim == 2:
        for trio in itertools.combinations(range(len(monomials)), 3):
            (a0, b0), (a1, b1), (a2, b2) = (monomials[i] for i in trio)
            if abs((a1 - a0) * (b2 - b0) - (a2 - a0) * (b1 - b0)) == 1:
                return trio
    if dim >= 1:
        for pair in itertools.combinations(range(len(monomials)), 2):
            (a0, b0), (a1, b1) = (monomials[i] for i in pair)
            if math.gcd(a1 - a0, b1 - b0) == 1:
                return pair
    return (0,)


def pin_orbits(field):
    """Size of each Frobenius orbit at the least element code in it, 0 at the others."""
    sizes = [0] * field.q
    seen = set()
    for a in range(field.q):
        if a in seen:
            continue
        b, size = field.pow(a, field.p), 1
        while b != a:
            seen.add(b)
            b, size = field.pow(b, field.p), size + 1
        sizes[a] = size
    return tuple(sizes)


def task_list(orbits, f, rest, depth):
    """(mask, lead, pin) slices whose representatives, weighted, cover every nonzero message."""
    pins = [v for v, size in enumerate(orbits) if size]
    tasks = []
    slices = [(mask, None, rest) for mask in range(1, 1 << f)]
    slices += [(0, h, rest - 1 - h) for h in range(rest)]
    for mask, lead, free in slices:
        if free > depth:
            tasks.extend((mask, lead, v) for v in pins)
        else:
            tasks.append((mask, lead, None))
    return tuple(tasks)


def odometer(q, width):
    """Increments of a counter through all q^width tuples, as (position, old, new) changes."""
    digits = [0] * width
    for _ in range(q**width - 1):
        changes = []
        i = 0
        while digits[i] == q - 1:
            changes.append((i, q - 1, 0))
            digits[i] = 0
            i += 1
        changes.append((i, digits[i], digits[i] + 1))
        digits[i] += 1
        yield changes


@dataclass(frozen=True)
class FramePlan:
    q: int
    frame: tuple
    rest: tuple
    depth: int
    orbits: tuple
    tasks: tuple

    def rows(self, task) -> int:
        """Representatives the task scans."""
        _, lead, pin = task
        free = len(self.rest) - (0 if lead is None else lead + 1)
        return self.q ** (free - (pin is not None))

    def weight(self, task) -> int:
        """Normalized messages each representative of the task stands for."""
        mask, _, pin = task
        w = (self.q - 1) ** (bin(mask).count("1") - 1) if mask else 1
        return w if pin is None else w * self.orbits[pin]

    @property
    def representatives(self) -> int:
        return sum(self.rows(t) for t in self.tasks)


def frame_plan(code) -> FramePlan:
    fr = frame(code.monomials, code.polygon.dim)
    rest = tuple(r for r in range(code.k) if r not in fr)
    depth = _suffix_depth(code.field, len(rest), code.n)
    orbits = pin_orbits(code.field)
    return FramePlan(code.field.q, fr, rest, depth, orbits,
                     task_list(orbits, len(fr), len(rest), depth))


def checkpoint_key(code, plan, want_hist) -> str:
    """The key the frame plan's checkpoints were written under."""
    payload = json.dumps(
        {
            "q": code.field.q,
            "modulus": list(code.field.modulus),
            "vertices": [list(v) for v in code.polygon.vertices],
            "mode": "hist" if want_hist else "min",
            "frame": list(plan.frame),
            "depth": plan.depth,
            "tasks": [list(t) for t in plan.tasks],
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def task_words(code, plan, task):
    """Codewords of the task's fixed rows plus every coefficient choice on its walked rows."""
    field, f = code.field, len(plan.frame)
    order = plan.frame + plan.rest
    mask, lead, pin = task
    fixed = [(order[b], 1) for b in range(f) if mask >> b & 1]
    start = f
    if lead is not None:
        fixed.append((order[start + lead], 1))
        start += lead + 1
    walked = [order[i] for i in range(start, code.k - min(code.k - start, plan.depth))]
    if pin is not None:
        r = walked.pop(0)
        if pin:
            fixed.append((r, pin))
    word = np.zeros(code.n, dtype=field.dtype)
    for r, c in fixed:
        word = field.add_np(word, field.scale_np(code.generator[r], c))
    yield word
    for changes in odometer(field.q, len(walked)):
        for i, old, new in changes:
            word = field.add_np(word, field.scale_np(code.generator[walked[i]], field.sub(new, old)))
        yield word


def search(code):
    """(zero-count histogram, max zeros, normalized messages, representatives) by the frame plan.

    The histogram counts normalized messages, (q^k - 1)/(q - 1) in all.
    """
    plan = frame_plan(code)
    order = list(plan.frame + plan.rest)
    logs = _log_rows(code.monomials, code.field.q - 1)
    suffix = _build_suffix_table(code.field, logs[order], plan.depth)
    n = code.n
    hist, best, scanned = np.zeros(n + 1, dtype=np.int64), 0, 0
    for task in plan.tasks:
        _, lead, _ = task
        free = len(plan.rest) - (0 if lead is None else lead + 1)
        table = suffix[:, : plan.q ** min(free, plan.depth)]
        w = plan.weight(task)
        for word in task_words(code, plan, task):
            # the table's columns are closed under negation, so matches of
            # the word count the zeros of word + column, permuted
            counts = np.count_nonzero(table == word[:, None], axis=0)
            hist += np.bincount(counts, minlength=n + 1) * w
            best = max(best, int(counts.max()))
            scanned += table.shape[1] * w
    return hist, best, scanned, plan.representatives
