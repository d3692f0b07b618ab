"""Toric evaluation codes and their exact minimum distance.

A code is built by evaluating the monomials of a lattice polygon at
every point of the torus (F_q*)^2.  The distance search scans one
message per orbit of the scalars and the torus: (s, lambda, mu) sends
the coefficient c_(a,b) to s * lambda^a * mu^b * c_(a,b), which only
permutes and scales codeword coordinates, since f(lambda x, mu y) is f
at other torus points.  On a frame of monomials where this action is
onto (a unimodular triangle, two adjacent points of a segment, or the
single point) nonzero coefficients are moved to 1, so frame
coefficients range over {0, 1} and the rest over F_q; with a zero
frame the rest is normalized to leading coordinate 1.  Each
representative is weighted by the number of messages it stands for,
and work is split into tasks by frame pattern and high-order digits.

Frobenius, sigma: c -> c^p on the coefficients, also keeps weights:
f^sigma(x^p, y^p) = f(x, y)^p, and (x, y) -> (x^p, y^p) permutes the
torus, so f^sigma vanishes at as many torus points as f.  sigma fixes
the frame's coefficients 0 and 1 and the leading 1, and maps F_q onto
itself on each other row, so it maps the slice of messages whose
pinned coefficient is a one-to-one onto the slice pinned to a^p, weight
for weight.  Of each pin orbit {a, a^p, a^p^2, ...} only the least
element code is scanned, weighted by the orbit size; this is exact for
the maximum zero count and for the histogram.  In a prime field every
orbit is a single element and the task list is the full one.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
import multiprocessing
import os
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation, PolygonTooLargeForField, SupportOutsidePolygon, TooLarge
from .field import FieldSpec
from .polygon import LatticePolygon

# suffix tables hold one precomputed codeword per column; these caps keep
# a table under ~32 MB and keep odd-characteristic lookups cheap
_SUFFIX_ROWS_CHAR2 = 1 << 17
_SUFFIX_ROWS_ODD = 1 << 15
_SUFFIX_BYTES = 32 << 20

_GENERATOR_ENTRY_CAP = 1 << 26


class SectionPoly:
    """A polynomial section: exponent vectors mapped to nonzero coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        clean = {}
        for (a, b), c in dict(terms).items():
            c = int(c)
            if c:
                clean[(int(a), int(b))] = c
        self.terms = clean

    def shift(self, dx: int, dy: int) -> "SectionPoly":
        """Multiply by the monomial x^dx y^dy."""
        return SectionPoly({(a + dx, b + dy): c for (a, b), c in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, SectionPoly) and self.terms == other.terms

    def __repr__(self):
        inner = ", ".join(f"{m}: {c}" for m, c in sorted(self.terms.items()))
        return f"SectionPoly({{{inner}}})"


def multiply_sections(a: SectionPoly, b: SectionPoly, field: FieldSpec) -> SectionPoly:
    out: dict = {}
    for (ax, ay), ac in a.terms.items():
        for (bx, by), bc in b.terms.items():
            m = (ax + bx, ay + by)
            out[m] = field.add(out.get(m, 0), field.mul(ac, bc))
    return SectionPoly(out)


def _log_grid(qm: int, a: int, b: int, c_log: int = 0) -> np.ndarray:
    """Discrete logs of g^c_log x^a y^b at the torus points, unreduced.

    Entry (i, j), for the point (g^i, g^j), is the sum of a*i mod q-1
    and b*j + c_log mod q-1, so it lies in [0, 2q-4] and the doubled exp
    table reads it directly.  Exponents may be negative or exceed q-2.
    """
    e = np.arange(qm, dtype=np.int64)
    return ((e * a) % qm)[:, None] + ((e * b + c_log) % qm)[None, :]


def _log_rows(monomials, qm: int) -> np.ndarray:
    """Each monomial's discrete logs at the torus points, in _log_grid's order, mod q-1."""
    logs = np.empty((len(monomials), qm * qm), dtype=np.int64)
    for r, (a, b) in enumerate(monomials):
        logs[r] = _log_grid(qm, a, b).ravel()
    np.subtract(logs, qm, out=logs, where=logs >= qm)
    return logs


def evaluate_section(s: SectionPoly, field: FieldSpec) -> np.ndarray:
    """Values of the section at all torus points, in _log_grid's order.

    Index i*(q-1) + j holds the value at (g^i, g^j).
    """
    qm = field.q - 1
    acc = np.zeros(qm * qm, dtype=field.dtype)
    for (a, b), c in sorted(s.terms.items()):
        acc = field.add_np(acc, field.exp_np[_log_grid(qm, a, b, field.log_table[c])].ravel())
    return acc


def count_torus_zeros(s: SectionPoly, field: FieldSpec) -> int:
    """Number of torus points where the section vanishes."""
    return int(np.count_nonzero(evaluate_section(s, field) == 0))


@dataclass(frozen=True)
class DistanceResult:
    """Outcome of a distance search.

    weight is exact when the enumeration finished; under a deadline it
    is the best upper bound seen so far.  enumerated counts the
    normalized messages (leading coordinate 1) covered, representatives
    the orbit representatives actually scanned.
    """

    weight: int
    exact: bool
    enumerated: int
    representatives: int = dataclasses.field(default=0, compare=False)


class ToricCode:
    """Evaluation code of a polygon's monomials on the torus (F_q*)^2.

    Immutable after construction.  The polygon is stored translated
    into [0, q-2]^2 with the applied translation recorded, monomials
    are its lattice points in lexicographic order, and generator row r
    holds the values of monomial r at the (q-1)^2 torus points.
    """

    def __init__(self, polygon, field, translation, monomials, generator, log_generator):
        self.polygon = polygon
        self.field = field
        self.translation = translation
        self.monomials = monomials
        self.generator = generator
        self.log_generator = log_generator
        self.n = generator.shape[1]
        self.k = generator.shape[0]

    def evaluate_message(self, message) -> np.ndarray:
        """Codeword for a length-k coefficient vector over the monomials."""
        if len(message) != self.k:
            raise ValueError(f"message has {len(message)} coefficients, the code k = {self.k}")
        word = np.zeros(self.n, dtype=self.field.dtype)
        for r, c in enumerate(message):
            if c:
                word = self.field.add_np(word, self.field.scale_np(self.generator[r], c))
        return word

    def __repr__(self):
        return (
            f"ToricCode(n={self.n}, k={self.k}, q={self.field.q}, "
            f"polygon={list(self.polygon.vertices)})"
        )


def build_code(polygon: LatticePolygon, field: FieldSpec) -> ToricCode:
    """Evaluate the polygon's monomials on the torus of the field.

    The polygon may sit anywhere in the plane; it is translated into
    [0, q-2]^2 first so all monomial exponent pairs are distinct mod
    q-1.  Distinct pairs are distinct characters of the torus group,
    hence linearly independent, so the generator matrix has rank #(P).
    """
    q = field.q
    shift = polygon.fits_in_box(q)
    if shift is None:
        w, h = polygon.width_height()
        raise PolygonTooLargeForField(
            f"polygon spans {w}x{h}, exceeding the {q - 2}x{q - 2} box for q={q}"
        )
    placed = polygon.translate(*shift)
    monomials = tuple(placed.lattice_points())
    k, qm = len(monomials), q - 1
    n = qm * qm
    if k * n > _GENERATOR_ENTRY_CAP:
        raise TooLarge(f"generator matrix with {k}x{n} entries is too large")
    log_generator = _log_rows(monomials, qm)
    generator = field.exp_np[log_generator]
    if len({(m1 % qm, m2 % qm) for m1, m2 in monomials}) != k:
        raise InvariantViolation("monomial exponents collide mod q-1; the rows are dependent")
    return ToricCode(placed, field, shift, monomials, generator, log_generator)


def weight_of_section(s: SectionPoly, code: ToricCode) -> int:
    """Hamming weight of the codeword a section evaluates to."""
    for pt in s.terms:
        if not code.polygon.contains(pt):
            raise SupportOutsidePolygon(f"monomial {pt} lies outside the polygon")
    values = evaluate_section(s, code.field)
    zeros = int(np.count_nonzero(values == 0))
    # same codeword through the generator matrix; the two must agree
    message = [s.terms.get(m, 0) for m in code.monomials]
    if not np.array_equal(code.evaluate_message(message), values):
        raise InvariantViolation("section and generator matrix give different codewords")
    return code.n - zeros


# -- orbit-reduced distance search --------------------------------------------


def _frame(monomials, dim):
    """Positions of the frame monomials, the first choice in monomial order.

    A unimodular triangle on a polygon, two lattice-adjacent points on a
    segment, the single point otherwise.  The scalar g^u and the torus
    point (g^s, g^t) add u + s*a + t*b to the discrete log of the
    coefficient of monomial (a, b).  On these frames the map from
    (u, s, t) to the frame's log shifts is onto mod q-1, so any nonzero
    frame coefficients can be moved to 1.
    """
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


def _suffix_rows_cap(field, n):
    cap = _SUFFIX_ROWS_CHAR2 if field.p == 2 else _SUFFIX_ROWS_ODD
    while cap > 1 and cap * n > _SUFFIX_BYTES:
        cap >>= 1
    return cap


def _suffix_depth(field, rows, n):
    """Largest number of trailing rows whose q^depth codewords fit the table."""
    q = field.q
    cap = _suffix_rows_cap(field, n)
    t = 0
    while t < rows and q ** (t + 1) <= cap:
        t += 1
    return t


def _build_suffix_table(field, log_generator, depth):
    """Codewords of all coefficient choices on the last `depth` rows, one per column.

    Column sum(v_j q^j) of the (n, q^depth) table holds the codeword with
    coefficient v_j on generator row k-1-j, so the columns run through
    the choices in lexicographic order, the last row fastest; column
    prefixes serve smaller depths.  The distance search builds it on its
    trailing rows, and the section search in bounds on the rows between
    a lead and the last row.
    """
    q = field.q
    k, n = log_generator.shape
    table = np.zeros((n, 1), dtype=field.dtype)
    for j in range(depth):
        row = k - 1 - j
        blocks = [table]
        for v in range(1, q):
            scaled = field.exp_np[log_generator[row] + field.log_table[v]]
            blocks.append(field.add_np(table, scaled[:, None]))
        table = np.concatenate(blocks, axis=1)
    return table


def _pin_orbits(field):
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


def _task_list(orbits, f, rest, depth):
    """(mask, lead, pin) slices whose representatives, weighted, cover every nonzero message.

    mask > 0 sets coefficient 1 on the frame positions of its bits and 0
    on the others, leaving all `rest` other rows over F_q.  mask == 0
    leaves the frame zero and normalizes the other rows instead: row
    `lead` among them is the first nonzero one, fixed to 1.  When rows
    remain free beyond the suffix table, pin gives the coefficient of
    the first of them, so workers partition by high-order digits; a pin
    runs over the codes v with orbits[v] > 0, one per Frobenius orbit.
    """
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


def _odometer(q, width):
    """Increments of a counter through all q^width tuples of element codes.

    Each item lists the (position, old, new) digit changes of one
    increment; digit 0 runs fastest through 0, 1, ..., q-1 and carries
    like a counter, so every digit takes every value of F_q.
    """
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
class SearchPlan:
    """How the distance search covers the q^k - 1 nonzero messages.

    The frame coefficients range over {0, 1} and the other rows over
    F_q.  A task whose mask has s bits scans representatives that each
    stand for (q-1)^s messages, that is (q-1)^(s-1) normalized ones; the
    mask-0 tasks scan normalized messages directly.  A pinned task also
    stands for the other pins of its Frobenius orbit: orbits[v] is the
    size of the orbit whose least element code is v, 0 for a code that
    is not scanned as a pin.
    """

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


def search_plan(code: ToricCode) -> SearchPlan:
    """The frame, suffix depth and task list the distance search uses."""
    frame = _frame(code.monomials, code.polygon.dim)
    rest = tuple(r for r in range(code.k) if r not in frame)
    depth = _suffix_depth(code.field, len(rest), code.n)
    orbits = _pin_orbits(code.field)
    tasks = _task_list(orbits, len(frame), len(rest), depth)
    return SearchPlan(code.field.q, frame, rest, depth, orbits, tasks)


class _SearchContext:
    """Per-process state for distance tasks.

    log_rows holds the generator rows in search order: the f frame rows
    first, then the other rows, the last `depth` of which make up the
    suffix table.
    """

    def __init__(self, field, log_rows, f, depth):
        self.field = field
        self.log_rows = log_rows
        self.k, self.n = log_rows.shape
        self.f = f
        self.depth = depth
        self.suffix = _build_suffix_table(self.field, log_rows, depth)
        self.match_buf = np.empty(self.suffix.size, dtype=bool)
        # zero counts are at most n; the narrowest dtype keeps the column sum cheap
        self.count_dtype = np.min_scalar_type(self.n)

    def row(self, r, c):
        """c times generator row r, for nonzero c."""
        return self.field.exp_np[self.log_rows[r] + self.field.log_table[c]]

    def layout(self, task):
        """Fixed (row, coefficient) pairs, walked rows and table depth of a task."""
        mask, lead, pin = task
        fixed = [(b, 1) for b in range(self.f) if mask >> b & 1]
        start = self.f
        if lead is not None:
            fixed.append((start + lead, 1))
            start += lead + 1
        depth = min(self.k - start, self.depth)
        walked = list(range(start, self.k - depth))
        if pin is not None:
            r = walked.pop(0)
            if pin:
                fixed.append((r, pin))
        return fixed, walked, depth

    def bases(self, fixed, walked):
        """Codewords of the fixed rows plus every coefficient choice on the walked rows.

        Each step adds (new - old) times the changed rows, so every
        element of F_q is reached on every walked row, prime or not.
        """
        field = self.field
        base = np.zeros(self.n, dtype=field.dtype)
        for r, c in fixed:
            base = field.add_np(base, self.row(r, c))
        yield base
        for changes in _odometer(field.q, len(walked)):
            for i, old, new in changes:
                base = field.add_np(base, self.row(walked[i], field.sub(new, old)))
            yield base

    def run_task(self, task, deadline, want_hist):
        """Scan the representatives of one task.

        Returns (max zeros seen or zero-count histogram, representatives
        scanned, completed flag).
        """
        fixed, walked, depth = self.layout(task)
        width = self.field.q**depth
        table = self.suffix[:, :width]
        # contiguous, so each zero count is a sum down one column
        buf = self.match_buf[: self.n * width].reshape(self.n, width)
        counts_u8 = buf.view(np.uint8)
        hist = np.zeros(self.n + 1, dtype=np.int64) if want_hist else None
        best = 0
        scanned = 0
        for base in self.bases(fixed, walked):
            # base - column vanishes exactly where the column equals base.  The
            # columns run over every choice on the table's rows, a set negation
            # maps onto itself, so these are the zero counts of base + column,
            # permuted; the maximum and the histogram do not see the order.
            np.equal(table, base[:, None], out=buf)
            counts = counts_u8.sum(axis=0, dtype=self.count_dtype)
            scanned += width
            if want_hist:
                hist += np.bincount(counts, minlength=self.n + 1)
            else:
                best = max(best, int(counts.max()))
            if deadline is not None and time.monotonic() > deadline:
                return (hist if want_hist else best), scanned, False
        return (hist if want_hist else best), scanned, True


_WORKER_CTX: _SearchContext | None = None


def _worker_init(*ctx_args):
    global _WORKER_CTX
    _WORKER_CTX = _SearchContext(*ctx_args)


def _worker_run(args):
    task, deadline, want_hist = args
    result, scanned, completed = _WORKER_CTX.run_task(task, deadline, want_hist)
    return task, result, scanned, completed


def _checkpoint_key(code: ToricCode, plan: SearchPlan, want_hist: bool) -> str:
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


def _is_count(x) -> bool:
    return type(x) is int and x >= 0


def _load_checkpoint(path, key, plan, n, want_hist):
    """Saved state of the same search, or None to start fresh.

    A file that cannot be read, belongs to another search or does not
    hold well-typed state for this plan's tasks is ignored.
    """
    if not path or not os.path.exists(path):
        return None
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError):
        return None
    if not isinstance(data, dict) or data.get("key") != key:
        return None
    done, scanned = data.get("done"), data.get("scanned")
    if not isinstance(done, list) or not _is_count(scanned):
        return None
    tasks = set(plan.tasks)
    state = {"done": set()}
    for entry in done:
        if not isinstance(entry, list) or not all(x is None or type(x) is int for x in entry):
            return None
        task = tuple(entry)
        if task not in tasks:
            return None
        state["done"].add(task)
    # the count must be what the completed tasks cover
    if scanned != sum(plan.rows(t) * plan.weight(t) for t in state["done"]):
        return None
    state["scanned"] = scanned
    if want_hist:
        hist = data.get("hist")
        if not isinstance(hist, list) or len(hist) != n + 1 or not all(map(_is_count, hist)):
            return None
        state["hist"] = np.array(hist, dtype=np.int64)
    else:
        best = data.get("best")
        if not _is_count(best) or best > n:
            return None
        state["best"] = best
    return state


def _check_checkpoint_path(path):
    """Refuse a checkpoint that could never be written, before any task runs."""
    if path and os.path.isdir(path):
        raise ValueError(f"checkpoint {path} is a directory")
    if path and not os.path.isdir(os.path.dirname(os.path.abspath(path))):
        raise ValueError(f"checkpoint {path}: no such directory")


def _save_checkpoint(path, key, done, scanned, result, want_hist):
    data = {
        "key": key,
        "done": sorted((list(t) for t in done), key=lambda t: [-1 if x is None else x for x in t]),
        "scanned": scanned,
    }
    if want_hist:
        data["hist"] = [int(x) for x in result]
    else:
        data["best"] = result
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)) or ".")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(data, fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@dataclass
class _Outcome:
    result: object  # max zero count, or the zero-count histogram in normalized messages
    scanned: int  # normalized messages covered
    representatives: int
    completed: bool


def _enumerate(code, threads, deadline_s, checkpoint, want_hist):
    n = code.n
    _check_checkpoint_path(checkpoint)
    plan = search_plan(code)
    key = _checkpoint_key(code, plan, want_hist)
    state = _load_checkpoint(checkpoint, key, plan, n, want_hist) or {
        "done": set(), "scanned": 0, "best": 0, "hist": np.zeros(n + 1, dtype=np.int64)
    }
    done = state["done"]
    out = _Outcome(
        state["hist"] if want_hist else state["best"],
        state["scanned"],
        sum(plan.rows(t) for t in done),
        True,
    )
    # what the completed tasks cover; a stopped task's rows are rescanned on resume
    saved = out.scanned
    pending = [t for t in plan.tasks if t not in done]
    deadline = time.monotonic() + deadline_s if deadline_s is not None else None

    def absorb(task, result, rows, completed):
        nonlocal saved
        w = plan.weight(task)
        out.scanned += rows * w
        out.representatives += rows
        if want_hist:
            out.result = out.result + result * w
        else:
            out.result = max(out.result, result)
        if completed:
            done.add(task)
            saved += rows * w
            if checkpoint:
                _save_checkpoint(checkpoint, key, done, saved, out.result, want_hist)
        else:
            out.completed = False

    log_rows = code.log_generator[list(plan.frame + plan.rest)]
    ctx_args = (code.field, log_rows, len(plan.frame), plan.depth)
    workers = min(threads, len(pending), os.cpu_count() or 1)
    if workers <= 1:
        ctx = _SearchContext(*ctx_args)
        for task in pending:
            if deadline is not None and time.monotonic() > deadline:
                out.completed = False
                break
            absorb(task, *ctx.run_task(task, deadline, want_hist))
    else:
        with multiprocessing.Pool(workers, _worker_init, ctx_args) as pool:
            jobs = [(t, deadline, want_hist) for t in pending]
            for task, result, rows, ok in pool.imap_unordered(_worker_run, jobs):
                absorb(task, result, rows, ok)
                if deadline is not None and time.monotonic() > deadline:
                    out.completed = False
                    pool.terminate()
                    break
    if out.completed:
        out.completed = all(t in done for t in plan.tasks)
    return out


def _check_coverage(scanned, q, k):
    if scanned != (q**k - 1) // (q - 1):
        raise InvariantViolation(
            f"search covered {scanned} normalized messages, expected (q^k - 1)/(q - 1) "
            f"for q = {q}, k = {k}"
        )


def min_distance_exact(
    code: ToricCode,
    threads: int = 1,
    deadline: float | None = None,
    checkpoint: str | None = None,
) -> DistanceResult:
    """Minimum Hamming weight over all nonzero codewords.

    One representative per orbit of the scalars and the torus is
    scanned (see search_plan); `enumerated` counts the normalized
    messages they cover, (q^k - 1)/(q - 1) when the search finished.
    When the deadline cuts the run short the result carries exact=False
    and the smallest weight seen, which is still a valid upper bound.
    """
    out = _enumerate(code, threads, deadline, checkpoint, want_hist=False)
    result = DistanceResult(code.n - out.result, out.completed, out.scanned, out.representatives)
    if out.completed:
        _check_coverage(out.scanned, code.field.q, code.k)
    return result


def weight_distribution(code: ToricCode, threads: int = 1) -> dict[int, int]:
    """Weight enumerator as a map weight -> number of codewords."""
    q, k, n = code.field.q, code.k, code.n
    if q**k > 10**8:
        raise TooLarge(f"q^k = {q}^{k} codewords exceed the enumeration guard")
    out = _enumerate(code, threads, None, None, want_hist=True)
    _check_coverage(out.scanned, q, k)
    dist = {0: 1}
    for zeros, cnt in enumerate(out.result):
        if cnt:
            dist[n - zeros] = dist.get(n - zeros, 0) + int(cnt) * (q - 1)
    if sum(dist.values()) != q**k:
        raise InvariantViolation(f"weight distribution sums to {sum(dist.values())}, not q^k")
    return dict(sorted(dist.items()))
