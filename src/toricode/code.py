"""Toric evaluation codes and their exact minimum distance.

A code is built by evaluating the monomials of a lattice polygon at
every point of the torus (F_q*)^2.  The distance search scans one
message per orbit of the scalars and the torus: the scalar g^u and the
torus point (g^s, g^t) add u + s*a + t*b to the discrete log of the
coefficient of monomial (a, b).  This only permutes and scales codeword
coordinates, since f(lambda x, mu y) is f at other torus points.

Pivot normal form.  Read a nonzero message's rows in monomial order.
Its first nonzero row is the pivot m0.  After m0, the next nonzero row
m = (a, b) with gcd(a - a0, b - b0, q - 1) = 1 is the pivot m1; after
m0 and m1, the next nonzero row with gcd(det(m1 - m0, m - m0), q - 1) = 1
is the pivot m2.  The pivots depend only on the support, which the
group keeps.  A message is normalized when it is 1 at its pivots; its
other rows range over F_q.

Why a normalized message with P pivots stands for (q-1)^P messages.
The group elements that keep m0's coefficient add
s*(a - a0) + t*(b - b0) to row m's log, which is onto Z/(q-1) exactly
when gcd(a - a0, b - b0, q - 1) = 1.  Those that also keep m1's are,
mod q - 1, the multiples of (b1 - b0, a0 - a1), because m1 - m0 is
primitive mod every prime dividing q - 1; they add multiples of
det(m1 - m0, m - m0), onto exactly when that is prime to q - 1.  So the
gcd conditions are exactly when the group left after the earlier
pivots is onto a row, and the group is onto (F_q*)^P at the pivots.
Fix for each v in (F_q*)^P one element g_v that moves the value 1 at
every pivot to v.  Then (v, normalized c) -> g_v(c) is a bijection onto
the messages with these pivots: v is read off the image at the pivots,
and g_v^-1 takes any such message back to one that is 1 at its pivots,
with the same support.  It keeps weights, so each normalized message
counts (q-1)^(P-1) messages of leading coefficient 1, the normalized
messages that `enumerated` reports.

Frobenius, sigma: c -> c^p on every coefficient, also keeps weights:
f^sigma(x^p, y^p) = f(x, y)^p, and (x, y) -> (x^p, y^p) permutes the
torus.  sigma fixes 0 and 1, so it keeps supports and pivots and maps
the normalized messages onto themselves.  A message splits into the
leading vector on the first rows and a suffix on the rows of a table
that holds the codeword of every suffix choice, one per column.  sigma
maps the normalized messages with leading vector L one-to-one onto
those with sigma(L), weight for weight, so of each orbit
{L, sigma(L), ...} only the lexicographically least vector is scanned,
weighted by the orbit size.  In a prime field every orbit is one
vector.  A leading vector that holds all three pivots scans the whole
table; one with fewer scans the table up to its last normalized
suffix, every column of which is a message for the maximum, and the
histogram picks the normalized columns and weights each by its pivots.
"""

from __future__ import annotations

import dataclasses
import hashlib
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

# the distance search splits into at most this many tasks
_TASK_CAP = 64


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
    """Each monomial's discrete logs at the torus points, in _log_grid's order, mod q-1.

    int32 holds them: a log is below q-1 <= 65535, and adding another log
    to it, as the scaled rows do, stays below 2(q-1).
    """
    exps = np.array(monomials, dtype=np.int64).reshape(-1, 2)
    # a*i and b*j mod q-1 per row, each a (k, q-1) table
    ai, bj = ((exps.T[:, :, None] * np.arange(qm)) % qm).astype(np.int32)
    logs = (ai[:, :, None] + bj[:, None, :]).reshape(len(exps), qm * qm)
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
    # take casts the int32 logs to intp faster than fancy indexing does
    generator = np.take(field.exp_np, log_generator)
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


@dataclass(frozen=True)
class SearchPlan:
    """How the distance search covers the nonzero messages in pivot normal form.

    The first `lead` rows form the leading vector, walked one vector at
    a time; the last `depth` rows are the suffix table's.  frobenius[i]
    maps each element code c to c^(p^(i+1)).  A task is a normalized
    coefficient prefix of the leading rows, least in its Frobenius
    orbit; it stands for every leading vector that extends it.
    """

    q: int
    monomials: tuple
    depth: int
    frobenius: tuple
    tasks: tuple = ()
    # the pivot rule by (pivots, row), layouts and columns by pivots, filled on first use
    _rule: dict = dataclasses.field(default_factory=dict, init=False, compare=False, repr=False)
    _layouts: dict = dataclasses.field(default_factory=dict, init=False, compare=False, repr=False)
    _columns: dict = dataclasses.field(default_factory=dict, init=False, compare=False, repr=False)

    @property
    def lead(self) -> int:
        return len(self.monomials) - self.depth

    def takes_pivot(self, pivots, r):
        """Whether a nonzero coefficient on row r is the next pivot after `pivots`.

        The group elements that keep the pivots' coefficients move every
        nonzero coefficient of row r to 1 exactly when this gcd is 1
        (see the module docstring).
        """
        key = (pivots, r)
        if key not in self._rule:
            if len(pivots) == 3:
                g = 0
            elif not pivots:
                g = 1
            else:
                (a0, b0), (a, b) = self.monomials[pivots[0]], self.monomials[r]
                if len(pivots) == 1:
                    g = math.gcd(a - a0, b - b0, self.q - 1)
                else:
                    a1, b1 = self.monomials[pivots[1]]
                    g = math.gcd((a1 - a0) * (b - b0) - (b1 - b0) * (a - a0), self.q - 1)
            self._rule[key] = g == 1
        return self._rule[key]

    def choices(self, pivots, r):
        """(coefficient, pivots after it) for each value row r takes in normal form."""
        if self.takes_pivot(pivots, r):
            return ((0, pivots), (1, pivots + (r,)))
        return tuple((c, pivots) for c in range(self.q))

    def extend(self, coeffs, pivots, tied, stop):
        """Normalized extensions of a coefficient prefix to `stop` rows, least in their orbits.

        Yields (coefficients, pivots, tied), tied holding the i whose
        frobenius[i] fixes the vector.  A vector is kept when none of its
        images is lexicographically smaller; the first coordinate that
        differs decides, so a prefix that loses prunes its extensions.
        """
        # depth first with an explicit stack, smallest coefficient first, so
        # vectors come in lexicographic order however many rows they have
        stack = [(coeffs, pivots, tied)]
        while stack:
            coeffs, pivots, tied = stack.pop()
            r = len(coeffs)
            if r == stop:
                yield coeffs, pivots, tied
                continue
            longer = []
            for c, after in self.choices(pivots, r):
                still = []
                for i in tied:
                    image = self.frobenius[i][c]
                    if image < c:
                        break
                    if image == c:
                        still.append(i)
                else:
                    longer.append((coeffs + (c,), after, tuple(still)))
            stack.extend(reversed(longer))

    def start(self, prefix):
        """Pivots and Frobenius stabilizer of a task prefix."""
        pivots, tied = (), tuple(range(len(self.frobenius)))
        for r, c in enumerate(prefix):
            if c and self.takes_pivot(pivots, r):
                pivots += (r,)
            tied = tuple(i for i in tied if self.frobenius[i][c] == c)
        return pivots, tied

    def layout(self, pivots):
        """Table prefix width and normalized suffix counts after a leading vector with these pivots.

        Returns (width, groups), one group (weight, final pivot count,
        normalized suffixes) per count that occurs; weight is
        (q-1)^(count - 1), the normalized messages each stands for.  The
        last normalized suffix in table order takes the largest value
        each row allows, so it fixes the width.  The zero message (no
        pivot at all) is in no group, and with no group the width is 0.
        """
        if pivots not in self._layouts:
            q, width, piv = self.q, 0, pivots
            for r in range(self.lead, len(self.monomials)):
                if self.takes_pivot(piv, r):
                    width, piv = width * q + 1, piv + (r,)
                else:
                    width = width * q + q - 1
            tally = [0, 0, 0, 0]
            for piv, count in self._grow(pivots, 1, lambda c: (c, c), lambda c: q * c).items():
                tally[len(piv)] += count
            groups = tuple(((q - 1) ** (p - 1), p, tally[p]) for p in (1, 2, 3) if tally[p])
            self._layouts[pivots] = (width + 1 if groups else 0), groups
        return self._layouts[pivots]

    def _grow(self, pivots, start, pivot_row, free_row):
        """Normalized suffixes after `pivots`, grown row by row and kept by pivot set.

        pivot_row maps a pivot set's value to its values with 0 and with
        1 on a row that would take the next pivot, free_row to its value
        with every element on any other row.  No two pivot sets grow into
        one, since each new pivot is the row just grown.
        """
        grown = {pivots: start}
        for r in range(self.lead, len(self.monomials)):
            before, grown = grown, {}
            for piv, value in before.items():
                if self.takes_pivot(piv, r):
                    grown[piv], grown[piv + (r,)] = pivot_row(value)
                else:
                    grown[piv] = free_row(value)
        return grown

    def columns(self, pivots):
        """Table columns of the normalized suffixes after `pivots`, by final pivot count."""
        if pivots not in self._columns:
            q, by_count = self.q, {}
            span = np.arange(q)
            grown = self._grow(
                pivots,
                np.zeros(1, dtype=np.intp),
                lambda cols: (cols * q, cols * q + 1),
                lambda cols: (cols[:, None] * q + span).ravel(),
            )
            for piv, cols in grown.items():
                by_count.setdefault(len(piv), []).append(cols)
            self._columns[pivots] = {p: np.concatenate(c) for p, c in by_count.items()}
        return self._columns[pivots]

    def steps(self, task):
        """(leading coefficients, pivots, Frobenius orbit size, layout) of each vector of the task."""
        e = len(self.frobenius) + 1
        for coeffs, pivots, tied in self.extend(task, *self.start(task), self.lead):
            yield coeffs, pivots, e // (1 + len(tied)), self.layout(pivots)

    def count(self, task):
        """(representatives scanned, normalized messages covered) of one task."""
        reps = covered = 0
        for _, _, orbit, (_, groups) in self.steps(task):
            for weight, _, size in groups:
                reps += size
                covered += size * weight * orbit
        return reps, covered


def search_plan(code: ToricCode) -> SearchPlan:
    """The suffix depth, Frobenius maps and task prefixes the distance search uses.

    The table takes the trailing rows beyond the first dim + 1, as many
    as fit, so most leading vectors already hold every pivot.  Tasks are
    the normalized prefixes, one per Frobenius orbit, of the longest
    length that leaves each task two leading rows or more and has at
    most _TASK_CAP of them: a task then scans several leading vectors,
    a whole table each, and its fixed cost does not show.
    """
    field = code.field
    depth = _suffix_depth(field, code.k - code.polygon.dim - 1, code.n)
    logs = field.log_np[1:]
    frobenius = tuple(
        (0, *field.exp_np[logs * field.p**i % (field.q - 1)].tolist()) for i in range(1, field.e)
    )
    plan = SearchPlan(field.q, code.monomials, depth, frobenius)
    level = [((), *plan.start(()))]
    for h in range(plan.lead - 2):
        longer = [v for prefix in level for v in plan.extend(*prefix, h + 1)]
        if len(longer) > _TASK_CAP:
            break
        level = longer
    return dataclasses.replace(plan, tasks=tuple(coeffs for coeffs, _, _ in level))


class _SearchContext:
    """Per-process state for distance tasks: the plan and its suffix table."""

    def __init__(self, field, log_rows, plan):
        self.field = field
        # widened once: numpy casts int32 indices to intp on every lookup
        self.log_rows = log_rows.astype(np.intp)
        self.plan = plan
        self.n = log_rows.shape[1]
        self.suffix = _build_suffix_table(field, self.log_rows, plan.depth)
        self.match_buf = np.empty(self.suffix.size, dtype=bool)
        self._coeffs, self._words = (), [np.zeros(self.n, dtype=field.dtype)]

    def row(self, r, c):
        """c times generator row r, for nonzero c."""
        return self.field.exp_np[self.log_rows[r] + self.field.log_table[c]]

    def zero_counts(self, base, width):
        """Zeros of base - column for each of the first `width` table columns.

        The match rows are summed in uint8, 255 rows at a time when n
        exceeds 255, and the blocks added in uint16.
        """
        n = self.n
        buf = self.match_buf[: n * width].reshape(n, width)
        np.equal(self.suffix[:, :width], base[:, None], out=buf)
        matches = buf.view(np.uint8)
        if n < 256:
            return matches.sum(axis=0, dtype=np.uint8)
        counts = np.zeros(width, dtype=np.uint16)
        for lo in range(0, n, 255):
            counts += matches[lo : lo + 255].sum(axis=0, dtype=np.uint8)
        return counts

    def words(self, task):
        """Each step of the task with minus the codeword of its leading coefficients.

        Negated, so that a table column matches it exactly where the
        message of leading coefficients and that column vanishes.
        words[r] is minus the codeword of the first r coefficients of
        the last vector, kept from one vector and task to the next, so
        only the rows after a shared prefix are added again.
        """
        field, words = self.field, self._words
        for step in self.plan.steps(task):
            coeffs, prev = step[0], self._coeffs
            same = 0
            while same < len(prev) and prev[same] == coeffs[same]:
                same += 1
            del words[same + 1 :]
            for r in range(same, len(coeffs)):
                c = coeffs[r]
                words.append(field.add_np(words[r], self.row(r, field.neg(c))) if c else words[r])
            self._coeffs = coeffs
            yield step, words[-1]

    def run_task(self, task, deadline, want_hist):
        """Scan the representatives of one task.

        Returns (max zeros seen or zero-count histogram in normalized
        messages, representatives scanned, normalized messages covered,
        completed flag).
        """
        n = self.n
        hist = np.zeros(n + 1, dtype=np.int64) if want_hist else None
        best = reps = covered = 0
        for (_, pivots, orbit, (width, groups)), word in self.words(task):
            if width:
                counts = self.zero_counts(word, width)
                cols = self.plan.columns(pivots) if want_hist and len(pivots) < 3 else None
                for weight, p, size in groups:
                    reps += size
                    covered += size * weight * orbit
                    if want_hist:
                        picked = counts if cols is None else counts[cols[p]]
                        hist += np.bincount(picked, minlength=n + 1) * (weight * orbit)
                if not want_hist:
                    # every column of the prefix is a message; with no pivot
                    # in the leading rows column 0 is the zero message
                    best = max(best, int(counts[0 if pivots else 1 :].max()))
            if deadline is not None and time.monotonic() > deadline:
                return (hist if want_hist else best), reps, covered, False
        return (hist if want_hist else best), reps, covered, True


_WORKER_CTX: _SearchContext | None = None


def _worker_init(*ctx_args):
    global _WORKER_CTX
    _WORKER_CTX = _SearchContext(*ctx_args)


def _worker_run(args):
    task, deadline, want_hist = args
    return (task, *_WORKER_CTX.run_task(task, deadline, want_hist))


def _checkpoint_key(code: ToricCode, plan: SearchPlan, want_hist: bool) -> str:
    payload = json.dumps(
        {
            "q": code.field.q,
            "modulus": list(code.field.modulus),
            "vertices": [list(v) for v in code.polygon.vertices],
            "mode": "hist" if want_hist else "min",
            "depth": plan.depth,
            "frobenius": len(plan.frobenius),
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
        if not isinstance(entry, list) or not all(type(x) is int for x in entry):
            return None
        task = tuple(entry)
        if task not in tasks:
            return None
        state["done"].add(task)
    # the count must be what the completed tasks cover
    counts = [plan.count(t) for t in state["done"]]
    if scanned != sum(covered for _, covered in counts):
        return None
    state["scanned"] = scanned
    state["representatives"] = sum(reps for reps, _ in counts)
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
        "done": sorted(list(t) for t in done),
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
        "done": set(), "scanned": 0, "representatives": 0, "best": 0,
        "hist": np.zeros(n + 1, dtype=np.int64),
    }
    done = state["done"]
    out = _Outcome(
        state["hist"] if want_hist else state["best"],
        state["scanned"],
        state["representatives"],
        True,
    )
    # what the completed tasks cover; a stopped task's rows are rescanned on resume
    saved = out.scanned
    pending = [t for t in plan.tasks if t not in done]
    deadline = time.monotonic() + deadline_s if deadline_s is not None else None

    def absorb(task, result, reps, covered, completed):
        nonlocal saved
        out.scanned += covered
        out.representatives += reps
        if want_hist:
            out.result = out.result + result
        else:
            out.result = max(out.result, result)
        if completed:
            done.add(task)
            saved += covered
            if checkpoint:
                _save_checkpoint(checkpoint, key, done, saved, out.result, want_hist)
        else:
            out.completed = False

    ctx_args = (code.field, code.log_generator, plan)
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
            for task, *outcome in pool.imap_unordered(_worker_run, jobs):
                absorb(task, *outcome)
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
