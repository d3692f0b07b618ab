"""Checks of every operation's output against the oracles, run outside the timed calls.

Each check returns a list of problems; an empty list means the output
is correct.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict

import numpy as np
from jsonschema import Draft202012Validator

import oracle

# brute force only where (normalized messages) x n stays below this
BRUTE_FORCE_SYMBOLS = 4 * 10**7


class Checker:
    def __init__(self, root: str):
        self._validators = {}
        for name in ("bounds", "mindist"):
            with open(os.path.join(root, "docs", "schemas", f"{name}.schema.json")) as fh:
                self._validators[name] = Draft202012Validator(json.load(fh))
        self._fields: dict[int, oracle.Field] = {}
        self._distances: dict[tuple, int | None] = {}

    def field(self, q: int) -> oracle.Field:
        if q not in self._fields:
            self._fields[q] = oracle.Field(q)
        return self._fields[q]

    def distance(self, name: str, vertices, q: int) -> int | None:
        """Minimum distance from a published value, a closed form or brute force."""
        pts = oracle.to_origin(oracle.lattice_points(vertices))
        key = (tuple(pts), q)
        if key not in self._distances:
            self._distances[key] = self._distance(name, pts, q)
        return self._distances[key]

    def _distance(self, name, pts, q):
        if (name, q) in oracle.PUBLISHED:
            return oracle.PUBLISHED[(name, q)]
        w = max(x for x, _ in pts)
        h = max(y for _, y in pts)
        if len(pts) == (w + 1) * (h + 1):
            return oracle.box_distance(w, h, q)
        if oracle.normalized_messages(q, len(pts)) * (q - 1) ** 2 <= BRUTE_FORCE_SYMBOLS:
            return oracle.min_distance(self.field(q), pts)
        return None

    # -- per command ----------------------------------------------------------------

    def check(self, op, rc: int, out: str, err: str) -> list[str]:
        if op.expect_exit:
            return self._check_declared_failure(op, rc, out, err)
        if rc != 0:
            return [f"exit {rc}: {err.strip()[-200:]}"]
        return getattr(self, f"_check_{op.kind}")(op, out)

    def _check_declared_failure(self, op, rc, out, err):
        if rc == 0:  # the fault is mended: the report must then pass every check
            return self._check_bounds(op, out)
        problems = []
        if rc != op.expect_exit:
            problems.append(f"exit {rc}, expected {op.expect_exit}")
        if out:
            problems.append("printed a result on a failing exit")
        if "exceeds certified-upper" not in err:
            problems.append(f"unexpected message: {err.strip()[-200:]}")
        return problems

    def _common(self, op, payload, problems):
        q, k = op.q, len(oracle.lattice_points(op.vertices))
        fld = self.field(q)
        if payload.get("q") != q:
            problems.append(f"q = {payload.get('q')}")
        if "modulus" in payload and tuple(payload["modulus"]) != fld.modulus:
            problems.append(f"modulus {payload['modulus']} is not {list(fld.modulus)}")
        if "n" in payload and payload["n"] != (q - 1) ** 2:
            problems.append(f"n = {payload['n']}")
        if "k" in payload and payload["k"] != k:
            problems.append(f"k = {payload['k']}, lattice points {k}")
        return k

    def _check_mindist(self, op, out):
        payload = json.loads(out)
        problems = [e.message for e in self._validators["mindist"].iter_errors(payload)]
        k = self._common(op, payload, problems)
        want = self.distance(op.name, op.vertices, op.q)
        if payload["d"] != want:
            problems.append(f"d = {payload['d']}, oracle {want}")
        if not payload["exact"] or payload["enumerated"] != oracle.normalized_messages(op.q, k):
            problems.append(f"search not exhaustive: {payload['enumerated']} messages")
        return problems

    def _check_weights(self, op, out):
        dist = {int(w): a for w, a in json.loads(out).items()}
        q, pts = op.q, oracle.lattice_points(op.vertices)
        k, n = len(pts), (q - 1) ** 2
        problems = []
        if sum(dist.values()) != q**k:
            problems.append(f"sum of A_w = {sum(dist.values())}, q^k = {q**k}")
        if dist.get(0) != 1 or min(dist) < 0 or max(dist) > n:
            problems.append("weights out of range or A_0 != 1")
        want = self.distance(op.name, op.vertices, q)
        got = min(w for w in dist if w)
        if got != want:
            problems.append(f"smallest nonzero weight {got}, oracle d {want}")
        dual = oracle.macwilliams(dist, n, q, k)
        if dual is None or dual[0] != 1 or min(dual) < 0:
            problems.append("MacWilliams dual is not a distribution of nonnegative integers")
        if oracle.normalized_messages(q, k) * n <= BRUTE_FORCE_SYMBOLS:
            if dist != oracle.weight_distribution(self.field(q), oracle.to_origin(pts)):
                problems.append("differs from the brute-force weight distribution")
        return problems

    def _check_bounds(self, op, out):
        payload = json.loads(out)
        problems = [e.message for e in self._validators["bounds"].iter_errors(payload)]
        if problems:
            return problems
        self._common(op, payload, problems)
        q, qm = op.q, op.q - 1
        verts = oracle.hull(op.vertices)
        if [tuple(v) for v in payload["polygon"]] != verts:
            problems.append(f"polygon {payload['polygon']} is not the hull {verts}")
        x0, y0 = min(x for x, _ in verts), min(y for _, y in verts)
        boxed = [(x - x0, y - y0) for x, y in verts]
        entries = payload["entries"]
        certified = [e for e in entries if e["name"] == "certified-upper"]
        if len(certified) != 1:
            problems.append("no certified-upper entry")
        for e in entries:
            w = e["witness"]
            if w is None:
                continue
            if w["type"] == "section":
                terms = [tuple(t) for t in w["terms"]]
                outside = [t[:2] for t in terms if not oracle.contains(boxed, t[:2])]
                if outside:
                    problems.append(f"{e['name']}: support {outside} outside the polygon")
                weight = int(np.count_nonzero(self.field(q).evaluate(terms)))
                if weight != e["value"]:
                    problems.append(f"{e['name']}: witness weight {weight} != {e['value']}")
            else:
                sub = oracle.to_origin(w["subpolygon"])
                total = oracle.to_origin(oracle.minkowski_sum(*w["parts"]))
                if oracle.hull(sub) != oracle.hull(total):
                    problems.append(f"{e['name']}: parts do not sum to the subpolygon")
                tx, ty = w["translation"]
                if not all(oracle.contains(boxed, (x + tx, y + ty)) for x, y in sub):
                    problems.append(f"{e['name']}: subpolygon outside the polygon")
        holds = [e for e in entries if e["applicable"]]
        lowers = [e for e in holds if e["kind"] in ("lower", "exact-formula")]
        uppers = [e for e in holds if e["kind"] in ("upper", "exact-formula")]
        for lo in lowers:
            for hi in uppers:
                if lo["value"] > hi["value"]:
                    problems.append(f"{lo['name']} = {lo['value']} > {hi['name']} = {hi['value']}")
        for e in entries:
            if not 0 <= e["value"] <= qm * qm:
                problems.append(f"{e['name']} = {e['value']} outside [0, n]")
        d = self.distance(op.name, op.vertices, q)
        if d is not None:
            for lo in lowers:
                if lo["value"] > d:
                    problems.append(f"{lo['name']} = {lo['value']} exceeds the oracle d {d}")
            for hi in uppers:
                if hi["value"] < d:
                    problems.append(f"{hi['name']} = {hi['value']} below the oracle d {d}")
        return problems

    def _check_code(self, op, out):
        payload = json.loads(out)
        problems = []
        self._common(op, payload, problems)
        q, qm = op.q, op.q - 1
        try:
            fld = oracle.Field(q, payload["modulus"])
        except ValueError as exc:
            return problems + [f"reported modulus rejected: {exc}"]
        verts = oracle.hull(op.vertices)
        x0, y0 = min(x for x, _ in verts), min(y for _, y in verts)
        if payload["translation"] != [-x0, -y0]:
            problems.append(f"translation {payload['translation']}")
        placed = sorted((x - x0, y - y0) for x, y in oracle.lattice_points(verts))
        monomials = [tuple(m) for m in payload["monomials"]]
        if monomials != placed:
            problems.append("monomials are not the lattice points of the placed polygon")
        g = np.array(payload["generator"], dtype=np.int64)
        if g.shape != (len(placed), qm * qm):
            return problems + [f"generator shape {g.shape}"]
        if g.min() < 1 or g.max() >= q:
            problems.append("generator has a zero or out-of-range entry")
            return problems
        if not (g[:, 0] == 1).all():
            problems.append("first column is not all ones")
        # x^m1 x^m2 = x^m3 x^m4 whenever m1 + m2 = m3 + m4, compared in logs
        logs = fld.log[g]
        pairs = defaultdict(list)
        for i, (a1, b1) in enumerate(monomials):
            for j in range(i, len(monomials)):
                a2, b2 = monomials[j]
                pairs[(a1 + a2, b1 + b2)].append((i, j))
        for s, group in pairs.items():
            if len(group) < 2:
                continue
            i, j = np.array(group).T
            prod = (logs[i] + logs[j]) % qm
            if not (prod == prod[0]).all():
                problems.append(f"row products disagree for monomial sum {s}")
                break
        return problems
