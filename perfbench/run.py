"""One benchmark for toricode: three workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload distance --seed 1 --seconds 20 --trace 0

Workloads are `distance`, `sweep` and `large-q` (see perfbench/README.md).
The benchmark imports toricode from `src/` of the checkout and drives it
in this one process with one worker.  Each run makes the workload's
polygon files from the seed, runs one checked warm-up pass, then timed
passes over the whole operation list until `--seconds` have gone by.

With `--trace 0` the last line of stdout is a JSON object holding the
end-to-end metrics; with `--trace 1` it holds the per-layer metrics of
a traced run, whose spans are also written to perfbench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
RESULTS = os.path.join(HERE, "results")

# cold starts timed per run for setup_s; five measured by hand spread
# from 0.17 to 0.21 s, so one start is too few
SETUP_PROBES = 7

WORKLOADS = ("distance", "sweep", "large-q")

LAYER_METRICS = {
    "code.min_distance_exact.calls": "count",
    "code.min_distance_exact.self_s": "s",
    "code.messages": "count",
    "code.msgs_per_s": "1/s",
    "code.symbols_per_s": "1/s",
    "code.weight_distribution.self_s": "s",
    "decomp.subpolygon_decomposition_search.calls": "count",
    "decomp.subpolygon_decomposition_search.self_s": "s",
    "decomp.exhaustive_ratio": "ratio",
    "polygon.convex_hull.calls": "count",
    "polygon.convex_hull.self_s": "s",
    "bounds.certified_upper_bound.self_s": "s",
    "bounds.max_zero_section.self_s": "s",
    "code.evaluate_section.calls": "count",
    "code.evaluate_section.self_s": "s",
    "bounds.full_report.self_s": "s",
    "bounds.mainthm_lower_bound.self_s": "s",
    "polygon.lattice_equivalence.calls": "count",
    "polygon.lattice_equivalence.self_s": "s",
    "code.build_code.calls": "count",
    "code.build_code.self_s": "s",
    "field.field_from_order.calls": "count",
    "field.field_from_order.self_s": "s",
    "field.make_field.self_s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.ops_per_s_traced": "1/s",
    "trace.ops_per_s_untraced": "1/s",
}


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _prepare(args, directory):
    """Everything before the first operation: imports and the workload's inputs."""
    import toricode.cli  # noqa: F401  (imports every module of the package)
    import workloads

    ops = workloads.build(args.workload, args.seed)
    workloads.write_inputs(ops, directory)
    return ops


def _setup_probe(args):
    directory = os.path.join(WORK, f"probe-{os.getpid()}")
    try:
        _prepare(args, directory)
        print("ready", flush=True)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return 0


def _time_setup(args):
    """Median wall time from starting a fresh interpreter to its first operation being ready."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            rc = proc.wait(timeout=60)
        if line.strip() != "ready" or rc != 0:
            raise RuntimeError(f"setup probe failed with exit {rc}")
        samples.append(elapsed)
    return statistics.median(samples)


class Runner:
    """Runs operations in-process and keeps their outputs for comparison."""

    def __init__(self, ops, checker):
        from toricode import cli, code, field, polygon

        self.cli, self.code, self.field, self.polygon = cli, code, field, polygon
        self.ops = ops
        self.checker = checker
        self.tracer = None
        self.reference: list[tuple] = []
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.pass_spans: list[tuple[int, int]] = []  # span index range of each traced pass

    def _weights(self, op):
        # looked up on the modules at call time, so traced wrappers apply
        with open(op.path) as fh:
            verts = [tuple(v) for v in json.load(fh)["vertices"]]
        poly = self.polygon.LatticePolygon(verts)
        code = self.code.build_code(poly, self.field.field_from_order(op.q))
        dist = self.code.weight_distribution(code, threads=1)
        return 0, json.dumps(dist, sort_keys=True), ""

    def _cli(self, op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = self.cli.main(op.argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
        return rc, out.getvalue(), err.getvalue()

    def _call(self, op):
        fn = self._weights if op.kind == "weights" else self._cli
        try:
            if self.tracer is None:
                return fn(op)
            self.tracer.current_op = self.attempted
            return self.tracer.span(f"op.{op.kind}", fn, op)
        except Exception as exc:  # a traceback is a failed operation, not a crash
            return -1, "", f"{type(exc).__name__}: {exc}"

    def run_pass(self) -> list[float]:
        """One pass over every operation; returns the per-operation times."""
        times = []
        first = not self.reference
        span0 = self.tracer.mark() if self.tracer else 0
        for i, op in enumerate(self.ops):
            t0 = time.perf_counter()
            rc, out, err = self._call(op)
            times.append(time.perf_counter() - t0)
            self.attempted += 1
            if rc != 0:
                self.failed += 1
            if first:
                self.reference.append((rc, out))
                for p in self.checker.check(op, rc, out, err):
                    self.problems.append(f"{op.label}: {p}")
            elif (rc, out) != self.reference[i]:
                self.problems.append(f"{op.label}: output differs from the first pass")
        if self.tracer:
            self.pass_spans.append((span0, self.tracer.mark()))
        return times


def _timed_passes(runner, seconds):
    """Whole passes until about `seconds` have gone by: a pass starts only if
    half an average pass still fits."""
    passes = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if passes and elapsed + elapsed / len(passes) / 2 >= seconds:
            return passes
        passes.append(runner.run_pass())


def _rate(passes):
    """Operations per second over all the passes together."""
    return sum(len(p) for p in passes) / sum(sum(p) for p in passes)


def _layer_metrics(summary, ops_per_s_traced, ops_per_s_untraced):
    calls, self_s = summary["calls"], summary["self_s"]
    search_s = self_s.get("code.min_distance_exact", 0.0) + self_s.get(
        "code.weight_distribution", 0.0
    )
    searches = calls.get("decomp.subpolygon_decomposition_search", 0)
    values = {
        "code.messages": summary["messages"],
        "code.msgs_per_s": summary["messages"] / search_s if search_s else 0.0,
        "code.symbols_per_s": summary["symbols"] / search_s if search_s else 0.0,
        "decomp.exhaustive_ratio": summary["exhaustive"] / searches if searches else 0.0,
        "trace.overhead_ratio": ops_per_s_traced / ops_per_s_untraced,
        "trace.ops_per_s_traced": ops_per_s_traced,
        "trace.ops_per_s_untraced": ops_per_s_untraced,
    }
    for name in LAYER_METRICS:
        base, _, stat = name.rpartition(".")
        if stat == "calls":
            values[name] = calls.get(base, 0)
        elif stat == "self_s":
            values[name] = self_s.get(base, 0.0)
    return values


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "toricode", "cli.py")):
        print(f"error: no toricode sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("TORICODE_THREADS", None)
    sys.path.insert(0, SRC)
    if args.setup_probe:
        return _setup_probe(args)

    setup_s = _time_setup(args)
    directory = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    try:
        ops = _prepare(args, directory)
        import toricode

        if not os.path.abspath(toricode.__file__).startswith(SRC + os.sep):
            raise RuntimeError(f"imported toricode from {toricode.__file__}, not {SRC}")
        from checks import Checker

        runner = Runner(ops, Checker(ROOT))
        runner.run_pass()  # warm-up pass, checked against the oracles
        if args.trace:
            metrics = _traced_run(runner, args)
        else:
            passes = _timed_passes(runner, args.seconds)
            metrics = {
                "setup_s": (setup_s, "s"),
                "ops_per_s": (_rate(passes), "1/s"),
                "op_s_p50": (statistics.median(t for p in passes for t in p), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
            print(f"{args.workload}: {len(passes)} timed passes of {len(ops)} operations",
                  file=sys.stderr)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    for p in runner.problems:
        print(f"CHECK FAILED {p}", file=sys.stderr)
    result = {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _traced_run(runner, args):
    from spans import Tracer

    untraced = _timed_passes(runner, args.seconds / 2)
    runner.tracer = Tracer()
    runner.tracer.install()
    traced = _timed_passes(runner, args.seconds / 2)
    rate_traced, rate_untraced = _rate(traced), _rate(untraced)
    per_pass = [
        _layer_metrics(runner.tracer.summary(a, b), rate_traced, rate_untraced)
        for a, b in runner.pass_spans
    ]
    os.makedirs(RESULTS, exist_ok=True)
    runner.tracer.save(os.path.join(RESULTS, f"trace-{args.workload}-seed{args.seed}.npz"))
    print(f"{args.workload}: {len(untraced)} untraced and {len(traced)} traced passes",
          file=sys.stderr)
    return {
        name: (statistics.median(v[name] for v in per_pass), unit)
        for name, unit in LAYER_METRICS.items()
    }


if __name__ == "__main__":
    sys.exit(main())
