"""Re-measure the reference figures quoted in perfbench/README.md.

    python3 perfbench/reference.py

Prints, one per line: the hexagon over F9 scan rate, the layer split of
bound reports on random polygons in [0,4]^2, the pentagon over F128
bound report, the side-20 triangle over F64 code dump, the line count of
src/, and the throughput of one against two concurrent benchmark
processes.  Takes about three minutes on one core.
"""

from __future__ import annotations

import contextlib
import glob
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracle  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402
from toricode import cli  # noqa: E402
from toricode import code as tc_code  # noqa: E402


TRACER = Tracer()


def _trace_private(mod, attr):
    fn = getattr(mod, attr)
    name = f"{mod.__name__}.{attr}"
    setattr(mod, attr, lambda *a, **k: TRACER.span(name, fn, *a, **k))


def _traced_cli(argv):
    """Run one subcommand under the tracer; returns its wall time and span summary."""
    start = TRACER.mark()
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        TRACER.span("op", cli.main, argv)
        wall = time.perf_counter() - t0
    return wall, TRACER.summary(start, TRACER.mark())


def _polygon_file(directory, name, vertices):
    path = os.path.join(directory, f"{name}.json")
    with open(path, "w") as fh:
        json.dump({"vertices": [list(v) for v in vertices]}, fh)
    return path


def _bench_rate(n_procs):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", "distance",
           "--seed", "1", "--seconds", "10", "--trace", "0"]
    procs = [subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True) for _ in range(n_procs)]
    rates = []
    for p in procs:
        out, _ = p.communicate()
        rates.append(json.loads(out.strip().splitlines()[-1])["metrics"]["ops_per_s"]["value"])
    return sum(rates)


def main():
    TRACER.install()
    _trace_private(tc_code, "_rank")
    _trace_private(cli, "_emit_json")
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        hexagon = _polygon_file(tmp, "hexagon", oracle.HEXAGON)
        wall, s = _traced_cli(["mindist", "--polygon", hexagon, "--q", "9"])
        print(f"hexagon F9 mindist: {s['messages']} normalized messages in {wall:.2f} s, "
              f"{s['messages'] / wall:.3g} messages/s")

        rng = random.Random(0)
        total = search = 0.0
        hulls = exhausted = 0
        seen: set = set()
        for i in range(20):
            verts = workloads._random_polygon(rng, 4, rng.randint(8, 16), seen)
            path = _polygon_file(tmp, f"r{i}", verts)
            wall, s = _traced_cli(["bounds", "--polygon", path, "--q", str(rng.choice([7, 8, 9, 11, 13, 16]))])
            total += wall
            name = "decomp.subpolygon_decomposition_search"
            search += s["total_s"].get(name, 0.0)
            hulls += s["calls"].get("polygon.convex_hull", 0)
            exhausted += s["calls"].get(name, 0) - s["exhaustive"]
        print(f"bounds on 20 random polygons in [0,4]^2 with 8-16 points: {total:.1f} s, "
              f"{search / total:.0%} in the decomposition search, "
              f"{hulls / 20:.0f} convex hulls per report, {exhausted} searches out of budget")

        pentagon = _polygon_file(tmp, "pentagon", oracle.PENTAGON)
        wall, s = _traced_cli(["bounds", "--polygon", pentagon, "--q", "128"])
        print(f"pentagon F128 bounds: {wall:.1f} s, "
              f"{s['total_s'].get('code.min_distance_exact', 0.0):.1f} s in component searches")

        tri = _polygon_file(tmp, "triangle20", workloads.TRIANGLE_20)
        wall, s = _traced_cli(["code", "--polygon", tri, "--q", "64"])
        print(f"triangle20 F64 code: {wall:.2f} s, rank check {s['self_s']['toricode.code._rank']:.2f} s, "
              f"JSON output {s['self_s']['toricode.cli._emit_json']:.2f} s")

    lines = sum(sum(1 for _ in open(f)) for f in glob.glob(os.path.join(ROOT, "src", "toricode", "*.py")))
    print(f"src/ line count: {lines}")

    one, two = _bench_rate(1), _bench_rate(2)
    print(f"distance workload: {one:.2f} ops/s from one process, {two:.2f} ops/s from two together")


if __name__ == "__main__":
    main()
