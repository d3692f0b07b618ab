"""Command-line front end: one subcommand per report kind.

JSON is the canonical output and is byte-stable for a fixed argument
list; text and csv are lossy projections of the same payload.  Exit
codes: 0 success, 1 reproduction mismatch, 2 bad input, 3 violated
size limit or internal invariant.
"""

import argparse
import csv
import functools
import io
import itertools
import json
import math
import os
import sys
from operator import add

from .bounds import _decomposition_value, certified_upper_bound, full_report, mainthm_lower_bound
from .code import (
    SectionPoly,
    _log_rows,
    build_code,
    count_torus_zeros,
    min_distance_exact,
    multiply_sections,
    weight_of_section,
)
from .decomp import DEFAULT_BUDGET, best_subpolygon_decomposition, subpolygon_decomposition_search
from .errors import (
    BudgetExceeded,
    CoordinateOverflow,
    DeadlineExceeded,
    DegeneratePolygon,
    InvariantViolation,
    NotApplicable,
    ToricodeError,
    TooLarge,
)
from .field import field_from_order, make_field
from .polygon import LatticePolygon

# exit code per error class, looked up along the raised class's MRO:
# 3 for a size limit or a broken invariant, 2 for any other bad input
_EXIT_CODES = {
    TooLarge: 3,
    CoordinateOverflow: 3,
    InvariantViolation: 3,
    BudgetExceeded: 3,
    DeadlineExceeded: 3,
    ToricodeError: 2,
    ValueError: 2,
    OSError: 2,
}


# -- input plumbing --------------------------------------------------------------


def _read_polygon(path: str) -> LatticePolygon:
    """Load {"vertices": [[x, y], ...]}; order and duplicates are free."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None
    if not isinstance(data, dict) or "vertices" not in data:
        raise ValueError(f"{path}: expected an object with a 'vertices' list")
    verts = data["vertices"]
    if not isinstance(verts, list):
        raise ValueError(f"{path}: 'vertices' must be a list of [x, y] pairs")
    pts = []
    for v in verts:
        if not isinstance(v, (list, tuple)) or len(v) != 2:
            raise ValueError(f"{path}: bad vertex {v!r}")
        x, y = v
        # bool is a subclass of int, but true is no coordinate
        if type(x) is not int or type(y) is not int:
            raise ValueError(f"{path}: vertex coordinates must be integers, got {v!r}")
        pts.append((x, y))
    return LatticePolygon(pts)


def _parse_modulus(text: str):
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"modulus must be comma-separated integers, low degree first, got {text!r}"
        )


def _field(args):
    return field_from_order(args.q, modulus=args.modulus)


def _verts(poly: LatticePolygon) -> list:
    return [list(v) for v in poly.vertices]


def _fmt_verts(vertices) -> str:
    return " ".join(f"({x},{y})" for x, y in vertices)


# -- commands --------------------------------------------------------------------


def cmd_info(args):
    poly = _read_polygon(args.polygon)
    try:
        genus = poly.genus()
    except DegeneratePolygon:
        genus = None
    try:
        scott_ok = poly.scott_check()
    except NotApplicable:
        scott_ok = None
    w, h = poly.width_height()
    box = None
    if args.q is not None:
        shift = poly.fits_in_box(args.q)
        box = {
            "q": args.q,
            "fits": shift is not None,
            "shift": list(shift) if shift is not None else None,
        }
    payload = {
        "command": "info",
        "polygon": _verts(poly),
        "dim": poly.dim,
        **poly.counts(),
        "genus": genus,
        "scott_ok": scott_ok,
        "width": w,
        "height": h,
        "box": box,
    }
    return payload, 0


def cmd_code(args):
    poly = _read_polygon(args.polygon)
    code = build_code(poly, _field(args))
    payload = {
        "command": "code",
        "q": args.q,
        "modulus": list(code.field.modulus),
        "polygon": _verts(poly),
        "placed": _verts(code.polygon),
        "translation": list(code.translation),
        "n": code.n,
        "k": code.k,
        "monomials": [list(m) for m in code.monomials],
        "generator": None,
    }
    return payload, 0


def cmd_mindist(args):
    poly = _read_polygon(args.polygon)
    code = build_code(poly, _field(args))
    res = min_distance_exact(
        code, threads=args.threads, deadline=args.deadline, checkpoint=args.checkpoint
    )
    payload = {
        "command": "mindist",
        "q": args.q,
        "modulus": list(code.field.modulus),
        "polygon": _verts(poly),
        "n": code.n,
        "k": code.k,
        "d": res.weight,
        "exact": res.exact,
        "enumerated": res.enumerated,
    }
    return payload, 0


def cmd_bounds(args):
    poly = _read_polygon(args.polygon)
    report = full_report(
        poly,
        _field(args),
        exact=args.exact,
        threads=args.threads,
        deadline=args.deadline,
        budget=args.budget,
    )
    return report.as_dict(), 0


def cmd_decompose(args):
    poly = _read_polygon(args.polygon)
    budget = args.budget if args.budget is not None else DEFAULT_BUDGET
    search = subpolygon_decomposition_search(poly, budget)
    payload = [
        {
            "subpolygon": _verts(dec.subpolygon.translate(*dec.translation)),
            "summands": [_verts(p) for p in dec.parts],
            "ell": dec.ell,
            # a search that runs out of its budget raises instead
            "exhaustive": True,
        }
        for dec in search.decompositions
    ]
    return payload, 0


# -- reproduction table ----------------------------------------------------------

_HEXAGON = [(1, 0), (2, 0), (0, 1), (1, 2), (3, 2), (3, 3)]
_PENTAGON = [(0, 0), (1, 0), (3, 1), (2, 2), (1, 2)]
_SKEW_TRIANGLE = [(0, 0), (1, 4), (4, 1)]

# exact distances of the hexagon code, by field order
_HEX_EXACT = {5: 6, 7: 20, 8: 28, 9: 42, 11: 72}
# weight of x(x-a)(y-b)(y-c) with b != c, all roots nonzero
_HEX_SECTION_UPPER = {5: 6, 7: 20, 8: 30, 9: 42, 11: 72}


def _reducible_section(field):
    # x(x-1)(y-1)(y-2): three lines through the torus sharing two points
    neg1, neg2 = field.neg(1), field.neg(2)
    xpart = multiply_sections(
        SectionPoly({(1, 0): 1}), SectionPoly({(1, 0): 1, (0, 0): neg1}), field
    )
    ypart = multiply_sections(
        SectionPoly({(0, 1): 1, (0, 0): neg1}),
        SectionPoly({(0, 1): 1, (0, 0): neg2}),
        field,
    )
    return multiply_sections(xpart, ypart, field)


def _split_bound(decs, want_parts, q, threads):
    """Decomposition bound for the split whose summand set is want_parts."""
    for dec in decs:
        if set(dec.parts) == want_parts:
            return _decomposition_value(dec, q, threads)
    return None


def cmd_reproduce(args):
    threads = args.threads
    rows = []

    hexagon = LatticePolygon(_HEXAGON)
    fields = {q: field_from_order(q) for q in (5, 7, 8, 9, 11)}
    codes = {q: build_code(hexagon, f) for q, f in fields.items()}
    for q in (5, 7, 8, 9, 11):
        if q == 11 and not args.long:
            continue
        got = min_distance_exact(codes[q], threads=threads).weight
        rows.append((f"hexagon/F{q}/min-distance", _HEX_EXACT[q], got))
    for q in (5, 7, 8, 9, 11):
        got = weight_of_section(_reducible_section(fields[q]), codes[q])
        rows.append((f"hexagon/F{q}/section-upper", _HEX_SECTION_UPPER[q], got))
    rows.append(("hexagon/F8/dimension", 9, codes[8].k))

    section = SectionPoly({(1, 0): 1, (3, 3): 1, (0, 2): 1})
    rows.append(("hexagon/F8/zero-count", 21, count_torus_zeros(section, fields[8])))
    alt = make_field(2, 3, modulus=(1, 1, 0, 1))
    rows.append(("hexagon/F8/zero-count-alt-modulus", 21, count_torus_zeros(section, alt)))

    hex_decs = best_subpolygon_decomposition(hexagon)
    lb = mainthm_lower_bound(hexagon, 13, hex_decs, threads=threads)
    rows.append(("hexagon/F13/decomposition-lower", 108, lb.value if lb.applicable else None))

    pentagon = LatticePolygon(_PENTAGON)
    f8 = fields[8]
    got = min_distance_exact(build_code(pentagon, f8), threads=threads).weight
    rows.append(("pentagon/F8/min-distance", 33, got))
    pent_decs = best_subpolygon_decomposition(pentagon)
    genus_one = LatticePolygon([(0, 0), (2, 1), (1, 2)])
    hseg = LatticePolygon([(0, 0), (1, 0)])
    vseg = LatticePolygon([(0, 0), (0, 1)])
    rows.append(
        (
            "pentagon/F8/split-bound-interior",
            33,
            _split_bound(pent_decs, {genus_one, hseg}, 8, threads),
        )
    )
    rows.append(
        (
            "pentagon/F8/split-bound-flat",
            35,
            _split_bound(pent_decs, {hseg, vseg}, 8, threads),
        )
    )

    triangle = LatticePolygon(_SKEW_TRIANGLE)
    tri_code = build_code(triangle, f8)
    rows.append(("skew-triangle/F8/dimension", 11, tri_code.k))
    tri_decs = best_subpolygon_decomposition(triangle)
    value, _ = certified_upper_bound(triangle, f8, tri_decs)
    rows.append(("skew-triangle/F8/triangle-upper", 28, value))
    if args.long:
        got = min_distance_exact(tri_code, threads=threads).weight
        rows.append(("skew-triangle/F8/min-distance", 28, got))

    payload = [
        {"source": src, "expected": want, "computed": got, "match": got == want}
        for src, want, got in rows
    ]
    status = 0 if all(r["match"] for r in payload) else 1
    return payload, status


# -- output projections ----------------------------------------------------------


def _period_blocks(cells, b):
    """Block c of every generator row with second exponent b, for each c < q-1.

    `cells[t]` is the text of the entry g^t.  Block c is the text of
    g^(b*j + c) for j = 0 .. q-2, returned as (text, start, stop, copies):
    `text[start:stop] * copies`.  See `_emit_json` for why.
    """
    qm = len(cells)
    h = math.gcd(b, qm)  # q-1 when b = 0
    period = qm // h
    blocks = [None] * qm
    for r in range(h):
        run = [cells[(b * t + r) % qm] for t in range(2 * period)]
        text = "".join(run)
        offset = list(itertools.accumulate(map(len, run), initial=0))
        for j0 in range(period):
            blocks[(r + b * j0) % qm] = (text, offset[j0], offset[j0 + period], h)
    return blocks


def _emit_json(payload):
    """Write json.dumps(payload, indent=2, sort_keys=True) and a newline.

    A `code` payload holds None for its generator, which is written in
    its place row by row from the placed monomials and the field's exp
    table E, not entry by entry: with `indent` set, `json` encodes in
    Python one element at a time, 65025 per row over F256.  Row (a, b)
    holds E[(a*i + b*j) mod (q-1)] in column i(q-1) + j
    (`code._log_grid`), so its block i is the sequence
    j -> E[(b*j + c) mod (q-1)] with c = a*i mod (q-1), and depends on b
    and c only.  Let h = gcd(b, q-1), which is q-1 for b = 0, and
    P = (q-1)/h.  For r < h the sequence s_r(t) = E[(b*t + r) mod (q-1)]
    has period P, since b*P is a multiple of q-1.  As t runs over [0, P),
    b*t mod (q-1) runs once over the multiples of h: b/h is a unit mod P.
    So every c is r + b*j0 mod (q-1) for exactly one pair, r = c mod h
    and j0 < P, and block c is s_r(j0), ..., s_r(j0 + q-2): h copies of
    the period of s_r that starts at j0.  The text of s_r over two
    periods therefore holds every block of residue r as a slice, and
    per distinct b only 2(q-1) cells are looked up.  Blocks are written
    one at a time: joining a row into one string first cost about 2 MB
    more peak memory over the benchmark's `large-q` pass, from where the
    allocator placed the block strings.  The splice relies
    on what `build_code` guarantees, at least one row and no empty row
    (`json` would print those as `[]`).
    """
    text = json.dumps(payload, indent=2, sort_keys=True)
    if not (isinstance(payload, dict) and "generator" in payload):
        sys.stdout.write(text + "\n")
        return
    head, tail = text.split('"generator": null')
    exp = field_from_order(payload["q"], modulus=payload["modulus"]).exp_table
    cells = [f"      {v},\n" for v in exp]
    qm = len(cells)
    by_b = {}
    write = sys.stdout.write
    write(head + '"generator": [')
    for row, (a, b) in enumerate(payload["monomials"]):
        if b not in by_b:
            by_b[b] = _period_blocks(cells, b)
        blocks = by_b[b]
        write(("," if row else "") + "\n    [\n")
        for i in range(qm):
            run, start, stop, copies = blocks[a * i % qm]
            block = run[start:stop] * copies
            # every cell ends in ",\n"; the row's last cell closes the row instead
            write(block if i < qm - 1 else block[:-2] + "\n    ]")
    write("\n  ]" + tail + "\n")


def _generator_entries(payload, sep):
    """Yield (monomial, entries) per generator row, computed from the monomial and
    the field's exp table: one entry per torus point (g^i, g^j) in column order,
    reading `i{sep}j{sep}value`."""
    qm = payload["q"] - 1
    exp = field_from_order(payload["q"], modulus=payload["modulus"]).exp_table
    cells = [str(v) for v in exp]
    cols = [f"{c // qm}{sep}{c % qm}{sep}" for c in range(qm * qm)]
    for monomial in payload["monomials"]:
        logs = _log_rows([monomial], qm)[0].tolist()
        yield monomial, list(map(add, cols, map(cells.__getitem__, logs)))


def _emit_text(command, payload):
    out = []
    if command == "info":
        out.append(f"polygon: {_fmt_verts(payload['polygon'])}")
        for key in ("dim", "volume2", "total", "boundary", "interior", "width", "height"):
            out.append(f"{key} = {payload[key]}")
        out.append(f"genus = {payload['genus'] if payload['genus'] is not None else 'n/a'}")
        scott = payload["scott_ok"]
        out.append(f"scott = {'n/a' if scott is None else ('ok' if scott else 'FAIL')}")
        if payload["box"] is not None:
            box = payload["box"]
            if box["fits"]:
                out.append(f"box q={box['q']}: fits, shift ({box['shift'][0]},{box['shift'][1]})")
            else:
                out.append(f"box q={box['q']}: does not fit")
    elif command == "code":
        for key in ("q", "n", "k"):
            out.append(f"{key} = {payload[key]}")
        out.append(f"modulus = {','.join(str(c) for c in payload['modulus'])}")
        out.append(f"translation = ({payload['translation'][0]},{payload['translation'][1]})")
        out.append(f"monomials: {_fmt_verts(payload['monomials'])}")
    elif command == "mindist":
        for key in ("q", "n", "k", "d"):
            out.append(f"{key} = {payload[key]}")
        out.append(f"exact = {'true' if payload['exact'] else 'false'}")
        out.append(f"enumerated = {payload['enumerated']}")
    elif command == "bounds":
        out.append(f"polygon: {_fmt_verts(payload['polygon'])}")
        out.append(f"q = {payload['q']}")
        exact = payload["exact_d"]
        out.append(f"exact d = {exact if exact is not None else '(not computed)'}")
        for e in payload["entries"]:
            status = "holds" if e["applicable"] else "conditional"
            out.append(f"{e['name']:<28} {e['kind']:<14} {e['value']:>6}  {status}")
    elif command == "decompose":
        for rec in payload:
            out.append(f"ell = {rec['ell']} exhaustive = yes")
            out.append(f"subpolygon: {_fmt_verts(rec['subpolygon'])}")
            for part in rec["summands"]:
                out.append(f"  part: {_fmt_verts(part)}")
    elif command == "reproduce":
        for r in payload:
            mark = "ok" if r["match"] else "MISMATCH"
            out.append(
                f"{r['source']:<40} expected {r['expected']:>4} "
                f"computed {str(r['computed']):>4}  {mark}"
            )
    sys.stdout.write("\n".join(out) + "\n")
    if command == "code":
        for (a, b), entries in _generator_entries(payload, " "):
            sys.stdout.write(f"codeword ({a},{b})\n" + "\n".join(entries) + "\n")


def _emit_csv(command, payload):
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    if command == "info":
        cols = ("dim", "volume2", "total", "boundary", "interior", "genus",
                "scott_ok", "width", "height")
        w.writerow(("polygon",) + cols + ("q", "fits"))
        box = payload["box"] or {}
        w.writerow(
            [_fmt_verts(payload["polygon"])]
            + [payload[c] for c in cols]
            + [box.get("q"), box.get("fits")]
        )
    elif command == "code":
        w.writerow(("monomial_a", "monomial_b", "i", "j", "value"))
    elif command == "mindist":
        cols = ("q", "n", "k", "d", "exact", "enumerated")
        w.writerow(cols)
        w.writerow([payload[c] for c in cols])
    elif command == "bounds":
        w.writerow(("name", "kind", "value", "applicable", "provenance"))
        for e in payload["entries"]:
            w.writerow((e["name"], e["kind"], e["value"], e["applicable"], e["provenance"]))
    elif command == "decompose":
        w.writerow(("index", "ell", "exhaustive", "subpolygon", "summands"))
        for idx, rec in enumerate(payload):
            w.writerow(
                (
                    idx,
                    rec["ell"],
                    rec["exhaustive"],
                    _fmt_verts(rec["subpolygon"]),
                    " + ".join(_fmt_verts(p) for p in rec["summands"]),
                )
            )
    elif command == "reproduce":
        w.writerow(("source", "expected", "computed", "match"))
        for r in payload:
            w.writerow((r["source"], r["expected"], r["computed"], r["match"]))
    sys.stdout.write(buf.getvalue())
    if command == "code":
        for (a, b), entries in _generator_entries(payload, ","):
            lead = f"{a},{b},"
            sys.stdout.write(lead + f"\n{lead}".join(entries) + "\n")


# -- argument handling -----------------------------------------------------------


@functools.cache
def _parser():
    parser = argparse.ArgumentParser(
        prog="toricode",
        description="Toric surface codes: geometry, exact distances, and bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, polygon=True, field=False, compute=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--output", choices=("json", "csv", "text"), default="json")
        if polygon:
            p.add_argument("--polygon", required=True, metavar="FILE",
                           help="JSON file with a 'vertices' list")
        if field:
            p.add_argument("--q", type=int, required=True, help="field order (prime power, >= 3)")
            p.add_argument("--modulus", type=_parse_modulus, default=None,
                           help="field modulus, comma-separated, low degree first")
        if compute:
            p.add_argument("--threads", type=int, default=None,
                           help="worker count (default: TORICODE_THREADS or 1)")
        return p

    info = add("info", "lattice geometry of a polygon")
    info.add_argument("--q", type=int, default=None, help="also report the fit into [0, q-2]^2")

    add("code", "build the evaluation code and dump its generator", field=True)

    mindist = add("mindist", "exact minimum distance by exhaustive search",
                  field=True, compute=True)
    mindist.add_argument("--checkpoint", metavar="FILE", default=None,
                         help="resumable progress file for long searches")

    bounds = add("bounds", "all applicable distance bounds", field=True, compute=True)
    bounds.add_argument("--budget", type=int, default=None,
                        help="work budget for the decomposition search")
    bounds.add_argument("--exact", action="store_true",
                        help="also run the exhaustive distance search")
    for p in (mindist, bounds):
        p.add_argument("--deadline", type=float, default=None, metavar="SECONDS",
                       help="time limit of each exhaustive search")

    decompose = add("decompose", "maximal Minkowski splits over all subpolygons")
    decompose.add_argument("--budget", type=int, default=None)

    reproduce = add("reproduce", "recompute the published example values", polygon=False,
                    compute=True)
    reproduce.add_argument("--long", action="store_true",
                           help="include the two largest exhaustive searches")
    return parser


def _parse_args(argv):
    parser = _parser()
    args = parser.parse_args(argv)

    if getattr(args, "q", None) is not None and args.q < 3:
        parser.error(f"--q must be at least 3, got {args.q}")
    if hasattr(args, "threads"):
        if args.threads is None:
            env = os.environ.get("TORICODE_THREADS", "1")
            try:
                args.threads = int(env)
            except ValueError:
                parser.error(f"TORICODE_THREADS must be an integer, got {env!r}")
        if args.threads < 1:
            parser.error(f"--threads must be positive, got {args.threads}")
    if getattr(args, "budget", None) is not None and args.budget < 1:
        parser.error(f"--budget must be positive, got {args.budget}")
    deadline = getattr(args, "deadline", None)
    if deadline is not None and not (math.isfinite(deadline) and deadline > 0):
        parser.error(f"--deadline must be a finite number of seconds above 0, got {deadline}")
    return args


_COMMANDS = {
    "info": cmd_info,
    "code": cmd_code,
    "mindist": cmd_mindist,
    "bounds": cmd_bounds,
    "decompose": cmd_decompose,
    "reproduce": cmd_reproduce,
}


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        payload, status = _COMMANDS[args.command](args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(_EXIT_CODES[c] for c in type(exc).__mro__ if c in _EXIT_CODES)
    if args.output == "json":
        _emit_json(payload)
    elif args.output == "text":
        _emit_text(args.command, payload)
    else:
        _emit_csv(args.command, payload)
    return status


if __name__ == "__main__":
    sys.exit(main())
