import ast
import csv
import inspect
import io
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator

import toricode.cli as cli_module
import toricode.code as code_module
from toricode import errors
from toricode.cli import main

ROOT = Path(__file__).resolve().parent.parent
SCHEMA_DIR = ROOT / "docs" / "schemas"

HEXAGON = [[1, 0], [2, 0], [0, 1], [1, 2], [3, 2], [3, 3]]
SKEW_TRIANGLE = [[0, 0], [1, 4], [4, 1]]
PENTAGON = [[0, 0], [1, 0], [3, 1], [2, 2], [1, 2]]


def polygon_file(tmp_path, vertices, name="poly.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"vertices": vertices}))
    return str(path)


def run(capsys, *argv):
    status = main(list(argv))
    out = capsys.readouterr().out
    return status, out


def validate(command, payload):
    schema = json.loads((SCHEMA_DIR / f"{command}.schema.json").read_text())
    Draft202012Validator.check_schema(schema)
    Draft202012Validator(schema).validate(payload)


# -- info -------------------------------------------------------------------------


def test_info_reports_geometry(capsys, tmp_path):
    path = polygon_file(tmp_path, SKEW_TRIANGLE)
    status, out = run(capsys, "info", "--polygon", path, "--q", "8")
    assert status == 0
    payload = json.loads(out)
    validate("info", payload)
    assert payload["total"] == 11
    assert payload["interior"] == 6
    assert payload["genus"] == 6
    assert payload["box"] == {"q": 8, "fits": True, "shift": [0, 0]}


def test_info_without_q(capsys, tmp_path):
    path = polygon_file(tmp_path, HEXAGON)
    status, out = run(capsys, "info", "--polygon", path)
    payload = json.loads(out)
    validate("info", payload)
    assert status == 0 and payload["box"] is None


def test_info_box_rejection(capsys, tmp_path):
    path = polygon_file(tmp_path, SKEW_TRIANGLE)
    status, out = run(capsys, "info", "--polygon", path, "--q", "5")
    payload = json.loads(out)
    validate("info", payload)
    assert payload["box"] == {"q": 5, "fits": False, "shift": None}


def test_info_degenerate_polygon(capsys, tmp_path):
    path = polygon_file(tmp_path, [[0, 0], [3, 0]])
    status, out = run(capsys, "info", "--polygon", path)
    payload = json.loads(out)
    validate("info", payload)
    assert payload["dim"] == 1
    assert payload["genus"] is None and payload["scott_ok"] is None


def test_info_deduplicates_vertices(capsys, tmp_path):
    square = [[0, 0], [1, 0], [1, 1], [0, 1]]
    messy = square + [[1, 0], [0, 0], [1, 1]]
    a = run(capsys, "info", "--polygon", polygon_file(tmp_path, square, "a.json"))
    b = run(capsys, "info", "--polygon", polygon_file(tmp_path, messy, "b.json"))
    assert a == b


def test_info_text_output(capsys, tmp_path):
    path = polygon_file(tmp_path, HEXAGON)
    status, out = run(capsys, "info", "--polygon", path, "--q", "7", "--output", "text")
    assert status == 0
    assert "total = 9" in out and "box q=7: fits" in out


# -- input failures ----------------------------------------------------------------


def test_empty_vertex_list_exits_2(capsys, tmp_path):
    path = polygon_file(tmp_path, [])
    assert run(capsys, "info", "--polygon", path)[0] == 2


def test_missing_file_exits_2(capsys, tmp_path):
    assert run(capsys, "info", "--polygon", str(tmp_path / "nope.json"))[0] == 2


def test_malformed_json_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert run(capsys, "info", "--polygon", str(path))[0] == 2


def test_non_integer_vertex_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"vertices": [[0.5, 0], [1, 0], [0, 1]]}')
    assert run(capsys, "info", "--polygon", str(path))[0] == 2


@pytest.mark.parametrize("vertex", ["[true, 0]", "[0, false]"])
def test_boolean_coordinate_exits_2(capsys, tmp_path, vertex):
    path = tmp_path / "bad.json"
    path.write_text(f'{{"vertices": [{vertex}, [0, 1], [1, 1]]}}')
    assert main(["info", "--polygon", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_deeply_nested_json_exits_2(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    assert main(["info", "--polygon", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_polygon_too_large_for_field_exits_2(capsys, tmp_path):
    path = polygon_file(tmp_path, SKEW_TRIANGLE)
    assert run(capsys, "mindist", "--polygon", path, "--q", "5")[0] == 2


def test_non_prime_power_order_exits_2(capsys, tmp_path):
    path = polygon_file(tmp_path, HEXAGON)
    assert run(capsys, "code", "--polygon", path, "--q", "6")[0] == 2


def test_reducible_modulus_exits_2(capsys, tmp_path):
    path = polygon_file(tmp_path, HEXAGON)
    status, _ = run(capsys, "code", "--polygon", path, "--q", "8",
                    "--modulus", "1,1,1,1")
    assert status == 2


def test_modulus_of_wrong_degree_exits_2(capsys, tmp_path):
    path = polygon_file(tmp_path, [[0, 0], [1, 0], [0, 1]])
    status = main(["code", "--polygon", path, "--q", "8", "--modulus", "1,1"])
    captured = capsys.readouterr()
    assert status == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "degree 3" in captured.err


def test_oversized_coordinates_exit_3(capsys, tmp_path):
    path = polygon_file(tmp_path, [[0, 0], [2**40, 0], [0, 1]])
    assert run(capsys, "info", "--polygon", path)[0] == 3


def test_bounds_over_huge_field_exits_3_quickly(capsys, tmp_path):
    # the torus of F_65536 has 2^32 points; the report refuses it before
    # the decomposition search and before any torus-sized array
    path = polygon_file(tmp_path, PENTAGON)
    start = time.perf_counter()
    status = main(["bounds", "--polygon", path, "--q", "65536"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert status == 3
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert elapsed < 30


_LIMIT_ERRORS = (
    errors.TooLarge,
    errors.CoordinateOverflow,
    errors.InvariantViolation,
    errors.BudgetExceeded,
    errors.DeadlineExceeded,
)
_ERROR_CLASSES = [
    cls
    for _, cls in inspect.getmembers(errors, inspect.isclass)
    if issubclass(cls, errors.ToricodeError)
] + [ValueError, OSError]


@pytest.mark.parametrize("cls", _ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_error_class_sets_exit_code(capsys, tmp_path, monkeypatch, cls):
    # README: 3 for a violated size limit or invariant, 2 for other bad input
    def fail(path):
        raise cls("injected failure")

    monkeypatch.setattr(cli_module, "_read_polygon", fail)
    status = main(["info", "--polygon", polygon_file(tmp_path, HEXAGON)])
    captured = capsys.readouterr()
    assert status == (3 if issubclass(cls, _LIMIT_ERRORS) else 2)
    assert captured.out == ""
    assert captured.err == "error: injected failure\n"


def _raised_name(node):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.attr if isinstance(exc, ast.Attribute) else exc.id


def test_source_has_no_assert_statements():
    # python -O strips assert, so runtime checks must raise instead, and
    # only classes the CLI maps to an exit code: the package's own,
    # ValueError, and ArgumentTypeError, which argparse turns into exit 2
    allowed = {
        cls.__name__
        for _, cls in inspect.getmembers(errors, inspect.isclass)
        if issubclass(cls, errors.ToricodeError)
    } | {"ValueError", "ArgumentTypeError"}
    found = []
    modules = sorted((ROOT / "src" / "toricode").glob("*.py"))
    # an empty glob would pass without checking anything
    assert {"code.py", "field.py", "bounds.py", "cli.py"} <= {m.name for m in modules}
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
            # a bare raise re-raises what was caught
            or isinstance(node, ast.Raise) and node.exc and _raised_name(node) not in allowed
        ]
    assert found == []


def test_missing_q_is_a_usage_error(capsys, tmp_path):
    path = polygon_file(tmp_path, HEXAGON)
    with pytest.raises(SystemExit) as exc:
        main(["mindist", "--polygon", path])
    assert exc.value.code == 2


def test_q_below_3_is_a_usage_error(capsys, tmp_path):
    path = polygon_file(tmp_path, HEXAGON)
    with pytest.raises(SystemExit) as exc:
        main(["code", "--polygon", path, "--q", "2"])
    assert exc.value.code == 2


def test_bad_thread_env_is_a_usage_error(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("TORICODE_THREADS", "many")
    path = polygon_file(tmp_path, HEXAGON)
    with pytest.raises(SystemExit) as exc:
        main(["mindist", "--polygon", path, "--q", "5"])
    assert exc.value.code == 2


# -- code --------------------------------------------------------------------------


def test_code_report(capsys, tmp_path):
    path = polygon_file(tmp_path, SKEW_TRIANGLE)
    status, out = run(capsys, "code", "--polygon", path, "--q", "8")
    assert status == 0
    payload = json.loads(out)
    validate("code", payload)
    assert payload["n"] == 49 and payload["k"] == 11
    assert len(payload["generator"]) == 11
    assert all(len(row) == 49 for row in payload["generator"])
    assert payload["monomials"][0] == [0, 0]


def test_code_text_dump_lines(capsys, tmp_path):
    path = polygon_file(tmp_path, [[0, 0], [1, 0], [0, 1]])
    status, out = run(capsys, "code", "--polygon", path, "--q", "5", "--output", "text")
    lines = out.splitlines()
    # one header plus 16 "i j value" lines per monomial
    assert sum(1 for l in lines if l.startswith("codeword")) == 3
    dump = [l for l in lines if l[:1].isdigit()]
    assert len(dump) == 3 * 16
    i, j, value = dump[0].split()
    assert (i, j) == ("0", "0")


def test_code_respects_modulus(capsys, tmp_path):
    path = polygon_file(tmp_path, HEXAGON)
    _, out_a = run(capsys, "code", "--polygon", path, "--q", "8")
    _, out_b = run(capsys, "code", "--polygon", path, "--q", "8", "--modulus", "1,1,0,1")
    a, b = json.loads(out_a), json.loads(out_b)
    assert a["modulus"] == [1, 0, 1, 1]
    assert b["modulus"] == [1, 1, 0, 1]
    assert a["generator"] != b["generator"]


# Per-entry encoders of the `code` payload, kept as oracles for the bulk
# writers in `cli`: stdout must match them byte for byte in every format.


def _oracle_json(payload):
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _oracle_text(payload):
    out = [f"{key} = {payload[key]}" for key in ("q", "n", "k")]
    out.append(f"modulus = {','.join(str(c) for c in payload['modulus'])}")
    out.append(f"translation = ({payload['translation'][0]},{payload['translation'][1]})")
    out.append("monomials: " + " ".join(f"({x},{y})" for x, y in payload["monomials"]))
    qm = payload["q"] - 1
    for (a, b), row in zip(payload["monomials"], payload["generator"]):
        out.append(f"codeword ({a},{b})")
        out.extend(f"{col // qm} {col % qm} {value}" for col, value in enumerate(row))
    return "\n".join(out) + "\n"


def _oracle_csv(payload):
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(("monomial_a", "monomial_b", "i", "j", "value"))
    qm = payload["q"] - 1
    for (a, b), row in zip(payload["monomials"], payload["generator"]):
        for col, value in enumerate(row):
            w.writerow((a, b, col // qm, col % qm, value))
    return buf.getvalue()


_ORACLES = {"json": _oracle_json, "text": _oracle_text, "csv": _oracle_csv}

_SMALL_SHAPES = {
    "point": [[0, 0]],
    "segment": [[0, 0], [1, 0]],
    "triangle": [[0, 0], [1, 0], [0, 1]],
    "hexagon": HEXAGON,
}
_BULK_CASES = [
    (name, verts, q)
    for q in (3, 4, 5, 7, 8, 9, 16, 27, 49, 256)
    for name, verts in _SMALL_SHAPES.items()
    if name != "hexagon" or q >= 5  # the hexagon needs the box [0, 3]^2
] + [
    ("triangle20", [[0, 0], [20, 0], [0, 20]], 49),  # k = 231
    ("triangle", _SMALL_SHAPES["triangle"], 257),  # entries above 255: uint16 generator
    # the period split of `cli._period_blocks`: a = 0 in every row
    ("column", [[0, 0], [0, 5]], 8),
    # b shares the factors 3, 7 and 9 with q-1 = 63, and 3 and 5 with q-1 = 15
    ("box1x9", [[0, 0], [1, 0], [1, 9], [0, 9]], 64),
    ("box2x14", [[0, 0], [2, 0], [2, 14], [0, 14]], 16),
    ("box3x3", [[0, 0], [3, 0], [3, 3], [0, 3]], 5),  # b up to q-2
    ("negative", [[-7, -3], [-5, -3], [-4, -1], [-6, 0]], 11),
]


@pytest.mark.parametrize(
    "verts,q", [c[1:] for c in _BULK_CASES], ids=[f"{c[0]}-F{c[2]}" for c in _BULK_CASES]
)
def test_code_output_matches_per_entry_encoders(capsys, tmp_path, verts, q):
    argv = ["code", "--polygon", polygon_file(tmp_path, verts), "--q", str(q)]
    payload, _ = cli_module.cmd_code(cli_module._parse_args(argv))
    payload["generator"] = payload["generator"].tolist()
    for fmt, oracle in _ORACLES.items():
        status, out = run(capsys, *argv, "--output", fmt)
        assert status == 0
        assert out == oracle(payload), fmt


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9, 16])
def test_json_rows_match_per_entry_dumps_on_every_monomial(capsys, tmp_path, q):
    # every (a, b) in [0, q-2]^2: every b, and every block offset c = a*i mod q-1
    box = [[0, 0], [q - 2, 0], [q - 2, q - 2], [0, q - 2]]
    argv = ["code", "--polygon", polygon_file(tmp_path, box), "--q", str(q)]
    payload, _ = cli_module.cmd_code(cli_module._parse_args(argv))
    assert payload["k"] == (q - 1) ** 2
    _, out = run(capsys, *argv)
    head = '"generator": [\n    '
    pos = out.index(head) + len(head)
    for r, row in enumerate(payload["generator"].tolist()):
        # a row sits two levels deep in the payload, so 4 more spaces per line
        want = json.dumps(row, indent=2).replace("\n", "\n    ")
        assert out[pos : pos + len(want)] == want, payload["monomials"][r]
        pos += len(want) + len(",\n    ")
    assert out[pos - len(",\n    ") :].startswith("\n  ]")


# -- mindist -----------------------------------------------------------------------


def test_mindist_hexagon(capsys, tmp_path):
    path = polygon_file(tmp_path, HEXAGON)
    status, out = run(capsys, "mindist", "--polygon", path, "--q", "5")
    assert status == 0
    payload = json.loads(out)
    validate("mindist", payload)
    assert payload["d"] == 6 and payload["exact"]
    assert payload["enumerated"] == (5**9 - 1) // 4


def test_mindist_thread_count_does_not_change_bytes(capsys, tmp_path):
    path = polygon_file(tmp_path, HEXAGON)
    _, one = run(capsys, "mindist", "--polygon", path, "--q", "5", "--threads", "1")
    _, two = run(capsys, "mindist", "--polygon", path, "--q", "5", "--threads", "2")
    assert one == two


def test_mindist_deadline_is_reported_honestly(capsys, tmp_path):
    # the skew triangle over F8 needs seconds, far past the deadline
    path = polygon_file(tmp_path, SKEW_TRIANGLE)
    status, out = run(capsys, "mindist", "--polygon", path, "--q", "8",
                      "--deadline", "0.01")
    assert status == 0
    payload = json.loads(out)
    validate("mindist", payload)
    assert not payload["exact"]
    assert payload["d"] >= 28


@pytest.mark.parametrize("command", ["mindist", "bounds"])
@pytest.mark.parametrize("deadline", ["nan", "inf", "0", "-1"])
def test_deadline_not_finite_above_zero_is_a_usage_error(capsys, tmp_path, command, deadline):
    # nan would switch the deadline off, and 0 or -1 would cut every search at once
    path = polygon_file(tmp_path, HEXAGON)
    with pytest.raises(SystemExit) as exc:
        main([command, "--polygon", path, "--q", "5", "--deadline", deadline])
    assert exc.value.code == 2
    assert "--deadline" in capsys.readouterr().err


def test_reproduce_takes_no_deadline(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["reproduce", "--deadline", "1"])
    assert exc.value.code == 2


def test_mindist_checkpoint_resume(capsys, tmp_path):
    path = polygon_file(tmp_path, HEXAGON)
    ckpt = str(tmp_path / "state.json")
    # the hexagon over F13 takes many times the deadline, so the first run is cut
    status, out = run(capsys, "mindist", "--polygon", path, "--q", "13",
                      "--deadline", "0.05", "--checkpoint", ckpt)
    assert status == 0
    assert json.loads(out)["exact"] is False
    status, out = run(capsys, "mindist", "--polygon", path, "--q", "13",
                      "--checkpoint", ckpt)
    assert status == 0
    payload = json.loads(out)
    assert payload["d"] == 110 and payload["exact"]


def _refused_checkpoint(capsys, monkeypatch, tmp_path, ckpt):
    tasks = []
    real = code_module._SearchContext.run_task
    monkeypatch.setattr(
        code_module._SearchContext, "run_task", lambda *a: tasks.append(1) or real(*a)
    )
    path = polygon_file(tmp_path, HEXAGON)
    status = main(["mindist", "--polygon", path, "--q", "7", "--checkpoint", ckpt])
    captured = capsys.readouterr()
    assert status == 2 and tasks == []
    assert captured.out == ""
    assert captured.err.startswith(f"error: checkpoint {ckpt}")
    assert captured.err.count("\n") == 1


def test_mindist_checkpoint_in_a_missing_directory_is_refused(capsys, monkeypatch, tmp_path):
    _refused_checkpoint(capsys, monkeypatch, tmp_path, str(tmp_path / "missing" / "x.json"))


def test_mindist_checkpoint_that_is_a_directory_is_refused(capsys, monkeypatch, tmp_path):
    _refused_checkpoint(capsys, monkeypatch, tmp_path, str(tmp_path))


# -- bounds ------------------------------------------------------------------------


def test_bounds_report_validates(capsys, tmp_path):
    path = polygon_file(tmp_path, HEXAGON)
    status, out = run(capsys, "bounds", "--polygon", path, "--q", "7", "--exact")
    assert status == 0
    payload = json.loads(out)
    validate("bounds", payload)
    assert payload["exact_d"] == 20
    names = {e["name"]: e["value"] for e in payload["entries"]}
    assert names["certified-upper"] == 20


def test_bounds_without_exact(capsys, tmp_path):
    path = polygon_file(tmp_path, HEXAGON)
    status, out = run(capsys, "bounds", "--polygon", path, "--q", "7")
    payload = json.loads(out)
    validate("bounds", payload)
    assert payload["exact_d"] is None


def test_bounds_byte_identical_across_runs(capsys, tmp_path):
    path = polygon_file(tmp_path, HEXAGON)
    _, a = run(capsys, "bounds", "--polygon", path, "--q", "8")
    _, b = run(capsys, "bounds", "--polygon", path, "--q", "8")
    _, c = run(capsys, "bounds", "--polygon", path, "--q", "8", "--threads", "2")
    assert a == b == c


def test_bounds_long_is_a_usage_error(capsys, tmp_path):
    path = polygon_file(tmp_path, PENTAGON)
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--polygon", path, "--q", "8", "--long"])
    assert exc.value.code == 2


def test_bounds_csv_projection(capsys, tmp_path):
    path = polygon_file(tmp_path, HEXAGON)
    status, out = run(capsys, "bounds", "--polygon", path, "--q", "7",
                      "--output", "csv")
    lines = out.splitlines()
    assert lines[0] == "name,kind,value,applicable,provenance"
    assert any(l.startswith("certified-upper,upper,20,") for l in lines)


@pytest.mark.parametrize("q", [11, 13])
def test_bounds_cut_decomposition_search_is_not_applicable(capsys, tmp_path, q):
    # a decomposition search that runs out of budget gives no product or
    # decomposition entries; the rest of the report still stands
    path = polygon_file(tmp_path, [[0, 3], [1, 1], [4, 0], [3, 2]])
    status, out = run(capsys, "bounds", "--polygon", path, "--q", str(q), "--budget", "1")
    assert status == 0
    payload = json.loads(out)
    validate("bounds", payload)
    names = [e["name"] for e in payload["entries"]]
    assert "certified-upper" in names
    assert "decomposition-lower" not in names
    assert not any(name.startswith("product-bound") for name in names)


@pytest.mark.parametrize("budget", ["0", "-1"])
def test_bounds_budget_below_one_is_a_usage_error(capsys, tmp_path, budget):
    path = polygon_file(tmp_path, HEXAGON)
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--polygon", path, "--q", "8", "--budget", budget])
    assert exc.value.code == 2


# -- decompose ---------------------------------------------------------------------


def test_decompose_hexagon(capsys, tmp_path):
    path = polygon_file(tmp_path, HEXAGON)
    status, out = run(capsys, "decompose", "--polygon", path)
    assert status == 0
    payload = json.loads(out)
    validate("decompose", payload)
    assert len(payload) == 3
    assert all(rec["ell"] == 3 and rec["exhaustive"] for rec in payload)
    for rec in payload:
        assert len(rec["summands"]) == rec["ell"]


def test_decompose_point_exits_2(capsys, tmp_path):
    path = polygon_file(tmp_path, [[4, 4]])
    assert run(capsys, "decompose", "--polygon", path)[0] == 2


@pytest.mark.parametrize("budget", ["0", "-1"])
def test_decompose_budget_below_one_is_a_usage_error(capsys, tmp_path, budget):
    path = polygon_file(tmp_path, HEXAGON)
    with pytest.raises(SystemExit) as exc:
        main(["decompose", "--polygon", path, "--budget", budget])
    assert exc.value.code == 2


def test_decompose_budget_flag(capsys, tmp_path):
    path = polygon_file(tmp_path, HEXAGON)
    status = main(["decompose", "--polygon", path, "--budget", "1"])
    captured = capsys.readouterr()
    assert status == 3
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


# -- reproduce ---------------------------------------------------------------------


def test_reproduce_all_rows_match(capsys):
    status, out = run(capsys, "reproduce")
    assert status == 0
    payload = json.loads(out)
    validate("reproduce", payload)
    assert len(payload) == 18
    assert all(r["match"] for r in payload)
    sources = [r["source"] for r in payload]
    assert "hexagon/F8/min-distance" in sources
    assert "pentagon/F8/split-bound-flat" in sources
    # the two long rows stay out without --long
    assert "hexagon/F11/min-distance" not in sources
    assert "skew-triangle/F8/min-distance" not in sources


def test_reproduce_csv(capsys):
    status, out = run(capsys, "reproduce", "--output", "csv")
    lines = out.splitlines()
    assert lines[0] == "source,expected,computed,match"
    assert len(lines) == 19


# -- process level ------------------------------------------------------------------


def _main_in_process(capsys, argv):
    try:
        status = main(argv)
    except SystemExit as exc:
        status = exc.code
    return status, capsys.readouterr().out


def test_main_calls_in_sequence_match_fresh_runs(capsys, tmp_path):
    # the argument parser is built once per process and shared by every call
    path = polygon_file(tmp_path, HEXAGON)
    calls = [
        ["bounds", "--polygon", path, "--q", "8"],
        ["bounds", "--polygon", path, "--q", "8", "--budget", "0"],
        ["code", "--polygon", path, "--q", "5"],
        ["info", "--polygon", path],
    ]
    seen = [_main_in_process(capsys, argv) for argv in calls]
    assert [status for status, _ in seen] == [0, 2, 0, 0]
    for argv, (status, out) in zip(calls, seen):
        fresh = subprocess.run(
            [sys.executable, "-m", "toricode", *argv], capture_output=True, text=True
        )
        assert (status, out) == (fresh.returncode, fresh.stdout)


def test_module_entry_point(tmp_path):
    path = polygon_file(tmp_path, HEXAGON)
    proc = subprocess.run(
        [sys.executable, "-m", "toricode", "info", "--polygon", path],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    validate("info", payload)
