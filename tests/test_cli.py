"""Command line behavior: output formats, exit codes, file flows.

Exit code contract: 0 success, 1 findings reported, 2 bad input,
3 internal inconsistency or refused unverified decomposition.
"""

import io
import contextlib
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from ctrz import dixon
from ctrz.cli import main


def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def test_order_text():
    assert run("order", "--builtin", "g1344-deg8") == (0, "1344\n")
    assert run("order", "--builtin", "g1344-deg14") == (0, "1344\n")


def test_order_json_report_shape():
    code, out = run("order", "--builtin", "g1344-deg8", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "ok"
    assert report["results"]["order"] == 1344
    assert "order" in report["command"]


def test_classes_csv_omits_representatives():
    code, out = run("classes", "--builtin", "g1344-deg8", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "label,size,order"
    assert lines[1] == "C1,1,1"
    assert len(lines) == 12
    sizes = sorted(int(line.split(",")[1]) for line in lines[1:])
    assert sizes == [1, 7, 42, 42, 84, 168, 168, 192, 192, 224, 224]


def test_classes_text_has_representatives():
    code, out = run("classes", "--builtin", "g1344-deg14")
    assert code == 0
    assert "(" in out  # cycle notation present somewhere


def test_permchar_csv():
    code, out = run("permchar", "--builtin", "g1344-deg8", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "label,fixed_points"
    assert lines[1] == "C1,8"
    values = [int(line.split(",")[1]) for line in lines[1:]]
    assert sorted(values, reverse=True) == [8, 4, 2, 2, 1, 1, 0, 0, 0, 0, 0]


def test_chartable_compute_builtin_is_verified():
    code, out = run("chartable", "compute", "--builtin", "g1344-deg8",
                    "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["results"]["table"]["verified"] is True
    assert len(report["results"]["table"]["characters"]) == 11


def test_chartable_compute_transcription_is_not_verified():
    code, out = run("chartable", "compute", "--builtin", "paper-table",
                    "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["results"]["table"]["verified"] is False


def test_chartable_check_transcription_reports_findings():
    code, out = run("chartable", "check", "paper-table")
    assert code == 1
    assert "C3" in out
    assert "orthogonality" in out


def test_chartable_check_computed_table_clean(tmp_path):
    code, out = run("chartable", "compute", "--builtin", "g1344-deg8",
                    "--format", "json")
    table = json.loads(out)["results"]["table"]
    path = tmp_path / "computed.json"
    path.write_text(json.dumps(table))
    code, out = run("chartable", "check", str(path))
    assert code == 0
    assert "consistent" in out


def test_chartable_check_accepts_whole_compute_report(tmp_path):
    code, out = run("chartable", "compute", "--builtin", "g1344-deg14",
                    "--format", "json")
    path = tmp_path / "report.json"
    path.write_text(out)
    code, out = run("chartable", "check", str(path))
    assert code == 0
    assert "consistent" in out
    code, out = run("chartable", "match", "g1344-deg14", str(path))
    assert code == 0


def test_chartable_match_self_clean():
    code, out = run("chartable", "match", "g1344-deg8", "g1344-deg8",
                    "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "ok"
    assert report["results"]["findings"] == []


def test_chartable_match_cross_group_clean():
    code, out = run("chartable", "match", "g1344-deg8", "g1344-deg14",
                    "--format", "json")
    assert code == 0
    assert json.loads(out)["results"]["findings"] == []


def test_chartable_match_transcription_finds_errata():
    code, out = run("chartable", "match", "g1344-deg8", "paper-table",
                    "--format", "json")
    assert code == 1
    report = json.loads(out)
    findings = report["results"]["findings"]
    kinds = sorted(set(f["kind"] for f in findings))
    assert kinds == ["cell", "class-order", "class-size"]
    assert len(findings) == 7


def test_chartable_match_h_side_uses_primed_labels():
    code, out = run("chartable", "match", "g1344-deg14", "paper-table",
                    "--format", "json")
    assert code == 1
    findings = json.loads(out)["results"]["findings"]
    cells = [f for f in findings if f["kind"] == "cell"]
    assert {f["column"] for f in cells} == {"C4'"}


def test_chartable_match_refuses_unverified_computed_slot():
    code, _ = run("chartable", "match", "paper-table", "g1344-deg8")
    assert code == 2


def test_chartable_match_allow_unverified_override():
    code, out = run("chartable", "match", "paper-table", "g1344-deg8",
                    "--allow-unverified", "--format", "json")
    assert code == 1
    assert json.loads(out)["results"]["findings"]


def test_decompose_known_vector():
    code, out = run("decompose", "--builtin", "g1344-deg8", "--k", "2",
                    "--format", "csv")
    assert (code, out) == (0, "2,0,0,1,0,0,0,3,1,0,1\n")
    code, out = run("decompose", "--builtin", "g1344-deg14", "--k", "2",
                    "--format", "csv")
    assert (code, out) == (0, "3,0,0,5,1,2,5,0,3,3,0\n")


def test_decompose_methods_agree():
    vectors = set()
    for method in ("direct", "recurrence", "closed-form"):
        code, out = run("decompose", "--builtin", "g1344-deg8", "--k", "3",
                        "--method", method, "--format", "csv")
        assert code == 0
        vectors.add(out)
    assert len(vectors) == 1


def test_decompose_json_reports_method():
    code, out = run("decompose", "--builtin", "g1344-deg8", "--k", "2",
                    "--format", "json")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["method"] == "cross-checked"
    assert results["k"] == 2
    code, out = run("decompose", "--builtin", "g1344-deg8", "--k", "13",
                    "--format", "json")
    assert code == 0
    assert json.loads(out)["results"]["method"] == "recurrence"


def test_decompose_closed_form_needs_builtin(tmp_path):
    spec = {"name": "klein", "degree": 4,
            "generators": ["(1,2)(3,4)", "(1,3)(2,4)"]}
    path = tmp_path / "klein.json"
    path.write_text(json.dumps(spec))
    code, _ = run("decompose", "--group", str(path), "--k", "2",
                  "--method", "closed-form")
    assert code == 2


def test_structure_known_text():
    code, out = run("structure", "--builtin", "g1344-deg14", "--k", "1")
    assert code == 0
    assert out == "3M_1\ndimension 3\n"
    code, out = run("structure", "--builtin", "g1344-deg8", "--k", "2",
                    "--format", "csv")
    assert (code, out) == (0, "M3+M2+3M1,16\n")


def test_dims_csv_exact_row():
    code, out = run("dims", "--builtin", "g1344-deg14", "--from", "1",
                    "--to", "6", "--format", "csv")
    assert (code, out) == (0, "3,82,7328,1159392,217424128,42262333952\n")
    code, out = run("dims", "--builtin", "g1344-deg8", "--from", "1",
                    "--to", "6", "--format", "csv")
    assert (code, out) == (0, "2,16,342,14606,831982,51656046\n")


def test_dims_range_validation():
    code, _ = run("dims", "--builtin", "g1344-deg8", "--from", "3", "--to", "2")
    assert code == 2
    code, _ = run("dims", "--builtin", "g1344-deg8", "--from", "0", "--to", "2")
    assert code == 2


def test_orbits_both_methods():
    for method, expected in (("burnside", "16\n"), ("direct", "16\n")):
        code, out = run("orbits", "--builtin", "g1344-deg8", "--t", "4",
                        "--method", method, "--format", "csv")
        assert (code, out) == (0, expected)
    code, out = run("orbits", "--builtin", "g1344-deg14", "--t", "2",
                    "--format", "csv")
    assert (code, out) == (0, "3\n")


def test_group_file_flow(tmp_path):
    spec = {"name": "klein", "degree": 4, "order": 4,
            "generators": ["(1,2)(3,4)", "(1,3)(2,4)"]}
    path = tmp_path / "klein.json"
    path.write_text(json.dumps(spec))
    assert run("order", "--group", str(path)) == (0, "4\n")
    code, out = run("classes", "--group", str(path), "--format", "csv")
    assert code == 0
    assert len(out.splitlines()) == 5
    code, out = run("decompose", "--group", str(path), "--k", "3",
                    "--format", "csv")
    assert (code, out) == (0, "16,16,16,16\n")


def test_group_file_order_mismatch(tmp_path):
    spec = {"name": "klein", "degree": 4, "order": 5,
            "generators": ["(1,2)(3,4)", "(1,3)(2,4)"]}
    path = tmp_path / "wrong.json"
    path.write_text(json.dumps(spec))
    code, _ = run("order", "--group", str(path))
    assert code == 2


def test_group_file_errors(tmp_path):
    code, _ = run("order", "--group", str(tmp_path / "missing.json"))
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{]")
    code, _ = run("order", "--group", str(bad))
    assert code == 2
    nogen = tmp_path / "nogen.json"
    nogen.write_text(json.dumps({"name": "x", "degree": 3}))
    code, _ = run("order", "--group", str(nogen))
    assert code == 2


def test_unknown_builtin_exits_two():
    with pytest.raises(SystemExit) as exc:
        run("order", "--builtin", "nonexistent")
    assert exc.value.code == 2


def test_missing_group_argument_exits_two():
    code, _ = run("order")
    assert code == 2


def test_json_output_is_deterministic():
    _, first = run("chartable", "compute", "--builtin", "g1344-deg8",
                   "--format", "json")
    _, second = run("chartable", "compute", "--builtin", "g1344-deg8",
                    "--format", "json")
    assert first == second


def test_match_table_file_against_builtin(tmp_path):
    _, out = run("chartable", "compute", "--builtin", "g1344-deg8",
                 "--format", "json")
    table = json.loads(out)["results"]["table"]
    path = tmp_path / "table.json"
    path.write_text(json.dumps(table))
    # A freshly loaded table is unverified, so the computed slot refuses it
    # but the external slot accepts it.
    code, _ = run("chartable", "match", str(path), "g1344-deg8")
    assert code == 2
    code, out = run("chartable", "match", "g1344-deg8", str(path),
                    "--format", "json")
    assert code == 0
    assert json.loads(out)["results"]["findings"] == []


@pytest.mark.parametrize("field, value", [
    ("order", "six"), ("order", None), ("comments", 5), ("degree", 3.7),
    ("order", 6.2)])
def test_group_file_malformed_field_exits_two(tmp_path, field, value):
    spec = {"name": "s3", "degree": 3, "generators": ["(1,2)", "(1,2,3)"],
            field: value}
    path = tmp_path / "s3.json"
    path.write_text(json.dumps(spec))
    code, _ = run("order", "--group", str(path))
    assert code == 2


@pytest.mark.parametrize("argv, degree", [
    (["order"], 257), (["chartable", "compute"], 257), (["order"], 10**6)])
def test_group_file_above_degree_limit_exits_two(tmp_path, capsys, argv,
                                                 degree):
    points = ",".join(str(i) for i in range(1, 258))
    spec = {"name": "big", "degree": degree,
            "generators": ["(1,2)", f"({points})"]}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(spec))
    tracemalloc.start()
    try:
        code, out = run(*argv, "--group", str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == (
        f"error: degree {degree} exceeds the limit of 256 points\n")
    assert peak < 1 << 20  # refused before a generator is parsed


@pytest.mark.parametrize("field, value, argv", [
    ("printed_size", "3", ["chartable", "check", "{}"]),
    ("representative", 12, ["chartable", "match", "{}", "paper-table",
                            "--allow-unverified"]),
    ("size", 7.9, ["chartable", "check", "{}"]),
    ("order", 2.0, ["chartable", "match", "{}", "paper-table",
                    "--allow-unverified"]),
    ("order", 0, ["chartable", "check", "{}"]),
    ("order", 0, ["chartable", "match", "{}", "paper-table",
                  "--allow-unverified"])])
def test_table_file_malformed_class_field_exits_two(tmp_path, field, value,
                                                    argv):
    _, out = run("chartable", "compute", "--builtin", "g1344-deg8",
                 "--format", "json")
    table = json.loads(out)["results"]["table"]
    # a printed size, as a published table has, sends the class order
    # through the centralizer check of the class metadata
    table["classes"][1].setdefault("printed_size", table["classes"][1]["size"])
    table["classes"][1][field] = value
    path = tmp_path / "table.json"
    path.write_text(json.dumps(table))
    code, _ = run(*[a.format(path) for a in argv])
    assert code == 2


@pytest.mark.parametrize("where", [
    "group_order", "conductor", "quadratic D", "coefficient conductor"])
def test_table_file_float_integer_field_exits_two(tmp_path, capsys, where):
    """A float where the table JSON needs an integer is malformed input,
    not truncated: 1344.6 is no group order and -7.4 no discriminant."""
    _, out = run("chartable", "compute", "--builtin", "g1344-deg8",
                 "--format", "json")
    table = json.loads(out)["results"]["table"]
    if where == "group_order":
        table["group_order"] = 1344.6
    elif where == "conductor":
        table["conductor"] = 84.0
    elif where == "quadratic D":
        next(v for ch in table["characters"] for v in ch["values"]
             if isinstance(v, dict))["D"] = -7.4
    else:
        table["characters"][0]["values"][1] = {"conductor": 1.0,
                                               "coeffs": ["1"]}
    path = tmp_path / "table.json"
    path.write_text(json.dumps(table))
    capsys.readouterr()
    code, _ = run("chartable", "check", str(path))
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_match_tolerates_unparseable_representative(tmp_path):
    """A representative that is not cycle text only loses its cycle type
    as a matching invariant; the match falls back a constraint level."""
    _, out = run("chartable", "compute", "--builtin", "g1344-deg8",
                 "--format", "json")
    table = json.loads(out)["results"]["table"]
    table["classes"][1]["representative"] = "(a,b)"
    path = tmp_path / "table.json"
    path.write_text(json.dumps(table))
    code, out = run("chartable", "match", str(path), "paper-table",
                    "--allow-unverified")
    assert code == 1
    assert out.startswith("constraint level: size-order\n")


def test_match_tables_at_declared_conductors_beyond_the_cap(tmp_path):
    """Two rational S3 tables declared at conductors 840 and 11 match at
    their working conductor 1, not at lcm 9240, which is over the cap."""
    spec = {"name": "s3", "degree": 3, "generators": ["(1,2)", "(1,2,3)"]}
    group = tmp_path / "s3.json"
    group.write_text(json.dumps(spec))
    _, out = run("chartable", "compute", "--group", str(group),
                 "--format", "json")
    table = json.loads(out)["results"]["table"]
    paths = []
    for conductor in (840, 11):
        path = tmp_path / f"s3_{conductor}.json"
        path.write_text(json.dumps(dict(table, conductor=conductor)))
        paths.append(str(path))
    code, out = run("chartable", "match", *paths, "--allow-unverified",
                    "--format", "json")
    assert code == 0
    assert json.loads(out)["results"]["findings"] == []


def _computed_table_file(tmp_path, name, degree, generators):
    group = tmp_path / f"{name}-group.json"
    group.write_text(json.dumps({"name": name, "degree": degree,
                                 "generators": generators}))
    _, out = run("chartable", "compute", "--group", str(group),
                 "--format", "json")
    table = json.loads(out)["results"]["table"]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(table))
    return str(path), table


def _timed_match(computed, external):
    """Cell findings of `chartable match`, which must take under 1 s."""
    start = time.perf_counter()
    code, out = run("chartable", "match", computed, external,
                    "--allow-unverified", "--format", "json")
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"match took {elapsed:.2f}s"
    findings = json.loads(out)["results"]["findings"]
    return code, {(f["row"], f["column"], f["external"]) for f in findings}


def test_match_cyclic_table_with_itself_is_fast(tmp_path):
    """C10 has only linear characters, and its classes of one order share
    a fingerprint, so a search over permutations has 10! row orders."""
    path, _ = _computed_table_file(tmp_path, "c10", 7, ["(1,2,3,4,5)(6,7)"])
    assert _timed_match(path, path) == (0, set())


def test_match_cyclic_table_with_one_wrong_cell_is_fast(tmp_path):
    path, table = _computed_table_file(tmp_path, "c7", 7,
                                       ["(1,2,3,4,5,6,7)"])
    table["conductor"] = 14
    table["characters"][3]["values"][5] = "2"
    wrong = tmp_path / "c7-wrong.json"
    wrong.write_text(json.dumps(table))
    code, findings = _timed_match(path, str(wrong))
    assert code == 1
    assert findings == {(table["characters"][3]["label"],
                         table["classes"][5]["label"], "2")}


@pytest.mark.parametrize("name, generators", [
    ("c2^3", ["(1,2)", "(3,4)", "(5,6)"]),
    ("c2^4", ["(1,2)", "(3,4)", "(5,6)", "(7,8)"])])
def test_match_shuffled_elementary_abelian_with_wrong_cells_is_fast(
        tmp_path, name, generators):
    """Rows and columns shuffled and two non-identity cells set to 0, a
    value no linear character takes: exactly those two cells are found."""
    path, table = _computed_table_file(tmp_path, name, 2 * len(generators),
                                       generators)
    rng = random.Random(1)
    r = len(table["classes"])
    cols, rows = rng.sample(range(r), r), rng.sample(range(r), r)
    chars = table["characters"]
    shuffled = dict(table, classes=[table["classes"][j] for j in cols],
                    characters=[{"label": chars[i]["label"],
                                 "values": [chars[i]["values"][j] for j in cols]}
                                for i in rows])
    identity = cols.index(0)
    wrong = rng.sample([(a, b) for a in range(r) for b in range(r)
                        if b != identity], 2)
    for a, b in wrong:
        shuffled["characters"][a]["values"][b] = "0"
    external = tmp_path / f"{name}-wrong.json"
    external.write_text(json.dumps(shuffled))
    code, findings = _timed_match(path, str(external))
    assert code == 1
    assert findings == {(shuffled["characters"][a]["label"],
                         shuffled["classes"][b]["label"], "0")
                        for a, b in wrong}


def test_match_representative_beyond_the_degree_limit_is_bounded(tmp_path):
    """A representative naming point 2000000 gets no cycle type instead of
    being parsed over two million points; the match itself is unchanged."""
    path, table = _computed_table_file(tmp_path, "s3", 3, ["(1,2)", "(1,2,3)"])
    table["classes"][1]["representative"] = "(1,2000000)"
    huge = tmp_path / "s3-huge.json"
    huge.write_text(json.dumps(table))
    tracemalloc.start()
    try:
        start = time.perf_counter()
        code, out = run("chartable", "match", str(huge), str(huge),
                        "--allow-unverified")
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (0, "constraint level: full\nrow map: [0, 1, 2]\n"
                              "column map: [0, 1, 2]\n")
    assert elapsed < 0.5, f"match took {elapsed:.2f}s"
    assert peak < 1 << 20


M11_GENERATORS = ["(1,2,3,4,5,6,7,8,9,10,11)", "(3,7,11,8)(4,10,5,6)"]


def test_conductor_cap_refuses_before_class_constants(tmp_path, capsys,
                                                      monkeypatch):
    """M11 has exponent 1320: the cap refuses it with the same message
    before the class constants, which are never computed."""
    def refuse(class_set):
        raise AssertionError("class constants computed before the caps")

    monkeypatch.setattr(dixon, "class_constants", refuse)
    group = tmp_path / "m11.json"
    group.write_text(json.dumps({"name": "m11", "degree": 11,
                                 "generators": M11_GENERATORS}))
    code, out = run("chartable", "compute", "--group", str(group))
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == "error: conductor 1320 exceeds cap 1000\n"


def test_closed_stdout_exits_141_without_traceback():
    """A reader that went away (`ctrz ... | head -1`) is exit 141, with
    nothing on stderr, not a BrokenPipeError traceback and exit 1."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ctrz", "chartable", "check", "paper-table"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""


@pytest.mark.parametrize("argv", [
    ["orbits", "--builtin", "g1344-deg8", "--t", "5000"],
    ["orbits", "--builtin", "g1344-deg8", "--t", "5000", "--format", "json"],
    ["orbits", "--builtin", "g1344-deg8", "--t", "4765"],  # counted first
    ["structure", "--builtin", "g1344-deg14", "--k", "2000"],
    ["dims", "--builtin", "g1344-deg14", "--from", "2000", "--to", "2000",
     "--format", "csv"],
    ["decompose", "--builtin", "g1344-deg8", "--k", "5000", "--format", "csv"],
], ids=["orbits", "orbits-json", "orbits-counted", "structure", "dims-csv",
        "decompose-csv"])
def test_result_too_long_to_print_exits_two(capsys, argv):
    """Python prints an int of at most 4300 digits; a longer result is a
    capacity limit, exit 2 with one line, not a traceback and exit 1."""
    code, out = run(*argv)
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == (
        "error: the result has more than 4300 decimal digits, the limit for "
        "printing an integer\n")


def test_orbit_count_too_long_to_print_is_refused_before_counting(capsys):
    """At least 8**t / 1344 orbits: refused from bit lengths alone, where
    the Burnside sum would hold 8**(10**9)."""
    start = time.perf_counter()
    code, out = run("orbits", "--builtin", "g1344-deg8", "--t", "1000000000")
    elapsed = time.perf_counter() - start
    assert (code, out) == (2, "")
    assert "4300 decimal digits" in capsys.readouterr().err
    assert elapsed < 1.0, f"refusal took {elapsed:.2f}s"


def test_longest_printable_orbit_count_prints():
    code, out = run("orbits", "--builtin", "g1344-deg8", "--t", "4764")
    assert code == 0
    assert len(out) == 4301  # 4300 digits and a newline
