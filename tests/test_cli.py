"""Command line behavior: output formats, exit codes, file flows.

Exit code contract: 0 success, 1 findings reported, 2 bad input,
3 internal inconsistency or refused unverified decomposition.
"""

import io
import contextlib
import json

import pytest

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
    ("order", "six"), ("order", None), ("comments", 5)])
def test_group_file_malformed_field_exits_two(tmp_path, field, value):
    spec = {"name": "s3", "degree": 3, "generators": ["(1,2)", "(1,2,3)"],
            field: value}
    path = tmp_path / "s3.json"
    path.write_text(json.dumps(spec))
    code, _ = run("order", "--group", str(path))
    assert code == 2


@pytest.mark.parametrize("field, value, argv", [
    ("printed_size", "3", ["chartable", "check", "{}"]),
    ("representative", 12, ["chartable", "match", "{}", "paper-table",
                            "--allow-unverified"])])
def test_table_file_malformed_class_field_exits_two(tmp_path, field, value,
                                                    argv):
    _, out = run("chartable", "compute", "--builtin", "g1344-deg8",
                 "--format", "json")
    table = json.loads(out)["results"]["table"]
    table["classes"][1][field] = value
    path = tmp_path / "table.json"
    path.write_text(json.dumps(table))
    code, _ = run(*[a.format(path) for a in argv])
    assert code == 2


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
