"""Command line behavior: output formats, exit codes, file flows.

Exit code contract: 0 success, 1 findings reported, 2 bad input,
3 internal inconsistency or refused unverified decomposition.
"""

import argparse
import io
import contextlib
import csv
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from ctrz import cli, datasets, dixon
from ctrz.chartab import DecompositionError, display_value, table_from_dict
from ctrz.cli import build_parser, main
from ctrz.datasets import transcription_table
from ctrz.perm import ClassSet, FiniteGroup, Permutation
from ctrz.pipeline import builtin_analysis


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


@pytest.mark.parametrize("builtin, column", [("g1344-deg8", "C3"),
                                             ("g1344-deg14", "C4")])
def test_transcription_takes_the_builtin_side_in_either_slot(builtin, column):
    """In the computed slot as in the external one, paper-table is read
    on the side of the builtin it meets, and the report is the same:
    full constraints, the two printed cells that fail orthogonality, the
    same printed class metadata findings with each operand's side in its
    own field, the same printed diagonal notes and one conventional-choice
    note on the same pair of columns."""
    reports = []
    for operands in ([builtin, "paper-table"],
                     ["paper-table", builtin, "--allow-unverified"]):
        code, out = run("chartable", "match", *operands, "--format", "json")
        results = json.loads(out)["results"]
        assert code == 1
        assert results["matching"]["constraint_level"] == "full"
        cells = [(f["row"], f["column"].rstrip("'"))
                 for f in results["findings"] if f["kind"] == "cell"]
        assert cells == [("chi2", column), ("chi3", column)]
        reports.append(results)
    forward, reverse = reports
    kinds = [Counter(f["kind"] for f in r["findings"]) for r in reports]
    assert kinds == [{"cell": 2, "class-size": 3, "class-order": 2}] * 2
    # the same class findings, each operand's side in its own field
    classes = [[f for f in r["findings"] if f["kind"] != "cell"] for r in reports]
    assert classes[1] == [dict(f, external=f["computed"], computed=f["external"])
                          for f in classes[0]]
    # the transcription prints 168 for the class of 84 elements
    sizes = [[(f["external"], f["computed"]) for f in found
              if f["kind"] == "class-size" and f["column"].rstrip("'") == "C6"]
             for found in classes]
    assert sizes == [[("168", "84")], [("84", "168")]]
    # the two maps are inverse, and each note names the same columns
    maps = forward["matching"]["columns"], reverse["matching"]["columns"]
    assert [maps[1][j] for j in maps[0]] == list(range(11))
    comp_labels, ext_labels = ([c.label for c in t.classes]
                               for t in (builtin_analysis(builtin).table,
                                         transcription_table(builtin)))
    notes = forward["matching"]["notes"], reverse["matching"]["notes"]
    assert len(notes[0]) == len(notes[1]) == 3
    pair = notes[0][0].split()[1]  # "columns C10/C11 match either way ..."
    images = [comp_labels[maps[0][ext_labels.index(x)]] for x in pair.split("/")]
    assert notes[1][0] == notes[0][0].replace(pair, "/".join(images))
    assert notes[0][1:] == notes[1][1:]
    assert all(n.startswith("printed diagonal variant") for n in notes[0][1:])


def test_match_reports_differing_group_orders(tmp_path):
    """A table file that differs from the builtin only in its group order
    matches at full constraints and reports that order."""
    _, out = run("chartable", "compute", "--builtin", "g1344-deg8",
                 "--format", "json")
    table = json.loads(out)["results"]["table"]
    path = tmp_path / "table.json"
    path.write_text(json.dumps(dict(table, group_order=10**30)))
    code, out = run("chartable", "match", "g1344-deg8", str(path))
    assert code == 1
    assert out.splitlines()[0] == "constraint level: full"
    assert [x for x in out.splitlines() if x.startswith("finding")] == [
        f"finding: group-order [table]: {10**30} vs 1344 "
        "(group orders must be equal)"]


def _s3_file(tmp_path) -> str:
    path = tmp_path / "s3.json"
    path.write_text(json.dumps({"name": "s3", "degree": 3,
                                "generators": ["(1,2,3)", "(1,2)"]}))
    return str(path)


@pytest.mark.parametrize("builtin", ["g1344-deg8", "paper-table"])
def test_compute_refuses_builtin_and_group_together(tmp_path, capsys,
                                                   builtin):
    assert run("chartable", "compute", "--builtin", builtin,
               "--group", _s3_file(tmp_path)) == (2, "")
    assert capsys.readouterr().err == (
        "error: choose either --builtin or --group, not both\n")


_ENVELOPE_CASES = [
    (["order", "--builtin", "g1344-deg8"], 0),
    (["classes", "--group", "S3"], 0),
    (["permchar", "--builtin", "g1344-deg14"], 0),
    (["chartable", "compute", "--builtin", "paper-table"], 0),
    (["chartable", "compute", "--group", "S3"], 0),
    (["chartable", "check", "paper-table"], 1),
    (["chartable", "check", "g1344-deg8"], 0),
    (["chartable", "match", "g1344-deg8", "paper-table"], 1),
    (["chartable", "match", "g1344-deg14", "g1344-deg8"], 0),
    (["decompose", "--group", "S3", "--k", "3"], 0),
    (["structure", "--builtin", "g1344-deg8", "--k", "2"], 0),
    (["dims", "--builtin", "g1344-deg14", "--from", "1", "--to", "3"], 0),
    (["orbits", "--group", "S3", "--t", "3", "--method", "direct"], 0),
]


def test_envelope_cases_cover_every_subcommand():
    commands = {" ".join(argv[:2] if argv[0] == "chartable" else argv[:1])
                for argv, _ in _ENVELOPE_CASES}
    assert commands == set(_options(build_parser())) - {"chartable"}


@pytest.mark.parametrize("argv, expected", _ENVELOPE_CASES,
                         ids=[" ".join(a) for a, _ in _ENVELOPE_CASES])
def test_every_subcommand_reports_one_json_envelope(tmp_path, argv,
                                                    expected):
    """Four keys; command is the words typed; status is findings exactly
    when the exit code is 1."""
    argv = [_s3_file(tmp_path) if x == "S3" else x for x in argv]
    code, out = run(*argv, "--format", "json")
    report = json.loads(out)
    assert code == expected
    assert sorted(report) == ["command", "dataset", "results", "status"]
    words = argv[:2] if argv[0] == "chartable" else argv[:1]
    assert report["command"] == " ".join(words)
    assert (report["status"] == "findings") == (code == 1)
    assert report["status"] in ("ok", "findings")


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
    assert json.loads(out)["results"]["method"] == "cross-checked"


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


def test_dims_rows_past_twelve_carry_every_route(tmp_path):
    code, out = run("dims", "--builtin", "g1344-deg8", "--from", "12",
                    "--to", "14", "--format", "json")
    assert code == 0
    rows = json.loads(out)["results"]["dims"]
    assert [r["k"] for r in rows] == [12, 13, 14]
    for r in rows:
        assert r["dimension"] == r["sum_of_squares"] == \
            r["fixed_point_formula"] == r["closed_form"]
    spec = tmp_path / "c5.json"
    spec.write_text(json.dumps({"name": "c5", "degree": 5,
                                "generators": ["(1,2,3,4,5)"]}))
    code, out = run("dims", "--group", str(spec), "--from", "13", "--to",
                    "13", "--format", "json")
    assert code == 0
    row, = json.loads(out)["results"]["dims"]
    assert row == {"k": 13, "dimension": 5 ** 25, "sum_of_squares": 5 ** 25,
                   "fixed_point_formula": 5 ** 25}


def test_decompose_at_large_k_is_cross_checked_and_fast():
    start = time.perf_counter()
    code, out = run("decompose", "--builtin", "g1344-deg14", "--k", "3000",
                    "--format", "json")
    elapsed = time.perf_counter() - start
    assert code == 0
    assert json.loads(out)["results"]["method"] == "cross-checked"
    assert elapsed < 1.0, f"k=3000 took {elapsed:.2f}s"


def test_dims_refuses_a_dimension_too_long_to_print_before_computing(capsys):
    """The dimension counts orbits on 2k-tuples, so --to 3000 is refused
    from bit lengths, though the orbits on 3000-tuples would print."""
    start = time.perf_counter()
    code, out = run("dims", "--builtin", "g1344-deg8", "--from", "1",
                    "--to", "3000")
    elapsed = time.perf_counter() - start
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == (
        "error: the result has more than 4300 decimal digits, the limit for "
        "printing an integer\n")
    assert elapsed < 0.5, f"refusal took {elapsed:.2f}s"


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


def test_orbits_direct_refuses_past_the_tuple_cap(capsys):
    """The refusal names the method as the CLI spells it, so it reads
    right from the command line and from the library alike."""
    assert run("orbits", "--builtin", "g1344-deg14", "--t", "9",
               "--method", "direct") == (2, "")
    assert capsys.readouterr().err == (
        "error: 14**9 tuples exceed cap 10000000; use the burnside method\n")


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


@pytest.mark.parametrize("argv, most", [
    (["chartable", "compute"], 1), (["classes"], 1),
    (["orbits", "--t", "3"], 1), (["orbits", "--t", "3", "--method", "direct"], 1),
    (["decompose", "--k", "3"], 1), (["dims", "--from", "1", "--to", "3"], 1),
    (["permchar"], 1), (["order"], 0),
], ids=["compute", "classes", "orbits-burnside", "orbits-direct",
        "decompose", "dims", "permchar", "order"])
def test_group_commands_build_no_element_index(tmp_path, monkeypatch, argv, most):
    """The group keeps no element list or index, and a command makes the
    elements at most once: one products() call, none for the order."""
    for name in ("words", "elements", "index", "element_index"):
        assert not hasattr(FiniteGroup, name)
    for name in ("class_of", "centralizer_order"):
        assert not hasattr(ClassSet, name)
    assert not hasattr(Permutation, "is_identity")
    calls = []
    products = FiniteGroup.products

    def counted(group):
        calls.append(group)
        return products(group)

    monkeypatch.setattr(FiniteGroup, "products", counted)
    path = tmp_path / "psl27.json"
    path.write_text(json.dumps({"name": "psl27", "degree": 7, "generators":
                                ["(1,2,3,4,5,6,7)", "(2,3)(4,7)"]}))
    code, _ = run(*argv, "--group", str(path), "--format", "json")
    assert code == 0
    assert len(calls) <= most


def test_group_file_order_mismatch(tmp_path):
    spec = {"name": "klein", "degree": 4, "order": 5,
            "generators": ["(1,2)(3,4)", "(1,3)(2,4)"]}
    path = tmp_path / "wrong.json"
    path.write_text(json.dumps(spec))
    code, _ = run("order", "--group", str(path))
    assert code == 2


def test_group_above_the_order_cap_exits_2_with_the_capacity_message(tmp_path):
    spec = {"name": "s20", "degree": 20,
            "generators": ["(1,2)", "(" + ",".join(map(str, range(1, 21))) + ")"]}
    path = tmp_path / "s20.json"
    path.write_text(json.dumps(spec))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = run("chartable", "compute", "--group", str(path))
    assert (code, out) == (2, "")
    assert err.getvalue() == ("error: group order exceeds cap 10000000; "
                              "raise order_cap if intended\n")


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


def test_group_file_with_no_generators_exits_two(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"name": "x", "degree": 3, "generators": []}))
    assert run("order", "--group", str(path)) == (2, "")
    assert capsys.readouterr().err == f"error: group spec {path} lists no generators\n"


def test_group_file_with_a_comments_list_loads(tmp_path):
    path = tmp_path / "s3.json"
    path.write_text(json.dumps({"name": "s3", "degree": 3,
                                "generators": ["(1,2)", "(1,2,3)"],
                                "comments": ["a transposition and a 3-cycle"]}))
    assert run("order", "--group", str(path)) == (0, "6\n")


@pytest.mark.parametrize("argv, message", [
    (["structure", "--k", "0"], "--k must be at least 1"),
    (["orbits", "--t", "0"], "--t must be at least 1")])
def test_structure_and_orbits_refuse_a_zero_power(capsys, argv, message):
    assert run(*argv, "--builtin", "g1344-deg8") == (2, "")
    assert capsys.readouterr().err == f"error: {message}\n"


def test_an_inconsistency_exits_three_through_main(monkeypatch, capsys):
    """A closed form that evaluates to no integer is an inconsistency,
    not a finding: exit 3, its text on stderr and nothing on stdout."""
    assert builtin_analysis("g1344-deg8").family  # proven before the patch
    bases, den, rows = datasets.CLOSED_FORMS["g1344-deg8"]
    monkeypatch.setitem(datasets.CLOSED_FORMS, "g1344-deg8",
                        (bases, den, ((rows[0][0] + 1,) + rows[0][1:],) + rows[1:]))
    code, out = run("decompose", "--builtin", "g1344-deg8", "--k", "1",
                    "--method", "closed-form")
    assert (code, out) == (3, "")
    assert capsys.readouterr().err == (
        "inconsistency: closed form for multiplicity 1 evaluated to "
        f"{Fraction(den + 8, den)}, not a nonnegative integer\n")


def _c2_table_file(tmp_path, first_row) -> str:
    table = {"name": "c2", "group_order": 2, "conductor": 3,
             "classes": [{"label": "1a", "size": 1, "order": 1},
                         {"label": "2a", "size": 1, "order": 2}],
             "characters": [{"label": "chi1", "values": first_row},
                            {"label": "chi2", "values": ["1", "-1"]}]}
    path = tmp_path / "c2.json"
    path.write_text(json.dumps(table))
    return str(path)


@pytest.mark.parametrize("first_row, message", [
    ("11", "malformed table JSON: values must be a list, not str"),
    ({"1a": "1", "2a": "1"}, "malformed table JSON: values must be a list, not dict"),
    (["1", {"conductor": 3, "coeffs": "12"}],
     "bad cyclotomic value encoding: {'conductor': 3, 'coeffs': '12'}")])
def test_table_json_string_or_object_where_a_list_belongs_exits_two(
        tmp_path, capsys, first_row, message):
    """A string or an object iterates, but is no row of cells and no
    coefficient vector: "11" is not the two cells 1 and 1, and "12" not
    the coefficients 1 and 2."""
    path = _c2_table_file(tmp_path, first_row)
    assert run("chartable", "check", path) == (2, "")
    assert capsys.readouterr().err == f"error: {message}\n"
    assert run("chartable", "check", _c2_table_file(tmp_path, ["1", "1"])) == \
        (0, "table is consistent\n")


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


C7_C11_C13 = ["(1,2,3,4,5,6,7)", "(8,9,10,11,12,13,14,15,16,17,18)",
              "(19,20,21,22,23,24,25,26,27,28,29,30,31)"]


def test_conductor_cap_refuses_before_class_constants(tmp_path, capsys,
                                                      monkeypatch):
    """C7 x C11 x C13 on 31 points has exponent and field conductor 1001:
    the cap refuses it as a capacity limit, naming that conductor, before
    the class constants, which are never computed, and at once, though
    the group has 1001 classes."""
    def refuse(class_set):
        raise AssertionError("class constants computed before the caps")

    monkeypatch.setattr(dixon, "class_constants", refuse)
    group = tmp_path / "c1001.json"
    group.write_text(json.dumps({"name": "c1001", "degree": 31,
                                 "generators": C7_C11_C13}))
    start = time.perf_counter()
    code, out = run("chartable", "compute", "--group", str(group))
    elapsed = time.perf_counter() - start
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == "error: conductor 1001 exceeds cap 1000\n"
    assert elapsed < 2.0, f"refusal took {elapsed:.2f}s"


def test_quadratic_cell_above_the_cap_is_refused_at_once(tmp_path, capsys):
    """A table whose conductor and first cell's D are the prime
    10**9 + 9 (1 mod 4) is refused by the cap before any sum over
    10**9 terms is built."""
    big = 1000000009
    table = {"name": "big", "group_order": 1, "conductor": big,
             "classes": [{"label": "1A", "size": 1, "order": 1}],
             "characters": [{"label": "X.1",
                             "values": [{"D": big, "a": "0", "b": "1"}]}]}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(table))
    start = time.perf_counter()
    code, out = run("chartable", "check", str(path))
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == f"error: conductor {big} exceeds cap 1000\n"


def test_huge_quadratic_d_outside_the_conductor_is_refused_at_once(
        tmp_path, capsys):
    """D = -(2**61 - 1) is prime, so factoring it first takes minutes;
    it does not divide the C7 table's conductor, which is checked first."""
    path, table = _computed_table_file(tmp_path, "c7", 7, ["(1,2,3,4,5,6,7)"])
    D = -2305843009213693951
    table["characters"][1]["values"][1] = {"D": D, "a": "0", "b": "1"}
    Path(path).write_text(json.dumps(table))
    start = time.perf_counter()
    code, out = run("chartable", "check", path)
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == (
        f"error: sqrt({D}) does not lie in conductor 7\n")


@pytest.mark.parametrize("swap", [False, True])
def test_the_first_of_two_malformed_cells_is_reported(tmp_path, capsys, swap):
    """Cells are read in row-major order, each distinct encoding once;
    of two different malformed cells the first is reported, exit 2."""
    path, table = _computed_table_file(tmp_path, "c7", 7, ["(1,2,3,4,5,6,7)"])
    bad = [{"D": "x", "a": "0", "b": "1"}, "1/x"]
    if swap:
        bad.reverse()
    table["characters"][1]["values"][2] = bad[0]
    table["characters"][2]["values"][1] = bad[1]
    Path(path).write_text(json.dumps(table))
    first = ("not an exact rational string: '1/x'" if swap else
             "bad quadratic value encoding: {'D': 'x', 'a': '0', 'b': '1'}")
    assert run("chartable", "check", path) == (2, "")
    assert capsys.readouterr().err == f"error: {first}\n"


def test_a_string_cell_never_shares_a_decode_with_another_cell(tmp_path, capsys):
    """The cell decode memo keys a string cell on the string: the int 1
    after the string "1", and a string holding the JSON text of a
    quadratic cell after that cell, are each decoded, and refused."""
    path, table = _computed_table_file(tmp_path, "psl27", 7,
                                       ["(1,2,3,4,5,6,7)", "(2,3)(4,7)"])
    rows = [ch["values"] for ch in table["characters"]]
    rows[0][-1] = 1
    Path(path).write_text(json.dumps(table))
    assert run("chartable", "check", path) == (2, "")
    assert capsys.readouterr().err == "error: unrecognized exact value encoding: 1\n"
    rows[0][-1] = "1"
    quadratic = next(v for row in rows for v in row if isinstance(v, dict))
    text = json.dumps(quadratic, sort_keys=True)
    rows[-1][-1] = text
    Path(path).write_text(json.dumps(table))
    assert run("chartable", "check", path) == (2, "")
    assert capsys.readouterr().err == f"error: not an exact rational string: {text!r}\n"


def test_rational_with_too_many_digits_is_a_capacity_limit(tmp_path, capsys):
    """A cell 1/777...7 of 4000 digits is refused when read, with a
    message naming the limit, not one calling the input malformed, and
    not a traceback from printing the violation its sums would raise."""
    path, table = _computed_table_file(tmp_path, "c7", 7, ["(1,2,3,4,5,6,7)"])
    table["characters"][1]["values"][1] = "1/" + "7" * 4000
    Path(path).write_text(json.dumps(table))
    code, out = run("chartable", "check", path)
    assert (code, out) == (2, "")
    err = capsys.readouterr().err
    assert err == ("error: a rational in the table has more than 100 digits "
                   "in its numerator or denominator, the limit for table "
                   "values\n")
    assert "malformed" not in err


@pytest.mark.parametrize("order", [3, 10**18])
def test_element_order_not_dividing_the_group_order_is_a_violation(
        tmp_path, order):
    """By Lagrange's theorem an element order divides the group order;
    a C5 table with one class order changed fails check and names it."""
    path, table = _computed_table_file(tmp_path, "c5", 5, ["(1,2,3,4,5)"])
    label = table["classes"][2]["label"]
    table["classes"][2]["order"] = order
    Path(path).write_text(json.dumps(table))
    assert run("chartable", "check", path) == (1, (
        f"violation: class-order [{label}]: element order {order} does not "
        "divide group order 5\n"))


def test_allow_unverified_does_not_outlive_its_call(capsys):
    """main reuses one parser; a flag given to one call is not seen by
    the next."""
    assert run("chartable", "match", "paper-table", "g1344-deg8",
               "--allow-unverified")[0] == 1
    capsys.readouterr()
    assert run("chartable", "match", "paper-table", "g1344-deg8") == (2, "")
    assert capsys.readouterr().err == (
        "error: computed operand paper-table is an unverified table; pass "
        "--allow-unverified to match against it anyway\n")


@pytest.mark.parametrize("command", [["chartable", "check"],
                                     ["order", "--group"]])
def test_json_int_longer_than_python_reads_exits_2(tmp_path, capsys, command):
    """json refuses an int of more than 4300 digits with a ValueError
    that is not a JSONDecodeError; it is a bad file, exit 2."""
    path = tmp_path / "long.json"
    path.write_text('{"group_order": ' + "1" * 5000 + "}")
    code, out = run(*command, str(path))
    assert (code, out) == (2, "")
    assert "Exceeds the limit (4300 digits)" in capsys.readouterr().err


@pytest.mark.parametrize("point, message", [
    ("\u00b2", "bad point"), ("\u0661", "bad point"),
    ("9" * 5000, "out of range")],
    ids=["superscript", "arabic-indic", "too-long"])
def test_group_file_malformed_point_exits_two(tmp_path, capsys, point,
                                              message):
    """A point that str.isdigit passes but is not ASCII digits, or one
    longer than int() reads, is bad input: exit 2 with one error line."""
    spec = {"name": "s3", "degree": 3, "generators": [f"(1,{point})", "(1,2,3)"]}
    path = tmp_path / "s3.json"
    path.write_text(json.dumps(spec))
    code, out = run("order", "--group", str(path))
    assert (code, out) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err and err.count("\n") == 1


def _child_env():
    """The environment with src first on PYTHONPATH, for a child
    interpreter that imports ctrz."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def test_import_loads_no_introspection_modules():
    """ctrz is stdlib-only and imports what it uses: a fresh import of
    ctrz and ctrz.cli loads none of dataclasses, inspect, ast or dis.
    The child takes the difference of sys.modules itself, so whatever
    site loads first does not count."""
    code = ("import sys; before = set(sys.modules); import ctrz, ctrz.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=_child_env(), timeout=60, check=True)
    loaded = set(proc.stdout.split())
    assert "ctrz.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "ast", "dis"}


def test_closed_stdout_exits_141_without_traceback():
    """A reader that went away (`ctrz ... | head -1`) is exit 141, with
    nothing on stderr, not a BrokenPipeError traceback and exit 1."""
    env = _child_env()
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


@pytest.mark.parametrize("argv", [
    ["decompose", "--builtin", "g1344-deg8", "--k", "20000", "--method",
     "recurrence"],
    ["decompose", "--builtin", "g1344-deg8", "--k", "20000", "--method",
     "direct"],
    ["decompose", "--builtin", "g1344-deg14", "--k", "20000"],
    ["structure", "--builtin", "g1344-deg8", "--k", "20000"],
    ["dims", "--builtin", "g1344-deg8", "--from", "1", "--to", "20000"],
], ids=["recurrence", "direct", "cross-checked", "structure", "dims"])
def test_tensor_power_too_long_to_print_is_refused_before_computing(capsys, argv):
    """The trivial multiplicity counts the orbits on k-tuples, at least
    n**k / |G| of them, so bit lengths refuse k before any route runs."""
    start = time.perf_counter()
    code, out = run(*argv)
    elapsed = time.perf_counter() - start
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == (
        "error: the result has more than 4300 decimal digits, the limit for "
        "printing an integer\n")
    assert elapsed < 0.5, f"refusal took {elapsed:.2f}s"


def test_checks_ahead_of_the_tensor_power_refusal_still_win(tmp_path, capsys):
    spec = tmp_path / "c5.json"
    spec.write_text(json.dumps({"name": "c5", "degree": 5,
                                "generators": ["(1,2,3,4,5)"]}))
    for argv, err in [
        (["decompose", "--group", str(spec), "--k", "20000", "--method",
          "closed-form"], "error: no closed forms are published for c5\n"),
        (["decompose", "--builtin", "g1344-deg8", "--k", "0"],
         "error: --k must be at least 1\n"),
        (["structure", "--k", "20000"],
         "error: select a group with --builtin or --group\n"),
        (["dims", "--group", str(tmp_path / "none.json"), "--from", "1",
          "--to", "20000"], None),
    ]:
        assert run(*argv) == (2, "")
        shown = capsys.readouterr().err
        assert shown == err if err else shown.startswith("error: cannot read group spec")


def test_longest_printable_orbit_count_prints():
    code, out = run("orbits", "--builtin", "g1344-deg8", "--t", "4764")
    assert code == 0
    assert len(out) == 4301  # 4300 digits and a newline


def test_decomposition_error_exits_3(monkeypatch, capsys):
    """A class function that fails to decompose is an internal
    cross-check failure, so exit 3 with the finding on stderr."""
    def fail(chi, table, k):
        raise DecompositionError("multiplicity 1/2 is not an integer")

    monkeypatch.setattr(cli, "multiplicities_direct", fail)
    code, out = run("decompose", "--builtin", "g1344-deg8", "--k", "2",
                    "--method", "direct")
    assert (code, out) == (3, "")
    assert capsys.readouterr().err == (
        "finding: multiplicity 1/2 is not an integer\n")


def _csv_rows(*argv):
    code, out = run(*argv, "--format", "csv")
    rows = list(csv.reader(io.StringIO(out)))
    assert rows and all(len(row) == len(rows[0]) for row in rows)
    return code, rows


def test_csv_cells_holding_commas_are_quoted(tmp_path):
    """Every CSV row parses to the header's width, each cell as the JSON
    report or display_value gives it."""
    code, rows = _csv_rows("chartable", "check", "paper-table")
    results = json.loads(run("chartable", "check", "paper-table",
                             "--format", "json")[1])["results"]
    assert code == 1
    assert rows == [["kind", "subject"]] + [
        [v["kind"], v["subject"]] for v in results["violations"]] + [
        [f["kind"], f.get("column") or f.get("row") or "table"]
        for f in results["metadata_findings"]]
    assert any("," in row[1] for row in rows)

    spec = tmp_path / "c5.json"
    spec.write_text(json.dumps({"name": "c5", "degree": 5,
                                "generators": ["(1,2,3,4,5)"]}))
    code, rows = _csv_rows("chartable", "compute", "--group", str(spec))
    table = table_from_dict(json.loads(run(
        "chartable", "compute", "--group", str(spec),
        "--format", "json")[1])["results"]["table"])
    assert code == 0
    assert rows == [["label"] + [c.label for c in table.classes]] + [
        [label] + [display_value(v) for v in row]
        for label, row in zip(table.characters, table.values)]
    assert any("," in cell for row in rows for cell in row)


def _options(parser, prefix=()):
    """The arguments of every (sub)command, keyed by its name path, in
    parser order: each one's option strings (a positional's name) with its
    dest, choices, default, required and type."""
    out = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                out.update(_options(sub, prefix + (name,)))
    if prefix:
        out[" ".join(prefix)] = [
            ("/".join(a.option_strings) or a.dest,
             (a.dest, a.choices, a.default, a.required, a.type))
            for a in parser._actions
            if not isinstance(a, argparse._SubParsersAction)]
    return out


def test_every_subcommand_takes_exactly_its_pinned_options():
    """Adding or dropping a flag, or changing what one accepts, is a
    conscious edit of this table; --allow-unverified is on match, the one
    command that reads it."""
    helps = [("-h/--help", ("help", None, argparse.SUPPRESS, False, None))]
    builtins = ["g1344-deg8", "g1344-deg14"]
    group = [("--builtin", ("builtin", builtins, None, False, None)),
             ("--group", ("group", None, None, False, None))]
    fmt = [("--format", ("fmt", ["table", "json", "csv"], "table", False,
                         None))]
    k = [("--k", ("k", None, None, True, int))]
    table = (None, None, True, None)
    assert _options(build_parser()) == {
        "order": helps + group + fmt,
        "classes": helps + group + fmt,
        "permchar": helps + group + fmt,
        "chartable": helps,
        "chartable compute": helps + [
            ("--builtin", ("builtin", builtins + ["paper-table"], None,
                           False, None)),
            ("--group", ("group", None, None, False, None))] + fmt,
        "chartable check": helps + [("source", ("source",) + table)] + fmt,
        "chartable match": helps + [
            ("computed", ("computed",) + table),
            ("external", ("external",) + table),
            ("--allow-unverified", ("allow_unverified", None, False, False,
                                    None))] + fmt,
        "decompose": helps + group + k + [
            ("--method", ("method", ["direct", "recurrence", "closed-form"],
                          None, False, None))] + fmt,
        "structure": helps + group + k + fmt,
        "dims": helps + group + [
            ("--from", ("k_from", None, None, True, int)),
            ("--to", ("k_to", None, None, True, int))] + fmt,
        "orbits": helps + group + [
            ("--t", ("t", None, None, True, int)),
            ("--method", ("method", ["burnside", "direct"], "burnside",
                          False, None))] + fmt,
    }


@pytest.mark.parametrize("rows,classes", [(3, 4), (4, 3)])
def test_match_refuses_tables_that_are_not_square(tmp_path, capsys, rows, classes):
    """Two tables of the same shape, but with row count and class count
    unequal, exit 2 before the search, with no traceback."""
    data = {"name": "odd", "group_order": 4, "conductor": 1, "verified": True,
            "classes": [{"label": f"C{j + 1}", "size": 1, "order": 1 if j == 0 else 2,
                         "representative": None} for j in range(classes)],
            "characters": [{"label": f"chi{i + 1}", "values": ["1"] * classes}
                           for i in range(rows)]}
    path = tmp_path / "odd.json"
    path.write_text(json.dumps(data))
    assert main(["chartable", "match", str(path), str(path), "--allow-unverified"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == (f"error: tables are not square: {rows} rows, "
                                 f"{classes} classes\n")
