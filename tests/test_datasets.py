"""Builtin datasets: the two permutation groups and the published
table transcription.

The transcription is recorded as printed, including its internal
inconsistencies; these tests pin down its shape, not its correctness,
which is the job of validate and match_columns.
"""

import contextlib
import io
import json

import pytest

from ctrz import cli
from ctrz.errors import InputError
from ctrz.perm import FiniteGroup, parse_cycles
from ctrz.datasets import (BUILTIN_GROUP_NAMES, TABLE_DATASET_NAME,
                           TABLE_PRINTED_DIAG, builtin_group,
                           load_group_file, transcription_table)


def test_builtin_names():
    assert BUILTIN_GROUP_NAMES == ("g1344-deg8", "g1344-deg14")
    assert TABLE_DATASET_NAME == "paper-table"


def test_builtin_groups_have_order_1344():
    for name in BUILTIN_GROUP_NAMES:
        spec = builtin_group(name)
        gens = [parse_cycles(t, spec["degree"]) for t in spec["generators"]]
        group = FiniteGroup(gens)
        assert group.order == 1344
        assert group.order == spec["order"]


def test_builtin_group_unknown_name():
    with pytest.raises(InputError):
        builtin_group("nope")


def test_builtin_specs_carry_source_comments():
    """Both generator lists needed repairs relative to the published
    strings; the comments must preserve what was actually printed."""
    g = builtin_group("g1344-deg8")
    assert any(")(" in c or "run" in c.lower() for c in g["comments"])
    h = builtin_group("g1344-deg14")
    assert any("(1,2,3,4,5,6)" in c for c in h["comments"])


def test_transcription_table_sides_share_values():
    tg = transcription_table("g1344-deg8")
    th = transcription_table("g1344-deg14")
    assert tg.values == th.values
    assert tg.conductor == th.conductor == 84
    assert not tg.verified and not th.verified
    assert tg.name == th.name == TABLE_DATASET_NAME


def test_transcription_table_is_built_once_per_side():
    for side in BUILTIN_GROUP_NAMES:
        assert transcription_table(side) is transcription_table(side)
    assert transcription_table("g1344-deg8") is not transcription_table("g1344-deg14")


def _stored(table):
    return (table.name, table.group_order, table.conductor, table.verified,
            table.classes, table.characters,
            [[(v.conductor, v.num, v.den) for v in row] for row in table.values])


def test_the_commands_leave_the_shared_transcription_unchanged():
    """check and both matches against paper-table share the cached table;
    afterwards it still equals a fresh build in every cell, class field
    and label."""
    for argv in (["chartable", "check", "paper-table"],
                 ["chartable", "match", "g1344-deg8", "paper-table"],
                 ["chartable", "match", "g1344-deg14", "paper-table"]):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 1
    for side in BUILTIN_GROUP_NAMES:
        assert _stored(transcription_table(side)) == \
            _stored(transcription_table.__wrapped__(side))


def test_transcription_side_aliases():
    assert transcription_table("g1344-deg8").classes[1].label == "C2"
    assert transcription_table("g1344-deg14").classes[1].label == "C2'"
    for name in ("x", "g", "h", "deg8", "8", "deg14", "14"):
        with pytest.raises(InputError):
            transcription_table(name)


def test_transcription_class_metadata():
    tg = transcription_table("g1344-deg8")
    assert [c.label for c in tg.classes] == [
        "C1", "C2", "C6", "C4", "C3", "C5", "C9", "C7", "C8", "C10", "C11"]
    assert [c.size for c in tg.classes] == [
        1, 7, 84, 42, 42, 224, 224, 168, 168, 192, 192]
    assert [c.printed_size for c in tg.classes] == [
        1, 7, 168, 42, 42, 84, 224, 168, 224, 192, 192]
    th = transcription_table("g1344-deg14")
    assert [c.label for c in th.classes] == [
        "C1'", "C2'", "C6'", "C3'", "C4'", "C5'", "C9'", "C7'", "C8'",
        "C10'", "C11'"]


def test_transcription_representatives_parse_at_their_degree():
    for side, degree in (("g1344-deg8", 8), ("g1344-deg14", 14)):
        tab = transcription_table(side)
        for c in tab.classes:
            p = parse_cycles(c.representative, degree)
            assert p.order() == c.order


def test_transcription_degrees_published_row_order():
    tab = transcription_table("g1344-deg8")
    assert tab.degrees() == [1, 3, 3, 6, 7, 8, 7, 7, 14, 21, 21]


def test_transcription_diag_variants():
    tg = TABLE_PRINTED_DIAG["g1344-deg8"]
    assert sorted(tg) == [
        "power-derivation", "transition-definition"]
    assert tg["transition-definition"] == [
        8, 0, 0, 0, 4, 2, 0, 2, 0, 1, 1]
    assert tg["power-derivation"] == [
        8, 0, 0, 0, 4, 2, 0, 0, 2, 1, 1]
    th = TABLE_PRINTED_DIAG["g1344-deg14"]
    assert th["transition-definition"] == [
        14, 6, 2, 6, 2, 2, 0, 0, 2, 0, 0]
    assert th["power-derivation"] == [
        14, 6, 2, 6, 2, 2, 0, 2, 0, 0, 0]


def test_load_group_file_round_trip(tmp_path):
    spec = {"name": "c5", "degree": 5, "generators": ["(1,2,3,4,5)"]}
    path = tmp_path / "c5.json"
    path.write_text(json.dumps(spec))
    loaded = load_group_file(str(path))
    assert loaded["name"] == "c5"
    assert loaded["degree"] == 5


def test_load_group_file_validation(tmp_path):
    cases = [
        {"degree": 5, "generators": ["(1,2)"]},          # no name
        {"name": "x", "generators": ["(1,2)"]},          # no degree
        {"name": "x", "degree": 0, "generators": []},    # bad degree
        {"name": "x", "degree": 3, "generators": "(1,2)"},  # not a list
        {"name": "x", "degree": 3, "generators": [3]},   # not strings
    ]
    for i, spec in enumerate(cases):
        path = tmp_path / f"bad{i}.json"
        path.write_text(json.dumps(spec))
        with pytest.raises(InputError):
            load_group_file(str(path))
    with pytest.raises(InputError):
        load_group_file(str(tmp_path / "missing.json"))
