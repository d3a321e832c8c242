"""The five public records of chartab: ClassInfo, Violation, Finding,
TableErrata and MatchResult.

Their constructor signatures, field-wise equality and repr text are part
of the public API (all five are in ctrz.__all__), so they are pinned here
exactly.
"""

import pytest

from ctrz.chartab import (ClassInfo, Finding, MatchResult, TableErrata,
                          Violation, table_from_dict, table_to_dict)
from ctrz.datasets import transcription_table


def finding(**kw):
    args = dict(kind="cell", row="chi2", column="7a", external="1",
                computed="-1", relation="sign")
    args.update(kw)
    return Finding(**args)


def test_class_info_by_position_and_keyword():
    a = ClassInfo("2a", 21, 2, "(1,2)(3,4)", 42)
    b = ClassInfo(label="2a", size=21, order=2, representative="(1,2)(3,4)",
                  printed_size=42)
    assert a == b
    assert (a.label, a.size, a.order, a.representative, a.printed_size) == (
        "2a", 21, 2, "(1,2)(3,4)", 42)


def test_class_info_defaults_and_slots():
    c = ClassInfo("1a", 1, 1)
    assert c.representative is None and c.printed_size is None
    assert not hasattr(c, "__dict__")
    with pytest.raises(AttributeError):
        c.colour = "red"
    c.size = 3  # fields stay assignable
    assert c.size == 3


def test_class_info_repr():
    assert repr(ClassInfo("1a", 1, 1)) == (
        "ClassInfo(label='1a', size=1, order=1, representative=None, "
        "printed_size=None)")
    assert repr(ClassInfo("2a", 21, 2, "(1,2)", 42)) == (
        "ClassInfo(label='2a', size=21, order=2, representative='(1,2)', "
        "printed_size=42)")


def test_class_info_equality_is_field_wise():
    a = ClassInfo("2a", 21, 2)
    assert a == ClassInfo("2a", 21, 2)
    assert not a != ClassInfo("2a", 21, 2)
    for other in (ClassInfo("2b", 21, 2), ClassInfo("2a", 7, 2),
                  ClassInfo("2a", 21, 4), ClassInfo("2a", 21, 2, "(1,2)"),
                  ClassInfo("2a", 21, 2, None, 21)):
        assert a != other and not a == other
    assert a != ("2a", 21, 2, None, None)
    assert a.__eq__(("2a", 21, 2, None, None)) is NotImplemented
    assert ClassInfo.__hash__ is None
    with pytest.raises(TypeError):
        hash(a)


def test_violation():
    v = Violation("degree", "chi1", "x")
    assert v == Violation(kind="degree", subject="chi1", detail="x")
    assert repr(v) == "Violation(kind='degree', subject='chi1', detail='x')"
    assert v.describe() == "degree [chi1]: x"
    assert v != Violation("degree", "chi2", "x")
    assert v != ("degree", "chi1", "x")
    assert Violation.__hash__ is None
    with pytest.raises(TypeError):
        Violation("degree", "chi1")


def test_finding():
    f = Finding("cell", "chi2", "7a", "1", "-1", "sign")
    assert f == finding()
    assert repr(f) == ("Finding(kind='cell', row='chi2', column='7a', "
                       "external='1', computed='-1', relation='sign')")
    for field in ("kind", "row", "column", "external", "computed", "relation"):
        assert f != finding(**{field: "other"})
    assert f != ("cell", "chi2", "7a", "1", "-1", "sign")
    assert f != Violation("cell", "chi2", "7a")
    assert Finding.__hash__ is None
    assert repr(finding(row=None, column=None)) == (
        "Finding(kind='cell', row=None, column=None, external='1', "
        "computed='-1', relation='sign')")


def test_table_errata():
    a, b = TableErrata(), TableErrata()
    assert a.findings == [] and a.findings is not b.findings
    assert a == b and not a
    a.findings.append(finding())
    assert b.findings == [] and a != b and a
    assert a == TableErrata(findings=[finding()])
    assert a == TableErrata([finding()])
    assert repr(TableErrata()) == "TableErrata(findings=[])"
    assert repr(a) == (
        "TableErrata(findings=[Finding(kind='cell', row='chi2', "
        "column='7a', external='1', computed='-1', relation='sign')])")
    assert TableErrata() != ([],)
    assert TableErrata.__hash__ is None


def test_match_result():
    r = MatchResult((0, 1), (1, 0), TableErrata(), "size")
    s = MatchResult(row_map=(0, 1), col_map=(1, 0), errata=TableErrata(),
                    level="size")
    assert r == s
    assert r.notes == [] and r.notes is not s.notes
    r.notes.append("note")
    assert s.notes == [] and r != s
    assert r == MatchResult((0, 1), (1, 0), TableErrata(), "size", ["note"])
    assert repr(r) == ("MatchResult(row_map=(0, 1), col_map=(1, 0), "
                       "errata=TableErrata(findings=[]), level='size', "
                       "notes=['note'])")
    for other in (MatchResult((1, 0), (1, 0), TableErrata(), "size", ["note"]),
                  MatchResult((0, 1), (0, 1), TableErrata(), "size", ["note"]),
                  MatchResult((0, 1), (1, 0), TableErrata([finding()]), "size",
                              ["note"]),
                  MatchResult((0, 1), (1, 0), TableErrata(), "order",
                              ["note"])):
        assert r != other
    assert r != ((0, 1), (1, 0), TableErrata(), "size", ["note"])
    assert r != TableErrata()
    assert MatchResult.__hash__ is None


def test_classes_survive_a_json_round_trip():
    t = transcription_table("g1344-deg8")
    assert table_from_dict(table_to_dict(t)).classes == t.classes
