"""End-to-end orchestration: analyses, reporting order, diagonal notes."""

import json

import pytest

from ctrz import datasets
from ctrz.errors import InconsistencyError, InputError
from ctrz.pipeline import GroupAnalysis, builtin_analysis, analysis_from_file


def test_builtin_analysis_is_cached():
    assert builtin_analysis("g1344-deg8") is builtin_analysis("g1344-deg8")


def test_builtin_analysis_unknown():
    with pytest.raises(InputError):
        builtin_analysis("mystery")


def test_reporting_table_adopts_published_row_order(g8, g14):
    for a in (g8, g14):
        assert a.published_order_adopted
        assert a.table.degrees() == [1, 3, 3, 6, 7, 8, 7, 7, 14, 21, 21]
        assert a.canonical_table.degrees() == [1, 3, 3, 6, 7, 7, 7, 8, 14, 21, 21]
        assert a.reference_match is not None
        assert a.reference_match.level == "full"


def test_reporting_rows_are_canonical_rows_permuted(g8):
    match = g8.reference_match
    for new_row in range(11):
        old_row = match.row_map[new_row]
        assert g8.table.values[new_row] == g8.canonical_table.values[old_row]


def test_family_assignment(g8, g14):
    assert g8.family == "g1344-deg8"
    assert g14.family == "g1344-deg14"


def test_failed_alignment_check_raises_on_every_access(monkeypatch):
    """A failed closed-form alignment check is never cached as "no
    family": the second access raises too."""
    bases, den, rows = datasets.CLOSED_FORMS["g1344-deg8"]
    corrupted = [list(row) for row in rows]
    corrupted[4][1] += den  # the published coefficient + 1
    monkeypatch.setitem(datasets.CLOSED_FORMS, "g1344-deg8",
                        (bases, den, tuple(map(tuple, corrupted))))
    a = GroupAnalysis(datasets.builtin_group("g1344-deg8"), is_builtin=True)
    for _ in range(2):
        with pytest.raises(InconsistencyError):
            a.family


def test_permchar_identity_value(g8, g14):
    assert g8.permchar.values[0].as_integer() == 8
    assert g14.permchar.values[0].as_integer() == 14


def test_diag_variant_notes(g8, g14):
    g_notes = g8.diag_variant_notes()
    assert any("transition-definition matches" in n for n in g_notes)
    assert any("power-derivation differs" in n and "C7, C8" in n
               for n in g_notes)
    h_notes = g14.diag_variant_notes()
    assert any("transition-definition matches" in n for n in h_notes)
    assert any("power-derivation differs" in n and "C7', C8'" in n
               for n in h_notes)


def test_analysis_from_file_has_no_reference(tmp_path):
    spec = {"name": "c4", "degree": 4, "generators": ["(1,2,3,4)"]}
    path = tmp_path / "c4.json"
    path.write_text(json.dumps(spec))
    a = analysis_from_file(str(path))
    assert a.group.order == 4
    assert a.reference_match is None
    assert not a.published_order_adopted
    assert a.family is None
    assert a.diag_variant_notes() == []
    assert a.table is a.canonical_table


def test_order_mismatch_rejected(tmp_path):
    spec = {"name": "c4", "degree": 4, "order": 8,
            "generators": ["(1,2,3,4)"]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    a = analysis_from_file(str(path))
    with pytest.raises(InputError):
        a.group
