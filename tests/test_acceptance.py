"""Top-level acceptance checks, one test per criterion.

Each test prints a single PASS line once its assertions hold, so a
verbose run reads as a checklist.  Time limits are asserted with
perf_counter around the work the criterion names; the expensive shared
objects (the two analyses) come from the session fixtures and their
construction cost is measured where a criterion prices it.
"""

import io
import contextlib
import json
import time

from ctrz.perm import FiniteGroup, ClassSet, parse_cycles, orbit_count_tuples
from ctrz.dixon import compute_character_table
from ctrz.exact import to_quadratic
from ctrz.chartab import (inner_product, decompose, match_columns, validate,
                          table_to_dict)
from ctrz.datasets import builtin_group, transcription_table
from ctrz.tensor import (agreed_multiplicities, multiplicities_direct,
                         multiplicities_recurrence, closed_form_multiplicities,
                         dims_row, SemisimpleStructure)
from ctrz.cli import main

EXPECTED_SIZES = [1, 7, 42, 42, 84, 168, 168, 192, 192, 224, 224]
EXPECTED_DEGREES = [1, 3, 3, 6, 7, 7, 7, 8, 14, 21, 21]
PUBLISHED_DIMS = {
    "g1344-deg8": [2, 16, 342, 14606, 831982, 51656046],
    "g1344-deg14": [3, 82, 7328, 1159392, 217424128, 42262333952],
}


def fresh_group(name):
    spec = builtin_group(name)
    gens = [parse_cycles(t, spec["degree"]) for t in spec["generators"]]
    return FiniteGroup(gens)


def test_criterion_01_group_enumeration():
    for name in ("g1344-deg8", "g1344-deg14"):
        start = time.perf_counter()
        group = fresh_group(name)
        classes = ClassSet(group)
        elapsed = time.perf_counter() - start
        assert group.order == 1344
        assert len(classes.classes) == 11
        assert sorted(c.size for c in classes.classes) == EXPECTED_SIZES
        assert elapsed < 1.0, f"{name} enumeration took {elapsed:.2f}s"
    print("PASS criterion 1: both groups enumerate to order 1344 with the "
          "expected 11 class sizes in under a second each")


def test_criterion_02_class_sanity(g8, g14):
    for a in (g8, g14):
        for i, c in enumerate(a.class_set.classes):
            centralizer = 1344 // c.size
            assert centralizer * c.size == 1344
            assert centralizer % c.order == 0
    # The same divisibility test detects the printed inconsistencies.
    for a, side in ((g8, "g"), (g14, "h")):
        match = match_columns(a.canonical_table, transcription_table(side))
        assert match.errata.findings
        assert any(f.kind == "class-order" for f in match.errata.findings)
    print("PASS criterion 2: element orders divide centralizer orders in "
          "both computed class lists, and reconciling against the printed "
          "table yields a nonempty errata report")


def test_criterion_03_character_table_recomputation():
    for name in ("g1344-deg8", "g1344-deg14"):
        start = time.perf_counter()
        group = fresh_group(name)
        classes = ClassSet(group)
        table = compute_character_table(group, classes, name=name)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"{name} table took {elapsed:.2f}s"
        assert len(table.characters) == 11
        assert sorted(table.degrees()) == EXPECTED_DEGREES
        assert sum(d * d for d in table.degrees()) == 1344
        assert validate(table) == []
        assert table.verified
        seven_cols = [j for j, c in enumerate(table.classes) if c.order == 7]
        deg3_rows = [i for i, d in enumerate(table.degrees()) if d == 3]
        assert len(seven_cols) == 2 and len(deg3_rows) == 2
        seen = set()
        for i in deg3_rows:
            for j in seven_cols:
                q = to_quadratic(table.values[i][j], -7)
                assert q is not None
                assert (2 * q.a, abs(2 * q.b)) == (-1, 1)
                seen.add((q.a, q.b))
        assert len(seen) == 2
    print("PASS criterion 3: recomputed tables have 11 irreducibles with "
          "the expected degrees, exact orthogonality, and (-1+-sqrt(-7))/2 "
          "on the order-7 classes, each inside the time limit")


def test_criterion_04_same_table_theorem(g8, g14):
    start = time.perf_counter()
    match = match_columns(g8.canonical_table, g14.canonical_table)
    elapsed = time.perf_counter() - start
    assert match.errata.findings == []
    assert elapsed < 5.0, f"match took {elapsed:.2f}s"
    print("PASS criterion 4: the two computed tables match with empty "
          "errata, so both groups share one character table")


def test_criterion_05_natural_character_decomposition(g8, g14):
    assert decompose(g8.permchar, g8.table) == (1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0)
    assert decompose(g14.permchar, g14.table) == (1, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0)
    assert inner_product(g8.permchar, g8.permchar).as_integer() == 2
    assert inner_product(g14.permchar, g14.permchar).as_integer() == 3
    print("PASS criterion 5: natural characters decompose as published in "
          "the adopted row order with self inner products 2 and 3")


def test_criterion_06_dimension_table(g8, g14):
    start = time.perf_counter()
    for a, name in ((g8, "g1344-deg8"), (g14, "g1344-deg14")):
        for k in range(1, 7):
            d = agreed_multiplicities(a.permchar, a.table, k,
                                      family=a.family, matrix=a.transition)
            row = dims_row(a.class_set, d, k, family=a.family)
            expected = PUBLISHED_DIMS[name][k - 1]
            assert row["sum_of_squares"] == expected
            assert row["fixed_point_formula"] == expected
            assert row["closed_form"] == expected
            assert row["dimension"] == expected
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"dimension table took {elapsed:.2f}s"
    print("PASS criterion 6: centralizer algebra dimensions for k = 1..6 "
          "match the published values by all three methods")


def test_criterion_07_method_agreement(g8, g14):
    start = time.perf_counter()
    for a, n in ((g8, 8), (g14, 14)):
        degrees = a.table.degrees()
        for k in range(1, 13):
            direct = multiplicities_direct(a.permchar, a.table, k)
            recur = multiplicities_recurrence(a.permchar, a.table, k,
                                              matrix=a.transition)
            closed = closed_form_multiplicities(a.family, k)
            assert direct == recur == closed
            assert sum(m * d for m, d in zip(direct, degrees)) == n ** k
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"method agreement took {elapsed:.2f}s"
    print("PASS criterion 7: direct, recurrence, and closed-form vectors "
          "agree entrywise for k = 1..12 with the right total dimensions")


def test_criterion_08_orbit_oracle(g8, g14):
    expected = {("g1344-deg8", 2): 2, ("g1344-deg8", 4): 16,
                ("g1344-deg14", 2): 3, ("g1344-deg14", 4): 82}
    start = time.perf_counter()
    for a, name in ((g8, "g1344-deg8"), (g14, "g1344-deg14")):
        for t in (2, 4):
            burnside = orbit_count_tuples(a.group, t, method="burnside",
                                          classes=a.class_set)
            direct = orbit_count_tuples(a.group, t, method="direct")
            assert burnside == direct == expected[(name, t)]
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"orbit counting took {elapsed:.2f}s"
    print("PASS criterion 8: direct orbit enumeration equals Burnside "
          "counts on pairs and 4-tuples for both groups")


def test_criterion_09_structure_rendering(g8, g14):
    d8 = agreed_multiplicities(g8.permchar, g8.table, 1,
                               family=g8.family, matrix=g8.transition)
    d14 = agreed_multiplicities(g14.permchar, g14.table, 1,
                                family=g14.family, matrix=g14.transition)
    assert SemisimpleStructure(d8).display() == "2M_1"
    assert SemisimpleStructure(d14).display() == "3M_1"
    for a, name in ((g8, "g1344-deg8"), (g14, "g1344-deg14")):
        for k in range(1, 7):
            d = agreed_multiplicities(a.permchar, a.table, k,
                                      family=a.family, matrix=a.transition)
            s = SemisimpleStructure(d)
            total = sum(count * size * size for size, count in s.blocks)
            assert total == PUBLISHED_DIMS[name][k - 1]
    print("PASS criterion 9: semisimple structures render 2M_1 and 3M_1 at "
          "k = 1 and their block dimensions reproduce the dims table")


def test_criterion_10_errata_behavior(tmp_path, g8, g14):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["chartable", "check", "paper-table"])
    assert code == 1
    text = out.getvalue()
    assert "orthogonality" in text
    assert "C3" in text
    for a, stem in ((g8, "deg8"), (g14, "deg14")):
        path = tmp_path / f"{stem}.json"
        path.write_text(json.dumps(table_to_dict(a.canonical_table)))
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["chartable", "check", str(path)])
        assert code == 0
    print("PASS criterion 10: checking the printed transcription exits 1 "
          "with a localized orthogonality violation and both computed "
          "tables check clean")
