"""Character table container, validation, matching, serialization.

The published transcription dataset is the main fixture for the
negative paths: its two wrong cells and three inconsistent class sizes
must be flagged exactly, and nothing else.
"""

import contextlib
import hashlib
import io
import json
import random
import sys
from fractions import Fraction

import pytest

from ctrz import chartab, cli, dixon
from ctrz.errors import InputError
from ctrz.exact import Cyclotomic, sqrt_embedding
from ctrz.perm import FiniteGroup, ClassSet, parse_cycles
from ctrz.dixon import compute_character_table
from ctrz.datasets import transcription_table
from ctrz.pipeline import builtin_analysis
from ctrz.chartab import (CharacterTable, ClassInfo, ClassFunction,
                          DecompositionError, validate,
                          permutation_character, inner_product, decompose,
                          match_columns, class_metadata_findings,
                          encode_value, decode_value, display_value,
                          table_to_dict, table_from_dict, load_table)


def rat(x, conductor=1):
    return Cyclotomic.from_rational(x, conductor)


def s3_table():
    g = FiniteGroup([parse_cycles("(1,2)", 3), parse_cycles("(1,2,3)", 3)])
    cs = ClassSet(g)
    return g, cs, compute_character_table(g, cs)


def test_validate_accepts_computed_tables(g8, g14):
    assert validate(g8.canonical_table) == []
    assert validate(g14.canonical_table) == []


def test_validate_transcription_localizes_the_wrong_column():
    """Every orthogonality failure of the published table involves the
    two degree-3 rows or the printed column holding their wrong cell."""
    ext = transcription_table("g1344-deg8")
    violations = validate(ext)
    assert violations
    kinds = {v.kind for v in violations}
    assert kinds == {"row-orthogonality", "column-orthogonality"}
    for v in violations:
        if v.kind == "row-orthogonality":
            assert "chi2" in v.subject or "chi3" in v.subject
        else:
            assert "C3" in v.subject.split(",")
    # The diagonal column failure states the centralizer mismatch.
    diag = [v for v in violations if v.subject == "C3,C3"]
    assert len(diag) == 1
    assert "30" in diag[0].detail and "32" in diag[0].detail


def test_validate_transcription_h_side():
    violations = validate(transcription_table("g1344-deg14"))
    assert violations
    for v in violations:
        if v.kind == "row-orthogonality":
            assert "chi2" in v.subject or "chi3" in v.subject
        else:
            assert "C4'" in v.subject.split(",")


def test_validate_catches_seeded_cell_error(g8):
    data = table_to_dict(g8.canonical_table)
    data["characters"][5]["values"][3] = "5"
    broken = table_from_dict(data)
    violations = validate(broken)
    assert violations
    row = data["characters"][5]["label"]
    col = data["classes"][3]["label"]
    assert any(row in v.subject for v in violations if v.kind == "row-orthogonality")
    assert any(col in v.subject for v in violations if v.kind == "column-orthogonality")


def test_validate_catches_degree_sum_mismatch():
    _, _, ct = s3_table()
    data = table_to_dict(ct)
    for row in data["characters"]:
        if row["values"][0] == "2":
            row["values"] = ["3", "0", "1"]
    broken = table_from_dict(data)
    assert any(v.kind == "degree-squares" for v in validate(broken))


def test_validate_rejects_nonpositive_sizes():
    ct = CharacterTable("bad", 2, 1,
                        [ClassInfo("C1", 1, 1), ClassInfo("C2", -1, 2)],
                        ["chi1"], [[rat(1), rat(1)]])
    kinds = [v.kind for v in validate(ct)]
    assert "class-sizes" in kinds


def test_validate_requires_identity_class():
    ct = CharacterTable("bad", 4, 1,
                        [ClassInfo("C1", 2, 1), ClassInfo("C2", 2, 2)],
                        ["chi1", "chi2"],
                        [[rat(1), rat(1)], [rat(1), rat(-1)]])
    kinds = {v.kind for v in validate(ct)}
    assert "identity-class" in kinds


def test_permutation_character_values_are_fixed_points():
    g, cs, ct = s3_table()
    chi = permutation_character(g, cs, ct)
    assert [v.as_rational() for v in chi.values] == [3, 0, 1]


def test_permutation_character_rejects_misaligned_table(g8):
    g = FiniteGroup([parse_cycles("(1,2)", 3), parse_cycles("(1,2,3)", 3)])
    cs = ClassSet(g)
    with pytest.raises(InputError):
        permutation_character(g, cs, g8.canonical_table)


def test_inner_product_of_irreducibles_is_kronecker():
    _, _, ct = s3_table()
    for i in range(ct.size):
        for j in range(ct.size):
            got = inner_product(ct.row(i), ct.row(j)).as_rational()
            assert got == (1 if i == j else 0)


def test_decompose_s3_natural_character():
    g, cs, ct = s3_table()
    chi = permutation_character(g, cs, ct)
    # Natural character of S3 = trivial + standard.
    assert decompose(chi, ct) == (1, 0, 1)
    assert inner_product(chi, chi).as_rational() == 2


def test_decompose_rejects_non_character():
    _, _, ct = s3_table()
    f = ClassFunction(ct, [rat(1), rat(0), rat(0)])
    with pytest.raises(DecompositionError):
        decompose(f, ct)


def test_decompose_requires_verified_table():
    ext = transcription_table("g1344-deg8")
    f = ClassFunction(ext, [rat(1)] * 11)
    with pytest.raises(InputError):
        decompose(f, ext)


def test_class_function_pointwise_algebra():
    _, _, ct = s3_table()
    chi = ct.row(2)
    sq = chi * chi
    assert [v.as_rational() for v in sq.values] == [4, 1, 0]
    assert [v.as_rational() for v in chi.power(3).values] == [8, -1, 0]
    with pytest.raises(InputError):
        ClassFunction(ct, [rat(1), rat(1)])


def test_match_self_is_identity(g8):
    m = match_columns(g8.canonical_table, g8.canonical_table)
    assert m.row_map == tuple(range(11))
    assert m.col_map == tuple(range(11))
    assert m.errata.findings == []
    assert m.level == "full"


def test_match_cross_group_finds_no_differences(g8, g14):
    """The two builtin groups have identical character tables once the
    columns are keyed by size alone; orders differ, so the constraint
    level drops to size and the cell sets still agree everywhere."""
    m = match_columns(g8.canonical_table, g14.canonical_table)
    assert m.level == "size"
    assert m.errata.findings == []
    assert m.row_map == tuple(range(11))
    assert m.col_map == tuple(range(11))


def test_match_against_transcription_g(g8):
    m = match_columns(g8.canonical_table, transcription_table("g1344-deg8"))
    assert m.level == "full"
    cells = [(f.row, f.column, f.external, f.computed)
             for f in m.errata.findings if f.kind == "cell"]
    assert cells == [("chi2", "C3", "0", "-1"), ("chi3", "C3", "0", "-1")]
    sizes = {(f.column, f.external, f.computed)
             for f in m.errata.findings if f.kind == "class-size"}
    assert sizes == {("C6", "168", "84"), ("C5", "84", "224"),
                     ("C8", "224", "168")}
    orders = {f.column for f in m.errata.findings if f.kind == "class-order"}
    assert orders == {"C5", "C8"}
    assert len(m.errata.findings) == 7


def test_match_against_transcription_h(g14):
    m = match_columns(g14.canonical_table, transcription_table("g1344-deg14"))
    cells = [(f.row, f.column, f.external, f.computed)
             for f in m.errata.findings if f.kind == "cell"]
    assert cells == [("chi2", "C4'", "0", "-1"), ("chi3", "C4'", "0", "-1")]
    assert {f.column for f in m.errata.findings if f.kind == "class-size"} == \
        {"C5'", "C6'", "C8'"}
    assert {f.column for f in m.errata.findings if f.kind == "class-order"} == \
        {"C5'", "C8'"}


def test_match_notes_flag_conventional_column_choice(g8):
    m = match_columns(g8.canonical_table, transcription_table("g1344-deg8"))
    assert any("C10" in note and "C11" in note for note in m.notes)


# (level, row_map, col_map, mismatched (row, column) labels) of
# match_columns on each pair: a builtin's canonical table against the
# transcription or the other builtin, or a small group's table against a
# seeded row and column shuffle of it, with one cell changed at seed 3
MATCH_PINS = {
    ('g1344-deg8', 'paper-table'): ('full', (0, 2, 1, 3, 4, 7, 6, 5, 8, 10, 9),
                                    (0, 1, 4, 3, 2, 9, 10, 5, 6, 7, 8),
                                    [('chi2', 'C3'), ('chi3', 'C3')]),
    ('g1344-deg14', 'paper-table'): ('full', (0, 2, 1, 3, 4, 7, 5, 6, 8, 9, 10),
                                     (0, 1, 4, 2, 3, 9, 10, 6, 5, 7, 8),
                                     [('chi2', "C4'"), ('chi3', "C4'")]),
    ('g1344-deg8', 'g1344-deg14'): ('size', (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10),
                                    (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10),
                                    []),
    ('psl(2,7)', 1): ('full', (0, 1, 2, 4, 5, 3),
                      (2, 3, 5, 0, 4, 1),
                      []),
    ('psl(2,7)', 2): ('full', (1, 0, 3, 4, 2, 5),
                      (2, 3, 1, 4, 5, 0),
                      []),
    ('psl(2,7)', 3): ('full', (1, 3, 2, 0, 4, 5),
                      (0, 2, 3, 5, 4, 1),
                      [('chi4', 'C2')]),
    ('s4', 1): ('full', (0, 2, 1, 4, 3),
                (2, 3, 4, 0, 1),
                []),
    ('s4', 2): ('full', (3, 0, 4, 2, 1),
                (2, 1, 3, 4, 0),
                []),
    ('s4', 3): ('full', (1, 3, 2, 0, 4),
                (0, 2, 3, 4, 1),
                [('chi4', 'C2')]),
    ('d8', 1): ('full', (0, 2, 1, 4, 3),
                (2, 3, 4, 0, 1),
                []),
    ('d8', 2): ('full', (3, 0, 4, 2, 1),
                (2, 1, 3, 4, 0),
                []),
    ('d8', 3): ('full', (1, 3, 2, 0, 4),
                (0, 2, 3, 4, 1),
                [('chi4', 'C2')]),
    ('c2xc4', 1): ('full', (2, 6, 4, 0, 1, 3, 5, 7),
                   (3, 6, 1, 5, 7, 0, 4, 2),
                   []),
    ('c2xc4', 2): ('full', (4, 3, 2, 0, 7, 1, 6, 5),
                   (4, 3, 5, 1, 2, 7, 6, 0),
                   []),
    ('c2xc4', 3): ('full', (6, 4, 7, 2, 3, 0, 5, 1),
                   (0, 4, 6, 2, 1, 7, 5, 3),
                   [('chi6', 'C4')]),
    ('c4xc4', 1): ('full', (1, 3, 7, 5, 4, 2, 8, 10, 9, 13, 6, 14, 11, 12, 15, 0),
                   (1, 8, 0, 10, 5, 12, 3, 11, 9, 14, 13, 2, 4, 7, 15, 6),
                   []),
    ('c4xc4', 2): ('full', (13, 6, 11, 2, 14, 3, 1, 12, 8, 5, 0, 10, 15, 9, 4, 7),
                   (4, 14, 9, 7, 5, 0, 11, 3, 15, 6, 8, 1, 12, 10, 13, 2),
                   []),
    ('c4xc4', 3): ('full', (11, 5, 9, 1, 6, 0, 4, 15, 8, 13, 12, 3, 2, 10, 7, 14),
                   (4, 11, 10, 7, 6, 3, 12, 0, 1, 9, 8, 5, 2, 14, 15, 13),
                   [('chi5', 'C8')]),
}
SHUFFLED_GROUPS = {"psl(2,7)": (7, ["(1,2,3,4,5,6,7)", "(2,3)(4,7)"]),
                   "s4": (4, ["(1,2,3,4)", "(1,2)"]),
                   "d8": (4, ["(1,2,3,4)", "(1,3)"]),
                   "c2xc4": (6, ["(1,2)", "(3,4,5,6)"]),
                   "c4xc4": (8, ["(1,2,3,4)", "(5,6,7,8)"])}


def _shuffled(table, seed):
    data = table_to_dict(table)
    rng = random.Random(seed)
    cols, rows = list(range(table.size)), list(range(table.size))
    rng.shuffle(cols)
    rng.shuffle(rows)
    chars = data["characters"]
    data = dict(data, classes=[data["classes"][j] for j in cols],
                characters=[{"label": chars[i]["label"],
                             "values": [chars[i]["values"][j] for j in cols]}
                            for i in rows])
    if seed == 3:
        data["characters"][1]["values"][-1] = "7"
    return table_from_dict(data)


@pytest.mark.parametrize("pair", list(MATCH_PINS), ids="{0[0]}-{0[1]}".format)
def test_match_search_keeps_its_choice(pair):
    """The search returns the same first fewest-mismatch matching, maps
    and level included, as it has since these values were recorded, and
    its dict of interned keys, read as the search returns, holds the
    external rows' keys alone: r per mapped column and one for the
    degree, however many nodes the mismatch budget makes it visit."""
    first, second = pair
    if first in SHUFFLED_GROUPS:
        computed = _computed(*SHUFFLED_GROUPS[first])
        other = _shuffled(computed, second)
    else:
        computed = builtin_analysis(first).canonical_table
        other = (transcription_table(first) if second == "paper-table"
                 else builtin_analysis(second).canonical_table)
    interned = []

    def spy(frame, event, arg):
        if event == "return" and frame.f_code is chartab._search.__code__:
            interned.append(len(frame.f_locals["ids"]))

    profiler = sys.getprofile()
    sys.setprofile(spy)
    try:
        m = match_columns(computed, other)
    finally:
        sys.setprofile(profiler)
    cells = [(f.row, f.column) for f in m.errata.findings if f.kind == "cell"]
    assert (m.level, m.row_map, m.col_map, cells) == MATCH_PINS[pair]
    r = computed.size
    assert len(interned) == 1 and interned[0] <= r * (r + 1)


def test_match_requires_same_class_count(g8):
    _, _, s3 = s3_table()
    with pytest.raises(InputError):
        match_columns(g8.canonical_table, s3)


def test_match_falls_back_to_positional():
    """Tables whose class size multisets differ cannot be keyed, so the
    match degrades to positional pairing and reports the level."""
    _, _, s3 = s3_table()
    c3 = compute_character_table(FiniteGroup([parse_cycles("(1,2,3)", 3)]))
    m = match_columns(s3, c3)
    assert m.level == "positional"
    assert m.errata.findings


def test_match_result_to_dict(g8):
    m = match_columns(g8.canonical_table, transcription_table("g1344-deg8"))
    d = m.to_dict()
    assert set(d) == {"matching", "findings"}
    assert d["matching"]["constraint_level"] == "full"
    assert len(d["matching"]["rows"]) == 11
    assert all(set(f) >= {"kind", "external", "computed"} for f in d["findings"])


def test_class_metadata_findings_direct():
    ext = transcription_table("g1344-deg8")
    findings = class_metadata_findings(ext)
    assert len(findings) == 5
    assert {f.kind for f in findings} == {"class-size", "class-order"}


def test_encode_decode_round_trip_all_values(g8, g14):
    for tab in (g8.canonical_table, g14.canonical_table,
                transcription_table("g1344-deg8"), transcription_table("g1344-deg14")):
        for row in tab.values:
            for v in row:
                assert decode_value(encode_value(v), tab.conductor) == v


def test_encode_value_forms(g8):
    tab = g8.canonical_table
    assert encode_value(tab.values[0][0]) == "1"
    enc = encode_value(tab.values[1][7])
    assert set(enc) == {"D", "a", "b"} and enc["D"] == -7
    zeta_cell = encode_value(tab.values[4][4] * Cyclotomic.zeta(84))
    assert set(zeta_cell) == {"conductor", "coeffs"}


def test_decode_value_rejects_garbage():
    with pytest.raises(InputError):
        decode_value("1.5", 84)
    with pytest.raises(InputError):
        decode_value("", 84)
    with pytest.raises(InputError):
        decode_value({"D": -7}, 84)
    with pytest.raises(InputError):
        decode_value(["1"], 84)
    with pytest.raises(InputError):
        decode_value({"conductor": 4, "coeffs": ["1", "0", "0"]}, 4)


def test_display_value_strings(g8):
    tab = g8.canonical_table
    shown = {display_value(v) for row in tab.values for v in row}
    assert "(-1+√-7)/2" in shown
    assert "(-1-√-7)/2" in shown
    assert "-1" in shown and "8" in shown


QUADRATIC_D = (-43, -39, -35, -31, -23, -19, -15, -11, -7, -3,
               5, 13, 17, 21, 29, 33, 37, 41)


def test_quadratic_values_render_in_their_own_field():
    """Every squarefree D = 1 (mod 4) with |D| <= 43, stored at the
    conductors |D|, 2|D|, 3|D| and 4|D|, prints and encodes as a+b*sqrt(D)."""
    assert QUADRATIC_D == tuple(
        d for d in range(-43, 44)
        if d not in (0, 1) and d % 4 == 1
        and all(abs(d) % (q * q) for q in range(2, 7)))
    for D in QUADRATIC_D:
        for c in (1, 2, 3, 4):
            root = sqrt_embedding(D, abs(D) * c)
            v = root * Fraction(-3, 2) + Fraction(1, 2)
            assert display_value(v) == f"(1-3√{D})/2"
            assert encode_value(v) == {"D": D, "a": "1/2", "b": "-3/2"}
            w = root + 2
            assert display_value(w) == f"2+√{D}"
            assert encode_value(w) == {"D": D, "a": "2", "b": "1"}


def test_values_outside_such_fields_render_as_vectors():
    """A value in no Q(sqrt(D)) with D = 1 (mod 4), squarefree, prints as
    its coefficient vector at the conductor it is stored at."""
    z8 = Cyclotomic.zeta(8)
    root2 = z8 + z8.conj()
    assert display_value(root2) == "cyclotomic['0', '1', '0', '-1']"
    assert encode_value(root2) == {"conductor": 8, "coeffs": ["0", "1", "0", "-1"]}
    z9 = Cyclotomic.zeta(9)
    assert display_value(z9) == "cyclotomic['0', '1', '0', '0', '0', '0']"
    assert encode_value(z9) == {"conductor": 9,
                                "coeffs": ["0", "1", "0", "0", "0", "0"]}
    mixed = sqrt_embedding(-3, 84) + sqrt_embedding(-7, 84)
    coeffs = [str(c) for c in mixed.coeffs]
    assert len(coeffs) == 24
    assert display_value(mixed) == f"cyclotomic{coeffs}"
    assert encode_value(mixed) == {"conductor": 84, "coeffs": coeffs}
    assert decode_value(encode_value(mixed), 84) == mixed


def test_table_dict_round_trip(g8):
    data = table_to_dict(g8.canonical_table)
    back = table_from_dict(data)
    assert back.values == g8.canonical_table.values
    assert [c.label for c in back.classes] == \
        [c.label for c in g8.canonical_table.classes]
    # Loaded tables are never trusted until re-validated.
    assert back.verified is False


def test_table_dict_keeps_printed_sizes():
    data = table_to_dict(transcription_table("g1344-deg8"))
    back = table_from_dict(data)
    assert any(c.printed_size is not None and c.printed_size != c.size
               for c in back.classes)


def test_each_distinct_cell_encoding_is_decoded_once(g14, monkeypatch):
    """Reading a table decodes each distinct encoding once, all its cells
    sharing the value, which equals a decode of each cell on its own."""
    data = table_to_dict(g14.canonical_table)
    cells = [v for ch in data["characters"] for v in ch["values"]]
    seen = []
    real = chartab.decode_value

    def counted(obj, conductor):
        seen.append(json.dumps(obj, sort_keys=True))
        return real(obj, conductor)

    monkeypatch.setattr(chartab, "decode_value", counted)
    back = table_from_dict(data)
    assert sorted(seen) == sorted({json.dumps(v, sort_keys=True) for v in cells})
    assert len(seen) < len(cells)
    assert [[(v.conductor, v.num, v.den) for v in row] for row in back.values] == \
        [[(w.conductor, w.num, w.den) for w in (real(v, data["conductor"])
                                               for v in ch["values"])]
         for ch in data["characters"]]


def test_load_table_from_file(tmp_path, g8):
    path = tmp_path / "table.json"
    path.write_text(json.dumps(table_to_dict(g8.canonical_table)))
    back = load_table(str(path))
    assert back.values == g8.canonical_table.values


def test_load_table_errors(tmp_path):
    with pytest.raises(InputError):
        load_table(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    with pytest.raises(InputError):
        load_table(str(bad))
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"name": "x"}))
    with pytest.raises(InputError):
        load_table(str(wrong))


def test_reordered_rows(g8):
    tab = g8.canonical_table
    order = [10, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9]
    moved = tab.reordered_rows(order)
    assert moved.values[0] == tab.values[10]
    assert moved.values[1] == tab.values[0]
    assert moved.verified == tab.verified
    with pytest.raises(InputError):
        tab.reordered_rows([0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9])


def test_identity_column(g8):
    assert g8.canonical_table.identity_column() == 0


def _computed(degree, generators):
    return compute_character_table(
        FiniteGroup([parse_cycles(g, degree) for g in generators]))


def _coefficient_digest(table):
    text = repr([[[str(c) for c in v.coeffs] for v in row]
                 for row in table.values])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("name, degree, generators, declared, working, digest", [
    ("psl(2,7)", 7, ["(1,2,3,4,5,6,7)", "(2,3)(4,7)"], 84, 7, "870c2a01eabac81f"),
    ("s4", 4, ["(1,2,3,4)", "(1,2)"], 12, 1, "a090744977f9eb81"),
    ("c2^3", 6, ["(1,2)", "(3,4)", "(5,6)"], 2, 1, "5d44f65f53bb6566"),
    ("a5", 5, ["(1,2,3,4,5)", "(1,2,3)"], 30, 5, "259fca065763dc90"),
    ("s7", 7, ["(1,2,3,4,5,6,7)", "(1,2)"], 420, 1, "220ae5a9014e65c3"),
    # p = 11 and 13 lie below r = 16 and 32 characters
    ("c2^4", 8, ["(1,2)", "(3,4)", "(5,6)", "(7,8)"], 2, 1,
     "364601b62b9ed42e"),
    ("c2^5", 10, ["(1,2)", "(3,4)", "(5,6)", "(7,8)", "(9,10)"], 2, 1,
     "40c77a65ec2c1b6e")])
def test_working_conductor_of_computed_tables(name, degree, generators,
                                              declared, working, digest):
    """Arithmetic runs at the values' own field; the stored values stay
    at the group exponent, coefficient for coefficient."""
    tab = _computed(degree, generators)
    assert tab.conductor == declared
    assert tab.working_conductor == working
    assert _coefficient_digest(tab) == digest
    assert all(w.conductor == working and w == v
               for row, wrow in zip(tab.values, tab.working_rows)
               for v, w in zip(row, wrow))


def test_working_conductor_of_builtins(g8, g14):
    for analysis, declared, digest in ((g8, 84, "2046abbcc0497aed"),
                                       (g14, 168, "ea9d46c75b69ddb3")):
        tab = analysis.canonical_table
        assert tab.conductor == declared
        assert tab.working_conductor == 7
        assert _coefficient_digest(tab) == digest
        # the published row order carries the working copy along
        shown = analysis.table
        assert shown.working_conductor == 7
        assert all(v == w for row, wrow in zip(shown.values, shown.working_rows)
                   for v, w in zip(row, wrow))


def test_validate_shows_coefficient_sums_at_the_declared_conductor():
    """A C5 table declared at conductor 10 computes at 5, but a sum that
    is neither rational nor quadratic is printed as the coefficient
    vector at 10, as the table stores its values."""
    tab = _computed(5, ["(1,2,3,4,5)"])
    rows = [[v.lift(10) for v in row] for row in tab.values]
    rows[1][1] = rows[1][1] + 1
    bad = CharacterTable("c5", 5, 10, tab.classes, tab.characters, rows)
    assert bad.working_conductor == 5
    details = {v.subject: v.detail for v in validate(bad)}
    assert details["chi2,chi3"] == "sum is cyclotomic['0', '-1', '0', '0'], expected 0"
    assert details["chi2,chi4"] == "sum is cyclotomic['-1', '1', '-1', '1'], expected 0"
    assert details["C2,C5"] == "sum is cyclotomic['0', '0', '1', '0'], expected 0"
    assert details["chi2,chi2"] == "sum is (11+√5)/2, expected 5"
    assert details["C1,C2"] == "sum is 1, expected 0"


def test_violation_text_never_raises_on_numbers_too_long_to_print():
    """Sums whose digits pass Python's printing limit are named, not
    printed: an S3 cell 1/7**3000 squares to a 5000-digit denominator,
    and sizes summing to 10**4300 have 4301 digits."""
    tab = _computed(3, ["(1,2)", "(1,2,3)"])
    rows = [list(row) for row in tab.values]
    rows[1][2] = rat(Fraction(1, 7**3000), tab.conductor)
    bad = CharacterTable("s3", 6, tab.conductor, tab.classes, tab.characters,
                         rows)
    details = {v.subject: v.detail for v in validate(bad)}
    assert details["chi2,chi2"] == "sum is a number too long to print, expected 6"
    big = CharacterTable("s3", 6, tab.conductor,
                         tab.classes[:2] + [ClassInfo("C3", 10**4300 - 3, 2)],
                         tab.characters, tab.values)
    assert [v.describe() for v in validate(big)][0] == (
        "class-sizes [table]: sizes sum to a number too long to print, "
        "group order is 6")


def test_group_order_finding_never_raises_on_numbers_too_long_to_print():
    tab = _computed(3, ["(1,2)", "(1,2,3)"])
    big = CharacterTable("s3", 10**4300, tab.conductor, tab.classes,
                         tab.characters, tab.values)
    m = match_columns(tab, big)
    assert m.level == "full"
    assert [(f.kind, f.external, f.computed) for f in m.errata.findings] == [
        ("group-order", "a number too long to print", "6")]


def test_class_info_holds_only_what_table_json_carries():
    """Matching reads class data only, so every field of ClassInfo must
    survive a JSON round trip, and nothing else can be set on one."""
    tab = transcription_table("g1344-deg8")
    assert table_from_dict(table_to_dict(tab)).classes == tab.classes
    with pytest.raises((AttributeError, TypeError)):
        ClassInfo("C1", 1, 1).power_profile = ()
    assert not hasattr(dixon, "_power_profile")


def test_unparseable_representative_in_a_tied_class_does_not_crash():
    """C3's two classes of order 3 tie on size and order, so their cycle
    types decide; one that does not parse drops the match a level
    instead of failing to sort against a parsed one."""
    tab = _computed(3, ["(1,2,3)"])
    data = table_to_dict(tab)
    data["classes"][-1]["representative"] = "(1,2"
    m = match_columns(tab, table_from_dict(data))
    assert m.level == "size-order"
    assert m.errata.findings == []


def test_fingerprints_read_points_in_ascii_digits_only():
    """A representative whose points are not ASCII digits, which
    parse_cycles refuses, gets no cycle type and adds nothing to the
    degree, though int() reads "٢٠" as 20."""
    data = table_to_dict(_computed(3, ["(1,2)", "(1,2,3)"]))
    b = next(b for b, c in enumerate(data["classes"]) if c["order"] == 2)
    data["classes"][b]["representative"] = "(١,٢٠)"
    degree, fps = table_from_dict(data).fingerprints()
    assert degree == 3
    assert fps[b] == (3, 2, None)
    assert all(t is not None for a, (_, _, t) in enumerate(fps) if a != b)


M11_GROUP = {"name": "m11", "degree": 11,
             "generators": ["(1,2,3,4,5,6,7,8,9,10,11)", "(3,7,11,8)(4,10,5,6)"]}


def _cli(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(list(argv))
    return status, out.getvalue()


@pytest.fixture(scope="module")
def m11_report(tmp_path_factory):
    """The `chartable compute --format json` report of M11, as a file:
    its i*sqrt(2) cells are coefficient vectors at conductor 88."""
    d = tmp_path_factory.mktemp("m11")
    (d / "m11.json").write_text(json.dumps(M11_GROUP))
    status, text = _cli("chartable", "compute", "--group", str(d / "m11.json"),
                        "--format", "json")
    assert status == 0
    (d / "report.json").write_text(text)
    return d / "report.json"


def _is_vector(cell):
    return isinstance(cell, dict) and "conductor" in cell


@pytest.mark.parametrize("name", ["c2^3", "s4", "psl(2,7)", "g1344-deg8",
                                  "g1344-deg14", "m11"])
def test_loaded_tables_serialize_as_written(name, g8, g14, m11_report, tmp_path):
    """A loaded table serializes to the dict it was read from, at the
    declared conductor, while each cell sits at its least conductor and a
    coefficient vector at its own: M11's i*sqrt(2) stays a 40-entry
    vector at 88, not the 4-entry one at 8."""
    small = {"c2^3": (6, ["(1,2)", "(3,4)", "(5,6)"]),
             "s4": (4, ["(1,2,3,4)", "(1,2)"]),
             "psl(2,7)": (7, ["(1,2,3,4,5,6,7)", "(2,3)(4,7)"])}
    if name == "m11":
        data = json.loads(m11_report.read_text())["results"]["table"]
    elif name in small:
        data = table_to_dict(_computed(*small[name]))
    else:
        data = table_to_dict((g8 if name == "g1344-deg8" else g14).table)
    path = tmp_path / "table.json"
    path.write_text(json.dumps(data))
    loaded = load_table(str(path))
    assert table_to_dict(loaded) == dict(data, verified=False)
    cells = [(v, cell) for row, ch in zip(loaded.values, data["characters"])
             for v, cell in zip(row, ch["values"])]
    assert all(v.conductor == (cell["conductor"] if _is_vector(cell)
                               else v.reduced().conductor) for v, cell in cells)
    vectors = [cell for _, cell in cells if _is_vector(cell)]
    assert bool(vectors) == (name == "m11")
    assert all(c["conductor"] == 88 and len(c["coeffs"]) == 40 for c in vectors)


# sha256 prefixes of the match output, taken before loaded cells kept
# their own conductors
M11_SWAPPED_DIGESTS = {"table": "5b416506bea6d0c0", "json": "e4530f43adbbd15c"}


def test_match_against_swapped_vector_cells_prints_the_same_bytes(
        m11_report, tmp_path):
    """Two coefficient-vector cells of M11's report swapped in one row:
    the findings print both cells as 40-entry vectors at the declared
    conductor 88, the bytes pinned before loaded cells kept their own
    conductors.  The JSON is pinned without its dataset field, which
    holds the file paths."""
    report = json.loads(m11_report.read_text())
    rows = report["results"]["table"]["characters"]
    (i, j), (i2, j2) = [(i, j) for i, ch in enumerate(rows)
                        for j, cell in enumerate(ch["values"]) if _is_vector(cell)][:2]
    assert i == i2
    cells = rows[i]["values"]
    cells[j], cells[j2] = cells[j2], cells[j]
    swapped = tmp_path / "swapped.json"
    swapped.write_text(json.dumps(report))
    digests = {}
    for fmt in ("table", "json"):
        status, text = _cli("chartable", "match", str(m11_report), str(swapped),
                            "--allow-unverified", "--format", fmt)
        assert status == 1
        if fmt == "json":
            text = json.dumps(json.loads(text)["results"], indent=2, sort_keys=True)
        else:
            assert text.count("cyclotomic[") == 4
        digests[fmt] = hashlib.sha256(text.encode()).hexdigest()[:16]
    assert digests == M11_SWAPPED_DIGESTS


@pytest.mark.parametrize("cell, conductor, message", [
    ("x", 2000, "not an exact rational string: 'x'"),
    ({"D": -7, "a": "0", "b": "1"}, 12, "sqrt(-7) does not lie in conductor 12"),
    ({"D": -7, "a": "0", "b": "1"}, 1400, "conductor 1400 exceeds cap 1000"),
    ({"D": -3, "a": "x", "b": "1"}, 2000, "not an exact rational string: 'x'"),
    ({"D": -3, "b": "1"}, 2000, "bad quadratic value encoding: {'D': -3, 'b': '1'}"),
    ({"conductor": 8, "coeffs": ["0", "1", "0", "0"]}, 12,
     "cannot lift conductor 8 into 12"),
    ({"conductor": 8, "coeffs": ["0", "1", "0", "0"]}, 2000,
     "conductor 2000 exceeds cap 1000"),
    ("1", 2000, "conductor 2000 exceeds cap 1000"),
    ("1", 0, "conductor must be positive"),
    ({"D": -7, "a": "0", "b": "1"}, -7, "conductor must be positive"),
    ({"conductor": 8, "coeffs": ["0", "1", "0", "0"]}, -8,
     "conductor must be positive"),
])
def test_decode_errors_keep_their_order(cell, conductor, message):
    """The cell parses first, then its conductor must divide the
    declared one, then the declared one must lie within the cap: the
    checks a lift to the declared conductor makes, in its order, though
    the cell is kept at its own conductor."""
    with pytest.raises(InputError) as exc:
        decode_value(cell, conductor)
    assert str(exc.value) == message
