"""validate against the Cyclotomic loop it replaced.

The oracle below is validate as it was before the orthogonality sums
moved to int polynomials and before the column relations of a square
table were read off its row relations: every row and every column
relation summed, every term a Cyclotomic product, every sum a chain of
Cyclotomic additions.  Cells of a builtin or small-group table are
perturbed, by an integer, a fraction or a value of a field of conductor
> 1, and rows are negated, dropped or repeated; both must return the
same Violation list, the same describe() text included.
"""

from fractions import Fraction
from math import lcm

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, seed, settings, strategies as st

from ctrz.chartab import (CharacterTable, Violation, display_value,
                          validate)
from ctrz.datasets import transcription_table
from ctrz.dixon import compute_character_table
from ctrz.errors import InputError
from ctrz.exact import Cyclotomic
from ctrz.perm import FiniteGroup, parse_cycles


def oracle_validate(table):
    out = []
    order = table.group_order
    sizes = [c.size for c in table.classes]
    if order < 1 or any(s < 1 for s in sizes):
        out.append(Violation("class-sizes", "table",
                             "group order and class sizes must be positive"))
        return out
    if sum(sizes) != order:
        out.append(Violation("class-sizes", "table",
                             f"sizes sum to {sum(sizes)}, group order is {order}"))
    try:
        idc = table.identity_column()
    except InputError as exc:
        out.append(Violation("identity-class", "table", str(exc)))
        return out
    degrees = []
    for i, row in enumerate(table.values):
        v = row[idc]
        if not v.is_rational() or v.den != 1 or v.num[0] <= 0:
            out.append(Violation("degree", table.characters[i],
                                 "degree is not a positive integer"))
            return out
        degrees.append(v.as_integer())
    if sum(d * d for d in degrees) != order:
        out.append(Violation("degree-squares", "table",
                             f"squares sum to {sum(d * d for d in degrees)}, "
                             f"group order is {order}"))
    n, r = len(table.values), table.size
    rows = table.working_rows
    conj_rows = [[v.conj() for v in row] for row in rows]

    def shown(acc):
        return display_value(acc.lift(lcm(acc.conductor, table.conductor)))

    for i in range(n):
        for j in range(i, n):
            acc = Cyclotomic.from_rational(0, 1)
            for c in range(r):
                acc = acc + rows[i][c] * conj_rows[j][c] * sizes[c]
            want = order if i == j else 0
            if acc != want:
                out.append(Violation(
                    "row-orthogonality",
                    f"{table.characters[i]},{table.characters[j]}",
                    f"sum is {shown(acc)}, expected {want}"))
    for a in range(r):
        for b in range(a, r):
            acc = Cyclotomic.from_rational(0, 1)
            for i in range(n):
                acc = acc + rows[i][a] * conj_rows[i][b]
            want = order // sizes[a] if a == b else 0
            if a == b and order % sizes[a]:
                out.append(Violation("class-sizes", table.classes[a].label,
                                     "size does not divide group order"))
                continue
            if acc != want:
                out.append(Violation(
                    "column-orthogonality",
                    f"{table.classes[a].label},{table.classes[b].label}",
                    f"sum is {shown(acc)}, expected {want}"))
    return out


SMALL_GROUPS = {
    "s3": (3, ["(1,2)", "(1,2,3)"]),
    "c3": (3, ["(1,2,3)"]),
    "c4": (4, ["(1,2,3,4)"]),
    "c5": (5, ["(1,2,3,4,5)"]),
    "d4": (4, ["(1,2,3,4)", "(1,3)"]),
    "a5": (5, ["(1,2,3,4,5)", "(3,4,5)"]),
    "f21": (7, ["(1,2,3,4,5,6,7)", "(2,3,5)(4,7,6)"]),
}


@pytest.fixture(scope="module")
def tables(g8, g14):
    out = {"g1344-deg8": g8.canonical_table,
           "g1344-deg14": g14.canonical_table,
           "published-order": g8.table,
           "transcription": transcription_table("g1344-deg14")}
    for name, (degree, gens) in SMALL_GROUPS.items():
        out[name] = compute_character_table(
            FiniteGroup([parse_cycles(g, degree) for g in gens]))
    return out


@st.composite
def perturbations(draw):
    """(table name, kind, num, den, pick): the cell and the value that
    perturbed changes it by."""
    name = draw(st.sampled_from(
        ["g1344-deg8", "g1344-deg14", "published-order", "transcription"]
        + sorted(SMALL_GROUPS)))
    kind = draw(st.sampled_from(["int", "fraction", "field", "replace"]))
    num = draw(st.integers(-6, 6))
    den = draw(st.integers(1, 5))
    pick = draw(st.integers(0, 10**6))
    return name, kind, num, den, pick


def perturbed(table, kind, num, den, pick):
    r = table.size
    i, c = divmod(pick % (r * r), r)
    e = table.conductor
    rows = [list(row) for row in table.values]
    old = rows[i][c]
    if kind == "int":
        new = old + num
    elif kind == "fraction":
        new = old + Fraction(num, den)
    else:
        # a value of the field of a divisor m > 1 of the declared conductor
        divisors = [m for m in range(2, e + 1) if e % m == 0] or [1]
        m = divisors[pick % len(divisors)]
        z = Cyclotomic.zeta(m, pick % m) * Fraction(num, den)
        new = z.lift(e) if kind == "replace" else old + z.lift(e)
    rows[i][c] = new
    return CharacterTable(table.name, table.group_order, table.conductor,
                          table.classes, table.characters, rows)


@seed(20261018)
@settings(max_examples=60, deadline=None, database=None)
@given(perturbations())
def test_int_sums_report_what_the_cyclotomic_loop_reports(tables, case):
    name, kind, num, den, pick = case
    table = perturbed(tables[name], kind, num, den, pick)
    want = oracle_validate(table)
    got = validate(CharacterTable(table.name, table.group_order,
                                  table.conductor, table.classes,
                                  table.characters, table.values))
    assert got == want
    assert [v.describe() for v in got] == [v.describe() for v in want]


def test_unperturbed_tables_agree(tables):
    for name, table in tables.items():
        want = oracle_validate(table)
        assert validate(table) == want
        assert bool(want) == (name == "transcription")


@st.composite
def reshapings(draw):
    """(table name, cell perturbations, row change, row pick): one or two
    cells perturbed as perturbations() draws them, or none, and the rows
    kept, one negated (every row relation still holds), the last dropped
    or the first repeated (a non-square table)."""
    name = draw(st.sampled_from(sorted(SMALL_GROUPS) + ["g1344-deg8"]))
    cells = draw(st.lists(perturbations().map(lambda case: case[1:]),
                          min_size=0, max_size=2))
    change = draw(st.sampled_from(["keep", "negate", "drop", "repeat"]))
    return name, cells, change, draw(st.integers(0, 10**6))


def reshaped(table, cells, change, pick):
    for case in cells:
        table = perturbed(table, *case)
    rows = [list(row) for row in table.values]
    labels = list(table.characters)
    if change == "negate":
        i = pick % len(rows)
        rows[i] = [-v for v in rows[i]]
    elif change == "drop":
        rows, labels = rows[:-1], labels[:-1]
    elif change == "repeat":
        rows, labels = rows + rows[:1], labels + ["extra"]
    return CharacterTable(table.name, table.group_order, table.conductor,
                          table.classes, labels, rows)


@seed(20261019)
@settings(max_examples=60, deadline=None, database=None)
@given(reshapings())
def test_column_relations_read_off_rows_report_every_sum(tables, case):
    """Every relation summed by the oracle, against validate, which skips
    the column sums of a square table whose row relations hold."""
    name, cells, change, pick = case
    table = reshaped(tables[name], cells, change, pick)
    want = oracle_validate(table)
    got = validate(table)
    assert got == want
    assert [v.describe() for v in got] == [v.describe() for v in want]


def test_non_square_table_reports_its_column_relations(tables):
    """S3 without its last row: the two rows left are orthonormal, so
    only the column relations and the degree squares can fail."""
    table = reshaped(tables["s3"], [], "drop", 0)
    got = validate(table)
    assert got == oracle_validate(table)
    assert {v.kind for v in got} == {"degree-squares", "column-orthogonality"}
