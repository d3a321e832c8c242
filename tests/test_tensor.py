"""Tensor power decompositions and centralizer algebra dimensions.

Three independent routes produce the same numbers: direct inner
products against the k-th power of the natural character, iterated
multiplication by the transition matrix, and rational closed forms.
The tests also cross-check dimensions against fixed-point counting,
which is the same sum that counts orbits on 2k-tuples.
"""

from fractions import Fraction

import pytest

from ctrz import chartab, datasets, tensor
from ctrz.errors import InconsistencyError, InputError
from ctrz.exact import Cyclotomic
from ctrz.perm import FiniteGroup, ClassSet, parse_cycles, orbit_count_tuples
from ctrz.dixon import compute_character_table
from ctrz.chartab import (ClassFunction, DecompositionError, decompose,
                          permutation_character, table_from_dict, table_to_dict)
from ctrz.tensor import (AGREEMENT_BOUND, transition_matrix,
                         multiplicities_direct, multiplicities_recurrence,
                         closed_form_multiplicities, agreed_multiplicities,
                         SemisimpleStructure, dimension_closed_form,
                         dims_row)

PUBLISHED_DIMS = {
    "g1344-deg8": [2, 16, 342, 14606, 831982, 51656046],
    "g1344-deg14": [3, 82, 7328, 1159392, 217424128, 42262333952],
}

FIRST_MULTIPLICITIES = {
    "g1344-deg8": (1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0),
    "g1344-deg14": (1, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0),
}

SECOND_MULTIPLICITIES = {
    "g1344-deg8": (2, 0, 0, 1, 0, 0, 0, 3, 1, 0, 1),
    "g1344-deg14": (3, 0, 0, 5, 1, 2, 5, 0, 3, 3, 0),
}


def test_transition_matrix_against_inner_products(g8, g14):
    """The inner products <chi_i chi, chi_j> are the entries A_ij exactly
    when sum_j A_ij chi_j(c) = chi_i(c) chi(c) at every class c, since
    the irreducibles are linearly independent.  Checked in exact
    arithmetic without going through decompose, which gives the rows of
    a chi that is not rational: g1344-deg8's chi2 and a faithful linear
    character of C4, neither of them real."""
    s3 = FiniteGroup([parse_cycles("(1,2)", 3), parse_cycles("(1,2,3)", 3)])
    cs = ClassSet(s3)
    s3_tab = compute_character_table(s3, cs)
    s3_chi = permutation_character(s3, cs, s3_tab)
    c4 = compute_character_table(FiniteGroup([parse_cycles("(1,2,3,4)", 4)]))
    cases = [(g8.table, g8.permchar), (g14.table, g14.permchar),
             (s3_tab, s3_chi), (g8.table, g8.table.row(1)), (c4, c4.row(2))]
    for tab, chi in cases[3:]:
        assert any(v != v.conj() for v in chi.values)
    for tab, chi in cases:
        mat = transition_matrix(chi, tab)
        for i, row in enumerate(mat):
            for c in range(tab.size):
                total = Cyclotomic.from_rational(0)
                for j, m in enumerate(row):
                    total = total + tab.values[j][c] * m
                assert total == tab.values[i][c] * chi.values[c]


def test_transition_matrix_for_trivial_character_is_identity(g8):
    tab = g8.table
    one = ClassFunction(tab, [Cyclotomic.from_rational(1, tab.conductor)] * tab.size)
    mat = transition_matrix(one, tab)
    n = tab.size
    assert mat == [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def test_transition_matrix_weighted_row_sums(g8, g14):
    """Multiplying by a degree-n character scales total dimension by n:
    sum_j A[i][j] deg_j = n deg_i."""
    for a, n in ((g8, 8), (g14, 14)):
        degrees = a.table.degrees()
        for i, row in enumerate(a.transition):
            assert sum(m * d for m, d in zip(row, degrees)) == n * degrees[i]


def test_transition_matrix_requires_verified_table():
    g = FiniteGroup([parse_cycles("(1,2)", 3), parse_cycles("(1,2,3)", 3)])
    cs = ClassSet(g)
    tab = compute_character_table(g, cs)
    chi = permutation_character(g, cs, tab)
    mat = transition_matrix(chi, tab)
    # Rows: trivial, sign, standard; standard squared contains all three.
    assert mat == [[1, 0, 1], [0, 1, 1], [1, 1, 2]]


def test_first_power_multiplicities(g8, g14):
    for a, name in ((g8, "g1344-deg8"), (g14, "g1344-deg14")):
        assert multiplicities_direct(a.permchar, a.table, 1) == \
            FIRST_MULTIPLICITIES[name]


def test_second_power_multiplicities(g8, g14):
    for a, name in ((g8, "g1344-deg8"), (g14, "g1344-deg14")):
        assert multiplicities_direct(a.permchar, a.table, 2) == \
            SECOND_MULTIPLICITIES[name]


def test_three_methods_agree_up_to_the_bound(g8, g14):
    for a in (g8, g14):
        mat = a.transition
        for k in range(1, AGREEMENT_BOUND + 1):
            direct = multiplicities_direct(a.permchar, a.table, k)
            recur = multiplicities_recurrence(a.permchar, a.table, k, matrix=mat)
            closed = closed_form_multiplicities(a.family, k)
            assert direct == recur == closed


def test_agreed_multiplicities_checks_the_matrix_at_k1(g8):
    """At k = 1 the recurrence reads the trivial row of A, so a corrupted
    entry there must break the agreement with the direct route."""
    bad = [list(row) for row in g8.transition]
    trivial = next(i for i, row in enumerate(g8.table.values)
                   if all(v == 1 for v in row))
    bad[trivial][0] += 1
    with pytest.raises(InconsistencyError):
        agreed_multiplicities(g8.permchar, g8.table, 1, matrix=bad)


def test_agreed_multiplicities_beyond_bound_uses_recurrence(g8):
    d = agreed_multiplicities(g8.permchar, g8.table, 20,
                              family=g8.family, matrix=g8.transition)
    mat = g8.transition
    assert d == multiplicities_recurrence(g8.permchar, g8.table, 20, matrix=mat)


def test_degree_weighted_sums_reach_the_full_tensor_power(g8, g14):
    for a, n in ((g8, 8), (g14, 14)):
        degrees = a.table.degrees()
        for k in range(1, 13):
            d = multiplicities_recurrence(a.permchar, a.table, k,
                                          matrix=a.transition)
            assert sum(m * deg for m, deg in zip(d, degrees)) == n ** k


def test_paired_rows_stay_equal(g8, g14):
    """Rows 2 and 3 are complex conjugate characters, so they always
    appear with equal multiplicity; for the degree-8 group the same
    holds for rows 5 and 7 (equal restriction to every tensor power)."""
    for a in (g8, g14):
        for k in range(1, 13):
            d = multiplicities_recurrence(a.permchar, a.table, k,
                                          matrix=a.transition)
            assert d[1] == d[2]
            if a is g8:
                assert d[4] == d[6]


def test_published_dimensions_all_methods(g8, g14):
    for a, name in ((g8, "g1344-deg8"), (g14, "g1344-deg14")):
        for k in range(1, 7):
            d = agreed_multiplicities(a.permchar, a.table, k,
                                      family=a.family, matrix=a.transition)
            row = dims_row(a.class_set, d, k, family=a.family)
            expected = PUBLISHED_DIMS[name][k - 1]
            assert row["dimension"] == expected
            assert row["sum_of_squares"] == expected
            assert row["fixed_point_formula"] == expected
            assert row["closed_form"] == expected


def test_dimension_from_vector():
    assert SemisimpleStructure((2, 0, 0, 1, 0, 0, 0, 3, 1, 0, 1)).dimension == 16
    assert SemisimpleStructure(()).dimension == 0


def test_dims_row_rejects_a_negative_multiplicity():
    g = FiniteGroup([parse_cycles("(1,2)", 3), parse_cycles("(1,2,3)", 3)])
    with pytest.raises(InputError, match="^multiplicities must be nonnegative$"):
        dims_row(ClassSet(g), (1, -1, 2), 1)


def test_dimension_closed_form_rejects_unknown_family():
    with pytest.raises(InputError):
        dimension_closed_form("nope", 2)
    with pytest.raises(InputError):
        closed_form_multiplicities("nope", 2)


def test_closed_form_rejects_bad_k():
    with pytest.raises(InputError):
        closed_form_multiplicities("g1344-deg8", 0)


def test_semisimple_structure_display():
    s = SemisimpleStructure((2, 0, 0, 1, 0, 0, 0, 3, 1, 0, 1))
    assert s.display() == "M_3 ⊕ M_2 ⊕ 3M_1"
    assert s.compact() == "M3+M2+3M1"
    assert s.dimension == 16
    assert SemisimpleStructure((1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0)).display() == "2M_1"
    assert SemisimpleStructure((1, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0)).display() == "3M_1"
    assert SemisimpleStructure((3, 0, 0, 5, 1, 2, 5, 0, 3, 3, 0)).display() == \
        "2M_5 ⊕ 3M_3 ⊕ M_2 ⊕ M_1"


def test_semisimple_structure_empty_and_invalid():
    assert SemisimpleStructure((0, 0)).display() == "0"
    assert SemisimpleStructure((0, 0)).dimension == 0
    with pytest.raises(InputError):
        SemisimpleStructure((1, -1))


def test_semisimple_structure_to_dict():
    s = SemisimpleStructure((2, 1))
    d = s.to_dict()
    assert d["dimension"] == 5
    assert d["blocks"] == [{"size": 2, "count": 1}, {"size": 1, "count": 1}]


def test_small_group_tensor_powers_by_hand():
    """S3 with its natural 3-point character chi = (3, 0, 1): the square
    (9, 0, 1) has inner products 2, 1, 3 with trivial, sign, standard,
    and 4 + 1 + 9 = 14 matches the orbit count on 4-tuples, which is
    Bell(4) minus the one partition needing four distinct points."""
    g = FiniteGroup([parse_cycles("(1,2)", 3), parse_cycles("(1,2,3)", 3)])
    cs = ClassSet(g)
    tab = compute_character_table(g, cs)
    chi = permutation_character(g, cs, tab)
    assert multiplicities_direct(chi, tab, 2) == (2, 1, 3)
    mat = transition_matrix(chi, tab)
    assert multiplicities_recurrence(chi, tab, 2, matrix=mat) == (2, 1, 3)
    assert dims_row(cs, (2, 1, 3), 2)["fixed_point_formula"] == 14
    assert orbit_count_tuples(g, 4, method="direct") == 14


def test_agreed_multiplicities_without_family(g8):
    d = agreed_multiplicities(g8.permchar, g8.table, 3, matrix=g8.transition)
    assert d == closed_form_multiplicities("g1344-deg8", 3)


def _small_group_character(generators, degree):
    g = FiniteGroup([parse_cycles(x, degree) for x in generators])
    cs = ClassSet(g)
    tab = compute_character_table(g, cs)
    return permutation_character(g, cs, tab), tab


def _psl27():
    return _small_group_character(["(1,2,3,4,5,6,7)", "(2,3)(4,7)"], 7)


@pytest.mark.parametrize("name", ["g1344-deg8", "g1344-deg14", "psl(2,7)", "s4"])
def test_direct_route_equals_decomposing_each_power(name, g8, g14):
    """The regrouped sum over chi's values is the inner product of the
    pointwise power, for every k to 30."""
    if name in ("g1344-deg8", "g1344-deg14"):
        a = g8 if name == "g1344-deg8" else g14
        chi, tab = a.permchar, a.table
    elif name == "psl(2,7)":
        chi, tab = _psl27()
    else:
        chi, tab = _small_group_character(["(1,2,3,4)", "(1,2)"], 4)
    for k in range(1, 31):
        assert multiplicities_direct(chi, tab, k) == decompose(chi.power(k), tab)


def test_direct_route_on_an_irrational_character():
    """chi_i * conj(chi_j) of PSL(2,7) with irrational values: its levels
    are grouped by exact equality and its f^k are cyclotomic powers."""
    _, tab = _psl27()
    r = tab.size
    products = [tab.row(i) * ClassFunction(tab, [v.conj() for v in tab.row(j).values])
                for i in range(r) for j in range(r)]
    chi = min((p for p in products if not all(v.is_rational() for v in p.values)),
              key=lambda p: len(p.levels()))
    assert len(chi.levels()) == 4  # 24, 0 on three classes, two irrationals
    for k in range(1, 31):
        assert multiplicities_direct(chi, tab, k) == decompose(chi.power(k), tab)


def test_direct_route_rejects_a_non_character_as_decompose_does():
    """Both routes raise the same text: on PSL(2,7) at k = 1, 3, and on
    chi4/2 - 2*chi3 of S4, rational with its lines at conductor 1 and
    one fractional and one negative multiplicity, at k = 1, 2, 5.  At
    k = 1 a fractional, a negative and an irrational multiplicity are
    pinned."""
    chi, tab = _psl27()
    _, s4 = _small_group_character(["(1,2,3,4)", "(1,2)"], 4)
    rows = s4.working_rows
    mixed = ClassFunction(s4, [a * Fraction(1, 2) - b * 2
                               for a, b in zip(rows[3], rows[2])])
    assert mixed.level_lines()[0] == 1
    cases = [(ClassFunction(tab, values), (1, 3))
             for values in ([1] + [0] * (tab.size - 1), [-v for v in chi.values])]
    for f, ks in cases + [(mixed, (1, 2, 5))]:
        for k in ks:
            with pytest.raises(DecompositionError) as direct:
                multiplicities_direct(f, f.table, k)
            with pytest.raises(DecompositionError) as reference:
                decompose(f.power(k), f.table)
            assert str(direct.value) == str(reference.value)
    for values, shown in (([Fraction(1, 2)] * tab.size, "1/2"),
                          ([-v for v in chi.values], "-1"),
                          ([Cyclotomic.zeta(3)] * tab.size, "irrational")):
        f = ClassFunction(tab, values)
        for route in (decompose, lambda f, tab: multiplicities_direct(f, tab, 1)):
            with pytest.raises(DecompositionError) as exc:
                route(f, tab)
            assert str(exc.value) == f"multiplicity of {tab.characters[0]} is {shown}"


def test_direct_route_on_rational_bases_over_two():
    """Half the permutation character of S3 takes the values 3/2, 0 and
    1/2, each power an int numerator over 2^k: the direct route raises
    the text decompose gives for the power, the fractional multiplicity
    of chi1."""
    chi, tab = _small_group_character(["(1,2)", "(1,2,3)"], 3)
    half = ClassFunction(tab, [v * Fraction(1, 2) for v in chi.values])
    assert [f.as_rational() for f in half.level_lines()[1]] == \
        [Fraction(3, 2), 0, Fraction(1, 2)]
    pinned = ["1/2", "1/2", "5/8", "7/8", "41/32", "61/32", "365/128"]
    for k, shown in enumerate(pinned, 1):
        with pytest.raises(DecompositionError) as direct:
            multiplicities_direct(half, tab, k)
        with pytest.raises(DecompositionError) as reference:
            decompose(half.power(k), tab)
        assert str(direct.value) == str(reference.value) == \
            f"multiplicity of chi1 is {shown}"


def test_direct_route_on_lines_wider_than_one():
    """A faithful linear character of C4 has values +-1 and +-i, so its
    lines sit at conductor 4 and some row's a_(i,f) has higher terms:
    the one kernel call gives what decomposing each power gives, and a
    non-character raises the text of decompose for its first failing
    row, with an irrational one caught in a sum's higher terms."""
    c4 = compute_character_table(FiniteGroup([parse_cycles("(1,2,3,4)", 4)]))
    lam = c4.row(2)
    e, _, lines = lam.level_lines()
    assert e == 4 and any(rest for _, _, rest in lines)
    for k in range(1, 9):
        assert multiplicities_direct(lam, c4, k) == decompose(lam.power(k), c4)
    i = Cyclotomic.zeta(4)
    cases = [([v * Fraction(1, 2) for v in lam.values], "chi3 is 1/2"),
             ([v + i for v in lam.values], "chi1 is irrational"),
             ([-v for v in lam.values], "chi3 is -1")]
    for values, shown in cases:
        f = ClassFunction(c4, values)
        for k in (1, 3, 5):  # (-lam)^2 is a character
            with pytest.raises(DecompositionError) as direct:
                multiplicities_direct(f, c4, k)
            with pytest.raises(DecompositionError) as reference:
                decompose(f.power(k), c4)
            assert str(direct.value) == str(reference.value)
        with pytest.raises(DecompositionError) as exc:
            multiplicities_direct(f, c4, 1)
        assert str(exc.value) == f"multiplicity of {shown}"


def test_permutation_characters_run_the_direct_route_at_conductor_1(g8, g14):
    """A rational chi has rational a_(i,f), so its level lines sit at
    conductor 1 even where the table's working conductor is 7."""
    cases = [(a.permchar, a.table) for a in (g8, g14)] + [
        _psl27(), _small_group_character(["(1,2,3,4,5,6,7)", "(1,2)"], 7)]
    for chi, tab in cases:
        e, bases, _ = chi.level_lines()
        assert e == 1 and all(f.conductor == 1 for f in bases)
    assert [tab.working_conductor for _, tab in cases] == [7, 7, 7, 1]


def test_direct_route_requires_a_verified_table():
    chi, tab = _psl27()
    tab.verified = False
    with pytest.raises(InputError, match="unverified"):
        multiplicities_direct(chi, tab, 2)


def test_recurrence_requires_a_verified_table_of_its_character(g8):
    """A table reloaded from JSON is unverified, and a character of
    another table does not live on it: the recurrence refuses both, as
    the direct route and decompose do."""
    reloaded = table_from_dict(table_to_dict(g8.table))
    assert not reloaded.verified
    chi = ClassFunction(reloaded, g8.permchar.values)
    with pytest.raises(InputError, match="unverified"):
        multiplicities_direct(chi, reloaded, 2)
    with pytest.raises(InputError, match="unverified"):
        decompose(chi, reloaded)
    with pytest.raises(InputError, match="unverified"):
        multiplicities_recurrence(chi, reloaded, 2, matrix=g8.transition)
    with pytest.raises(InputError, match="different table"):
        multiplicities_recurrence(g8.permchar, reloaded, 2, matrix=g8.transition)
    assert (multiplicities_recurrence(g8.permchar, g8.table, 2, matrix=g8.transition)
            == SECOND_MULTIPLICITIES["g1344-deg8"])


def _published_by_hand(family, k):
    """The published multiplicity formulas as printed, letters a..l in
    the published row order: the oracle for the coefficient data."""
    if family == "g1344-deg8":
        p8, p4, p2 = Fraction(8) ** k, Fraction(4) ** k, Fraction(2) ** k
        a = p8 / 1344 + p4 / 32 + Fraction(7, 24) * p2 + Fraction(2, 7)
        b = p8 / 448 - p4 / 32 + p2 / 8 - Fraction(1, 7)
        d = p8 / 224 + p4 / 16 - Fraction(2, 7)
        e = p8 / 192 - p4 / 32 + p2 / 24
        f = p8 / 168 - p2 / 6 + Fraction(2, 7)
        h = p8 / 192 + Fraction(3, 32) * p4 + Fraction(7, 24) * p2
        i = p8 / 96 + p4 / 16 - p2 / 6
        j = p8 / 64 - Fraction(3, 32) * p4 + p2 / 8
        el = p8 / 64 + p4 / 32 - p2 / 8
        return (a, b, b, d, e, f, e, h, i, j, el)
    t, s7, s3 = Fraction(2) ** k, Fraction(7) ** k, Fraction(3) ** k
    return tuple(t * x for x in (
        s7 / 1344 + Fraction(7, 192) * s3 + Fraction(37, 96),
        s7 / 448 - s3 / 64 + Fraction(1, 32),
        s7 / 448 - s3 / 64 + Fraction(1, 32),
        s7 / 224 + Fraction(3, 32) * s3 + Fraction(3, 16),
        s7 / 192 + s3 / 192 - Fraction(5, 96),
        s7 / 168 + s3 / 24 - Fraction(1, 6),
        s7 / 192 + Fraction(17, 192) * s3 + Fraction(19, 96),
        s7 / 192 - Fraction(7, 192) * s3 + Fraction(7, 96),
        s7 / 96 + Fraction(5, 96) * s3 - Fraction(11, 48),
        s7 / 64 + s3 / 64 - Fraction(5, 32),
        s7 / 64 - Fraction(7, 64) * s3 + Fraction(7, 32)))


def _dimension_by_hand(family, k):
    if family == "g1344-deg8":
        return (Fraction(2) ** (6 * k) / 1344 + Fraction(2) ** (4 * k) / 32
                + Fraction(7, 24) * Fraction(2) ** (2 * k) + Fraction(2, 7))
    return Fraction(2) ** (2 * k) * (
        Fraction(7) ** (2 * k) / 1344
        + Fraction(7, 192) * Fraction(3) ** (2 * k) + Fraction(37, 96))


@pytest.mark.parametrize("family", ["g1344-deg8", "g1344-deg14"])
def test_closed_form_data_equals_the_printed_formulas(family):
    for k in range(1, 61):
        assert closed_form_multiplicities(family, k) == \
            _published_by_hand(family, k)
        assert dimension_closed_form(family, k) == _dimension_by_hand(family, k)


@pytest.mark.parametrize("family", ["g1344-deg8", "g1344-deg14"])
def test_closed_forms_are_int_numerators_over_one_denominator(family):
    """Each family is held as ints over the lcm of its printed
    denominators, 1344, and each int over it is the printed coefficient."""
    bases, den, rows = datasets.CLOSED_FORMS[family]
    printed_bases, text = datasets._CLOSED_FORM_TEXT[family]
    printed = [line.split() for line in text.strip().split("\n")]
    assert bases == printed_bases and den == 1344
    assert all(type(c) is int for row in rows for c in row)
    assert [[Fraction(c, den) for c in row] for row in rows] == \
        [[Fraction(c) for c in row] for row in printed]


def test_a_closed_form_dimension_that_is_no_integer_names_its_value(monkeypatch):
    """The trivial row's coefficient of 8^k raised by 1/1344 adds
    8^2/1344 = 1/21 to the dimension at k = 1, 2 orbits on pairs."""
    bases, den, rows = datasets.CLOSED_FORMS["g1344-deg8"]
    corrupted = [list(row) for row in rows]
    corrupted[0][0] += 1
    monkeypatch.setitem(datasets.CLOSED_FORMS, "g1344-deg8",
                        (bases, den, tuple(map(tuple, corrupted))))
    with pytest.raises(InconsistencyError) as exc:
        dimension_closed_form("g1344-deg8", 1)
    assert str(exc.value) == ("closed form for multiplicity 1 evaluated to "
                              "43/21, not a nonnegative integer")


def _fresh(a):
    """The permutation character of a as a new object: no kept levels
    and no proof on record."""
    return ClassFunction(a.table, a.permchar.values)


def test_a_corrupted_published_coefficient_is_caught(g8, monkeypatch):
    bases, den, rows = datasets.CLOSED_FORMS["g1344-deg8"]
    corrupted = [list(row) for row in rows]
    corrupted[7][1] += den // 32  # the published coefficient + 1/32
    monkeypatch.setitem(datasets.CLOSED_FORMS, "g1344-deg8",
                        (bases, den, tuple(map(tuple, corrupted))))
    with pytest.raises(InconsistencyError, match=(
            r"closed form for chi8 disagrees at base 4: "
            r"published 1/8, derived 3/32")):
        agreed_multiplicities(_fresh(g8), g8.table, 30, family=g8.family,
                              matrix=g8.transition)


def test_every_corrupted_entry_of_the_transition_matrix_is_caught(g8, g14):
    for a in (g8, g14):
        for i, row in enumerate(a.transition):
            for j in range(len(row)):
                bad = [list(r) for r in a.transition]
                bad[i][j] += 1
                with pytest.raises(InconsistencyError,
                                   match="direct and recurrence"):
                    agreed_multiplicities(a.permchar, a.table, 30,
                                          family=a.family, matrix=bad)


def test_a_corrupted_level_coefficient_is_caught(g8, g14):
    for a in (g8, g14):
        chi = _fresh(a)
        f, coefficients = chi.levels()[0]  # the degree, never 0
        chi.levels()[0] = (f, coefficients[:1] + (coefficients[1] + 1,)
                           + coefficients[2:])
        with pytest.raises(InconsistencyError):
            agreed_multiplicities(chi, a.table, 30, matrix=a.transition)


def test_the_proof_runs_once_per_character_matrix_and_family(g8, monkeypatch):
    calls = []
    real = tensor.multiplicities_recurrence

    def counted(*args, **kwargs):
        calls.append(args[2])
        return real(*args, **kwargs)

    monkeypatch.setattr(tensor, "multiplicities_recurrence", counted)
    chi = _fresh(g8)
    s = len(chi.levels())
    for k in (1, 40, 3000):
        copy = [list(row) for row in g8.transition]  # equal content
        agreed_multiplicities(chi, g8.table, k, family=g8.family, matrix=copy)
    assert calls == list(range(1, s + 2))
    agreed_multiplicities(chi, g8.table, 5, matrix=g8.transition)
    assert len(calls) == 2 * (s + 1)  # another family proves again


@pytest.mark.parametrize("generators, degree", [
    (["(1,2)", "(1,2,3)"], 3),
    (["(1,2,3)", "(2,3,4)"], 4),
    (["(1,2,3,4)", "(1,3)"], 4),
    (["(1,2,3,4)", "(1,2)"], 4),
    (["(1,2,3,4,5)"], 5),
    (["(1,2,3,4,5,6,7)", "(2,3)(4,7)"], 7),
], ids=["s3", "a4", "d4", "s4", "c5", "psl(2,7)"])
def test_agreed_multiplicities_equal_the_recurrence_on_small_groups(
        generators, degree):
    chi, tab = _small_group_character(generators, degree)
    mat = transition_matrix(chi, tab)
    for k in range(1, 41):
        assert agreed_multiplicities(chi, tab, k, matrix=mat) == \
            multiplicities_recurrence(chi, tab, k, matrix=mat)


def _reference_transition(chi, table):
    """The reference the int sums must equal: row i the decomposition of
    chi_i * chi, its error wrapped with the row."""
    out = []
    for i in range(table.size):
        try:
            out.append(list(decompose(table.row(i) * chi, table)))
        except DecompositionError as exc:
            raise InconsistencyError(f"transition row {i + 1}: {exc}") from exc
    return out


def _transition_outcome(fn, chi, table):
    try:
        return fn(chi, table)
    except InconsistencyError as exc:
        return "InconsistencyError", str(exc)


def _transition_cases(chi, tab):
    """chi, half of it (a character only if every multiplicity is even)
    and chi times the first row that is not real, if any, or else the
    last: the transition of each against the reference."""
    i = next((i for i in range(tab.size)
              if any(v != v.conj() for v in tab.row(i).values)), tab.size - 1)
    for f in (chi, ClassFunction(tab, [v * Fraction(1, 2) for v in chi.values]),
              chi * tab.row(i)):
        assert _transition_outcome(transition_matrix, f, tab) == \
            _transition_outcome(_reference_transition, f, tab)


@pytest.mark.parametrize("name", ["s3", "s4", "a5", "psl(2,7)",
                                  "g1344-deg8", "g1344-deg14"])
def test_transition_matrix_equals_the_per_row_decomposition(name, g8, g14):
    """The int sums give the matrix, or the error, that decomposing each
    chi_i * chi gave, on real and non-real functions."""
    small = {"s3": (["(1,2)", "(1,2,3)"], 3), "s4": (["(1,2,3,4)", "(1,2)"], 4),
             "a5": (["(1,2,3,4,5)", "(1,2,3)"], 5),
             "psl(2,7)": (["(1,2,3,4,5,6,7)", "(2,3)(4,7)"], 7)}
    if name in small:
        chi, tab = _small_group_character(*small[name])
    else:
        a = g8 if name == "g1344-deg8" else g14
        chi, tab = a.permchar, a.table
        assert transition_matrix(chi, tab) == a.transition
    _transition_cases(chi, tab)


def test_transition_matrix_on_random_small_groups():
    """The same comparison on the random groups of the permutation
    property tests, generated by up to three permutations of degree at
    most six."""
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings
    from test_perm_property import generator_lists

    @settings(max_examples=40, deadline=None)
    @given(generator_lists())
    def check(gens):
        g = FiniteGroup(gens)
        cs = ClassSet(g)
        tab = compute_character_table(g, cs)
        _transition_cases(permutation_character(g, cs, tab), tab)

    check()


def test_transition_matrix_sums_half_the_entries_for_a_real_character(
        g8, monkeypatch):
    """A real chi has A_ji = A_ij, so r(r + 1)/2 int sums give the
    matrix; a faithful linear character of C4, not real, needs all r^2,
    one decomposition of r sums per row, and its matrix, multiplication
    by it, is not symmetric.  Each kernel call counts one sum per line."""
    sums = []
    real = tensor._weighted_sums

    def counted(w, a, lines, weights):
        sums.extend([1] * len(lines))
        return real(w, a, lines, weights)

    monkeypatch.setattr(tensor, "_weighted_sums", counted)
    monkeypatch.setattr(chartab, "_weighted_sums", counted)
    r = g8.table.size
    assert transition_matrix(g8.permchar, g8.table) == g8.transition
    assert len(sums) == r * (r + 1) // 2
    c4 = compute_character_table(FiniteGroup([parse_cycles("(1,2,3,4)", 4)]))
    lam = c4.row(2)
    assert [v.as_rational() if v.is_rational() else None
            for v in lam.values] == [1, -1, None, None]
    sums.clear()
    mat = transition_matrix(lam, c4)
    assert len(sums) == 16
    assert mat == _reference_transition(lam, c4)
    assert mat != [list(col) for col in zip(*mat)]
    assert sorted(map(sorted, mat)) == [[0, 0, 0, 1]] * 4


def test_transition_matrix_names_the_first_failing_entry():
    """Half the permutation character of S3 is no character: the error
    names row 1 and its first entry that is no nonnegative integer, as
    the per-row decomposition did."""
    chi, tab = _small_group_character(["(1,2)", "(1,2,3)"], 3)
    half = ClassFunction(tab, [v * Fraction(1, 2) for v in chi.values])
    with pytest.raises(InconsistencyError) as got:
        transition_matrix(half, tab)
    with pytest.raises(InconsistencyError) as want:
        _reference_transition(half, tab)
    assert str(got.value) == str(want.value) == \
        "transition row 1: multiplicity of chi1 is 1/2"
