"""Tensor power decompositions and centralizer algebra dimensions.

Three independent routes produce the same numbers: direct inner
products against the k-th power of the natural character, iterated
multiplication by the transition matrix, and rational closed forms.
The tests also cross-check dimensions against fixed-point counting,
which is the same sum that counts orbits on 2k-tuples.
"""

import pytest

from ctrz.errors import InconsistencyError, InputError
from ctrz.exact import Cyclotomic
from ctrz.perm import FiniteGroup, ClassSet, parse_cycles, orbit_count_tuples
from ctrz.dixon import compute_character_table
from ctrz.chartab import ClassFunction, permutation_character
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
    arithmetic without going through decompose."""
    s3 = FiniteGroup([parse_cycles("(1,2)", 3), parse_cycles("(1,2,3)", 3)])
    cs = ClassSet(s3)
    s3_tab = compute_character_table(s3, cs)
    s3_chi = permutation_character(s3, cs, s3_tab)
    cases = [(g8.table, g8.permchar), (g14.table, g14.permchar),
             (s3_tab, s3_chi)]
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
