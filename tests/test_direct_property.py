"""The direct route against decomposing each power.

multiplicities_direct sums the line of the powers f^k of chi's values
against each row's line of a_(i,f) on the inner-product kernel.  For
random class functions on small tables it must give what decompose gives
for the pointwise power, for k = 1..12, or fail with the same
DecompositionError text.  The functions include characters, values at a
conductor the table's working one does not divide (zeta_5 on PSL(2,7)),
irrational levels and functions that are not characters.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from ctrz.chartab import ClassFunction, DecompositionError, decompose
from ctrz.dixon import compute_character_table
from ctrz.exact import Cyclotomic
from ctrz.perm import FiniteGroup, parse_cycles
from ctrz.tensor import multiplicities_direct

GROUPS = {
    "s3": (3, ["(1,2)", "(1,2,3)"]),
    "a4": (4, ["(1,2,3)", "(2,3,4)"]),
    "d4": (4, ["(1,2,3,4)", "(1,3)"]),
    "c5": (5, ["(1,2,3,4,5)"]),
    "psl(2,7)": (7, ["(1,2,3,4,5,6,7)", "(2,3)(4,7)"]),
}


@pytest.fixture(scope="module")
def tables():
    return {name: compute_character_table(
                FiniteGroup([parse_cycles(g, degree) for g in gens]))
            for name, (degree, gens) in GROUPS.items()}


def function(table, kind, picks, nums, dens):
    """A class function on the table: a nonnegative combination of rows
    (a character), the same times a root of unity of a conductor the
    working one does not divide ("foreign"), a row times a conjugate row
    (irrational levels where the table has irrational values), or cells
    drawn from the integers, the fractions and the fields of the
    divisors of the working conductor (rarely a character)."""
    r, w = table.size, table.working_conductor
    rows = table.working_rows
    if kind in ("character", "foreign"):
        values = [sum((rows[i][c] * nums[i] for i in range(r)),
                      Cyclotomic.from_rational(0, 1)) for c in range(r)]
        if kind == "foreign":
            m = 5 if w % 5 else 3
            z = Cyclotomic.zeta(m, 1 + picks[0] % (m - 1))
            values = [v * z if picks[c] % 2 else v for c, v in enumerate(values)]
        return ClassFunction(table, values)
    if kind == "product":
        i, j = picks[0] % r, picks[1] % r
        return ClassFunction(table, [a * b.conj() for a, b in zip(rows[i], rows[j])])
    divisors = [m for m in range(1, w + 1) if w % m == 0]
    values = []
    for c in range(r):
        q = Fraction(nums[c] - 2, dens[c])
        m = divisors[picks[c] % len(divisors)]
        values.append(Cyclotomic.zeta(m, picks[c] % m) * q)
    return ClassFunction(table, values)


def outcome(fn, *args):
    try:
        return fn(*args)
    except DecompositionError as exc:
        return "DecompositionError", str(exc)


@st.composite
def cases(draw):
    kind = draw(st.sampled_from(["character", "foreign", "product", "cells"]))
    picks = draw(st.lists(st.integers(0, 10**6), min_size=6, max_size=6))
    nums = draw(st.lists(st.integers(0, 3), min_size=6, max_size=6))
    dens = draw(st.lists(st.integers(1, 3), min_size=6, max_size=6))
    return kind, picks, nums, dens


@pytest.mark.parametrize("name", sorted(GROUPS))
@settings(max_examples=20, derandomize=True, deadline=None, database=None)
@given(case=cases())
def test_direct_route_equals_decomposing_the_power(tables, name, case):
    table = tables[name]
    chi = function(table, *case)
    for k in range(1, 13):
        assert outcome(multiplicities_direct, chi, table, k) == \
            outcome(decompose, chi.power(k), table)


def test_zeta5_on_psl27_lands_beyond_the_working_conductor(tables):
    """zeta_5 times the sum of two rows of PSL(2,7) needs conductor 35:
    the level lines are built there, and the powers k that are multiples
    of 5, characters again, decompose."""
    table = tables["psl(2,7)"]
    rows = table.working_rows
    z5 = Cyclotomic.zeta(5)
    chi = ClassFunction(table, [(a + b) * z5 for a, b in zip(rows[0], rows[1])])
    assert chi.level_lines()[0] == 35 and table.working_conductor == 7
    for k in range(1, 13):
        got = outcome(multiplicities_direct, chi, table, k)
        assert got == outcome(decompose, chi.power(k), table)
        assert isinstance(got[0], int) == (k % 5 == 0)
