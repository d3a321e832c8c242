"""inner_product, decompose and ClassFunction.levels against the Cyclotomic
loop they replaced.

The oracle below is inner_product as it was before inner products moved
to the int kernel that validate uses: per class a product, a conj, a
scalar and an add, then a division by the group order.  decompose and
levels are rebuilt on it as they were.  Every result must be the same
value at the same conductor with the same (num, den), and a function
that is not a character must fail decompose with the same text.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, seed, settings, strategies as st

from ctrz.chartab import (ClassFunction, DecompositionError, as_multiplicity,
                          decompose, inner_product, require_verified)
from ctrz.dixon import compute_character_table
from ctrz.exact import Cyclotomic
from ctrz.perm import FiniteGroup, parse_cycles


def oracle_inner_product(f, h):
    t = f.table
    acc = Cyclotomic.from_rational(0, 1)
    for size, a, b in zip((c.size for c in t.classes), f.values, h.values):
        acc = acc + a * b.conj() * size
    return acc / t.group_order


def oracle_decompose(f, table):
    require_verified(f, table)
    products = (oracle_inner_product(f, table.row(i)) for i in range(table.size))
    return tuple(as_multiplicity(v.num, v.den, label)
                 for v, label in zip(products, table.characters))


def oracle_levels(f):
    t = f.table
    groups = []
    for c, v in enumerate(f.values):
        for g, members in groups:
            if g == v:
                members.add(c)
                break
        else:
            groups.append((v, {c}))
    return [(g, tuple(oracle_inner_product(
                ClassFunction(t, [int(c in members) for c in range(t.size)]),
                t.row(i)) for i in range(t.size)))
            for g, members in groups]


def stored(v):
    return v.conductor, v.num, v.den


def outcome(fn, *args):
    try:
        return fn(*args)
    except DecompositionError as exc:
        return "DecompositionError", str(exc)


SMALL_GROUPS = {
    "psl(2,7)": (7, ["(1,2,3,4,5,6,7)", "(2,3)(4,7)"]),
    "s3": (3, ["(1,2)", "(1,2,3)"]),
    "c5": (5, ["(1,2,3,4,5)"]),
    "a5": (5, ["(1,2,3,4,5)", "(3,4,5)"]),
}


@pytest.fixture(scope="module")
def tables(g8, g14):
    out = {"g1344-deg8": g8.canonical_table, "g1344-deg8 published": g8.table,
           "g1344-deg14": g14.canonical_table, "g1344-deg14 published": g14.table}
    for name, (degree, gens) in SMALL_GROUPS.items():
        out[name] = compute_character_table(
            FiniteGroup([parse_cycles(g, degree) for g in gens]))
    return out


def function(table, kind, picks, nums, dens):
    """A class function on the table: a nonnegative combination of rows
    (a character, "lifted" to a conductor the working one does not
    divide), a row times a conjugate row (irrational on PSL(2,7)), or
    cells drawn from the integers, the fractions and the fields of the
    divisors of the working conductor, one cell at a conductor that does
    not divide it for "foreign"."""
    r, w = table.size, table.working_conductor
    rows = table.working_rows
    foreign = [m for m in (3, 4, 5) if w % m][picks[0] % 2]
    if kind in ("character", "lifted"):
        e = foreign * w if kind == "lifted" else w
        return ClassFunction(table, [
            sum((rows[i][c] * abs(nums[i]) for i in range(r)),
                Cyclotomic.from_rational(0, 1)).lift(e) for c in range(r)])
    if kind == "product":
        i, j = picks[0] % r, picks[1] % r
        return ClassFunction(table, [a * b.conj() * nums[0]
                                     for a, b in zip(rows[i], rows[j])])
    divisors = [m for m in range(1, w + 1) if w % m == 0]
    values = []
    for c in range(r):
        q = Fraction(nums[c], dens[c])
        choice = picks[c] % 3
        if choice == 0:
            values.append(nums[c])
        elif choice == 1:
            values.append(q)
        else:
            m = divisors[picks[c] % len(divisors)]
            values.append(Cyclotomic.zeta(m, picks[c] % m) * q)
    if kind == "foreign":
        values[picks[1] % r] = Cyclotomic.zeta(foreign, 1 + picks[2] % (foreign - 1))
    return ClassFunction(table, values)


@st.composite
def cases(draw):
    kind = draw(st.sampled_from(["character", "lifted", "product", "cells",
                                 "foreign"]))
    picks = draw(st.lists(st.integers(0, 10**6), min_size=11, max_size=11))
    nums = draw(st.lists(st.integers(-4, 4), min_size=11, max_size=11))
    dens = draw(st.lists(st.integers(1, 4), min_size=11, max_size=11))
    return kind, picks, nums, dens


@pytest.mark.parametrize("name", ["g1344-deg8", "g1344-deg8 published",
                                  "g1344-deg14", "g1344-deg14 published"]
                         + sorted(SMALL_GROUPS))
@seed(20261018)
@settings(max_examples=15, deadline=None, database=None)
@given(case=cases())
def test_the_kernel_gives_what_the_cyclotomic_loop_gives(tables, name, case):
    kind, picks, nums, dens = case
    table = tables[name]
    f = function(table, kind, picks, nums, dens)
    h = table.row(picks[3] % table.size)
    for x, y in ((f, h), (h, f), (f, f)):
        assert stored(inner_product(x, y)) == stored(oracle_inner_product(x, y))
    assert outcome(decompose, f, table) == outcome(oracle_decompose, f, table)
    got = ClassFunction(table, f.values).levels()
    want = oracle_levels(f)
    assert [(stored(g), [stored(a) for a in ga]) for g, ga in got] == \
        [(stored(g), [stored(a) for a in ga]) for g, ga in want]


def test_a_function_beyond_the_working_conductor(tables):
    """zeta_3 times a row of C5 (working conductor 5) lands at 15, where
    the rows' lines are built for that call."""
    table = tables["c5"]
    z3 = Cyclotomic.zeta(3)
    f = ClassFunction(table, [v * z3 for v in table.working_rows[1]])
    got = [inner_product(f, table.row(i)) for i in range(table.size)]
    assert {v.conductor for v in got} == {15}
    assert [stored(v) for v in got] == [
        stored(oracle_inner_product(f, table.row(i))) for i in range(table.size)]
    assert got[1] == z3 and all(v.is_zero() for i, v in enumerate(got) if i != 1)
    assert outcome(decompose, f, table) == outcome(oracle_decompose, f, table) == (
        "DecompositionError", f"multiplicity of {table.characters[1]} is irrational")
    lifted = ClassFunction(table, [v.lift(15) for v in table.working_rows[1]])
    assert decompose(lifted, table) == oracle_decompose(lifted, table) == (
        0, 1, 0, 0, 0)
    assert table.working_conductor == 5
