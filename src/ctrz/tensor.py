"""Tensor powers of a permutation character and the centralizer algebra
they generate.

For a degree-n permutation group with permutation character chi, the
k-th tensor power of the natural representation decomposes with
multiplicity vector d(k), and the commutant is a direct sum of one full
matrix block of size d_i(k) per irreducible with d_i(k) > 0.  Three
independent routes to d(k) are implemented:

  direct      <chi^k, chi_i> regrouped on the values f of chi:
              m_i(k) = sum over f of f^k * a_(i,f), the inner products
              a_(i,f) = <1_(chi=f), chi_i> kept on chi after first use
              as one int matrix per row at the least conductor holding
              every f and a_(i,f), each m_i(k) that matrix applied to
              the stacked coefficients of the f^k: for a rational chi
              one dot product of s ints at conductor 1,
  recurrence  the trivial character's row of A^k, where A is the
              transition matrix, A_ij = <chi_i * chi, chi_j>, one int sum
              each, r(r+1)/2 of them mirrored for a real chi,
  closed form published per-irreducible formulas for the two embedded
              groups, one coefficient per base f per irreducible.

One proof per chi, matrix and family cross-checks every k.  With s
distinct values f, the direct route satisfies the linear recurrence
with characteristic polynomial P = prod (x - f).  Agreement at
k = 1..s+1 gives e_1 A P(A) = 0, so e_1 A^k satisfies it too and the
routes agree for every k >= 1 (Stanley, Enumerative Combinatorics
vol. 1, section 4.1).  The published formulas are sums c * f^k, so
equal coefficients prove them for every k >= 1.

The algebra dimension is computed three ways: the sum of squared
multiplicities, Burnside's count of orbits on 2k-tuples
(1/|G|) sum |C| fix(C)^(2k), and the published trivial row at 2k, the
dimension being <chi^(2k), 1>.  Any disagreement between routes raises
InconsistencyError; it never happens unless the code or the inputs are
broken, and the exit-code contract reserves a distinct status for it.
"""

from __future__ import annotations

import weakref
from collections import Counter
from itertools import zip_longest
from math import lcm
from operator import mul

from . import datasets
from .chartab import (CharacterTable, ClassFunction, DecompositionError,
                      _conj_lines, as_multiplicity, require_verified)
from .chartab import decompose  # uncalled; perfbench/tracing.py wraps it here
from .errors import InconsistencyError, InputError
from .exact import _from_ints, _line, _weighted_sum
from .perm import ClassSet, orbit_count_tuples

AGREEMENT_BOUND = 12  # unused here; perfbench/workloads.py reads it


def transition_matrix(chi: ClassFunction, table: CharacterTable) -> list[list[int]]:
    """The transition matrix A: A_ij = <chi_i * chi, chi_j>, one int sum of
    the line of row i times chi against the kept conjugate line of row j,
    checked as a nonnegative integer (else chi is no character, or the
    diagonal is misaligned); a real chi has A_ji = conj(A_ij), mirrored."""
    require_verified(chi, table)
    e, lines = _conj_lines(table, chi.values)
    sizes = [c.size for c in table.classes]
    real = all(v == v.conj() for v in chi.values)
    out = []
    for i, row in enumerate(table.working_rows):
        den, vectors = _line([(x * y).lift(e) for x, y in zip(row, chi.values)])
        a = (den * table.group_order, vectors)  # each sum over |G|
        try:
            out.append([out[j][i] if real and j < i else _multiplicity(
                e, *_weighted_sum(e, a, lines[j], sizes), table.characters[j])
                for j in range(table.size)])
        except DecompositionError as exc:
            raise InconsistencyError(f"transition row {i + 1}: {exc}") from exc
    return out


def _multiplicity(e: int, num, den: int, label: str) -> int:
    """num/den at conductor e as label's multiplicity, checked as ints first."""
    m, rest = divmod(num[0], den)
    if rest or m < 0 or any(num[1:]):
        as_multiplicity(_from_ints(e, num, den), label)  # raises
    return m


def multiplicities_direct(chi: ClassFunction, table: CharacterTable,
                          k: int) -> tuple[int, ...]:
    """Decompose the pointwise k-th power of chi, its inner product with
    each row regrouped on chi's values: m_i(k) = sum over the values f of
    chi of f^k * a_(i,f), the row's int matrix from chi.level_lines()
    applied to the stacked coefficients of the f^k: one dot product of s
    ints for a rational chi, whose lines are at conductor 1, each checked
    by _multiplicity."""
    if k < 1:
        raise InputError("tensor power k must be at least 1")
    require_verified(chi, table)
    e, bases, lines = chi.level_lines()
    powers = [f ** k for f in bases]
    den = lcm(*(p.den for p in powers))
    stacked = [c * (den // p.den) for p in powers for c in p.num]
    return tuple(_multiplicity(e, [sum(map(mul, row, stacked)) for row in matrix],
                               d * den, label)
                 for (d, matrix), label in zip(lines, table.characters))


def multiplicities_recurrence(chi: ClassFunction, table: CharacterTable,
                              k: int, matrix: list[list[int]]) -> tuple[int, ...]:
    """The trivial character's row of A^k: the indicator of the row whose
    values are all 1, multiplied by the transition matrix k times.
    Refused, as the direct route is, unless chi lives on the table and
    the table is verified."""
    if k < 1:
        raise InputError("tensor power k must be at least 1")
    require_verified(chi, table)
    d = [int(all(v == 1 for v in row)) for row in table.values]
    if sum(d) != 1:
        raise InputError("table lacks a unique trivial character")
    for _ in range(k):
        d = [sum(d[i] * matrix[i][j] for i in range(len(d)))
             for j in range(len(d))]
    return tuple(d)


def _published(family: str):
    if family not in datasets.CLOSED_FORMS:
        raise InputError(f"no closed forms for {family!r}; known families: "
                         f"{', '.join(datasets.CLOSED_FORMS)}")
    return datasets.CLOSED_FORMS[family]


def _evaluate(family: str, k: int, rows: slice) -> tuple[int, ...]:
    """The published rows of family at k: sum over the bases f of c * f^k."""
    if k < 1:
        raise InputError("tensor power k must be at least 1")
    bases, coefficients = _published(family)
    powers = [f ** k for f in bases]
    values = [sum(c * p for c, p in zip(row, powers))
              for row in coefficients[rows]]
    for n, v in enumerate(values):
        if v.denominator != 1 or v < 0:
            raise InconsistencyError(
                f"closed form for multiplicity {n + 1} evaluated to {v}, "
                "not a nonnegative integer")
    return tuple(map(int, values))


def closed_form_multiplicities(family: str, k: int) -> tuple[int, ...]:
    """The published multiplicity formulas, rows in the published order."""
    return _evaluate(family, k, slice(None))


def check_closed_forms(chi: ClassFunction, family: str) -> None:
    """Compare the published coefficients of family with the a_(i,f) of
    chi, rows in the published order, base 0 aside; a difference raises
    InconsistencyError naming the irreducible, the base and both."""
    bases, coefficients = _published(family)
    published = dict(zip(bases, zip(*coefficients)))
    derived = {f.as_rational(): [x.as_rational() for x in a]
               for f, a in chi.levels() if not f.is_zero()}
    for f in sorted(published.keys() | derived.keys(), reverse=True):
        for label, c, a in zip_longest(chi.table.characters, published.get(f, ()),
                                       derived.get(f, ()), fillvalue=0):
            if a != c:
                raise InconsistencyError(
                    f"closed form for {label} disagrees at base {f}: "
                    f"published {c}, derived {a}")


_proven = weakref.WeakKeyDictionary()  # chi: (family, copy of the rows) last proven


def agreed_multiplicities(chi: ClassFunction, table: CharacterTable, k: int,
                          family: str | None = None, *,
                          matrix: list[list[int]]) -> tuple[int, ...]:
    """The direct route's multiplicity vector, cross-checked for every k
    against the recurrence on matrix and the published formulas of
    family (the table rows then in the published order).  The proof
    runs once per chi, matrix content and family."""
    if k < 1:
        raise InputError("tensor power k must be at least 1")
    if _proven.get(chi) != (family, matrix):
        for j in range(1, len(chi.levels()) + 2):
            direct = multiplicities_direct(chi, table, j)
            rec = multiplicities_recurrence(chi, table, j, matrix=matrix)
            if direct != rec:
                raise InconsistencyError(
                    f"direct and recurrence multiplicities disagree at k={j}: "
                    f"{direct} vs {rec}")
        if family is not None:
            check_closed_forms(chi, family)
        _proven[chi] = (family, [list(row) for row in matrix])
    return multiplicities_direct(chi, table, k)


class SemisimpleStructure:
    """Block structure of the commutant: count copies of M_m per
    distinct positive multiplicity m, largest blocks first."""

    def __init__(self, multiplicities):
        if any(m < 0 for m in multiplicities):
            raise InputError("multiplicities must be nonnegative")
        self.blocks = sorted(Counter(m for m in multiplicities if m).items(),
                             reverse=True)
        self.dimension = sum(n * m * m for m, n in self.blocks)

    def _terms(self, block: str) -> list[str]:
        return [("" if n == 1 else str(n)) + f"{block}{m}"
                for m, n in self.blocks]

    def display(self) -> str:
        return " ⊕ ".join(self._terms("M_")) or "0"

    def compact(self) -> str:
        return "+".join(self._terms("M")) or "0"

    def to_dict(self) -> dict:
        return {"blocks": [{"size": m, "count": n} for m, n in self.blocks],
                "dimension": self.dimension,
                "display": self.display()}


def dimension_closed_form(family: str, k: int) -> int:
    """The published dimension formula of family: the dimension is
    <chi^(2k), 1>, the trivial row, published first, at 2k."""
    return _evaluate(family, 2 * k, slice(1))[0]


def dims_row(class_set: ClassSet, d: tuple[int, ...], k: int,
             family: str | None = None) -> dict:
    """Dimension of the commutant at tensor power k by every available
    method, raising InconsistencyError unless all agree."""
    if k < 1:
        raise InputError("tensor power k must be at least 1")
    sq = SemisimpleStructure(d).dimension
    fx = orbit_count_tuples(class_set.group, 2 * k, classes=class_set)
    row = {"k": k, "sum_of_squares": sq, "fixed_point_formula": fx}
    if family is not None:
        row["closed_form"] = dimension_closed_form(family, k)
    methods = {v for key, v in row.items() if key != "k"}
    if len(methods) != 1:
        raise InconsistencyError(f"dimension methods disagree at k={k}: {row}")
    row["dimension"] = sq
    return row
