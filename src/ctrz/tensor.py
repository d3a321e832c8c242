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
              as one kernel line per row at the least conductor holding
              every f and a_(i,f), all m_i(k) one kernel call of the
              line of the f^k against them: for a rational chi, each
              f = p/q taken as p^k over q^k, one dot product of s ints
              per row,
  recurrence  the trivial character's row of A^k, where A is the
              transition matrix, A_ij = <chi_i * chi, chi_j>: for a
              rational chi, one int sum each of the table's kept lines,
              r(r+1)/2 of them mirrored; for any other, row i the
              decomposition of chi_i * chi,
  closed form published per-irreducible formulas for the two embedded
              groups, one int numerator per base f per irreducible over
              one denominator per family.

One proof per chi, matrix and family cross-checks every k.  With s
distinct values f, the direct route satisfies the linear recurrence
with characteristic polynomial P = prod (x - f).  Agreement at
k = 1..s+1 gives e_1 A P(A) = 0, so e_1 A^k satisfies it too and the
routes agree for every k >= 1 (Stanley, Enumerative Combinatorics
vol. 1, section 4.1).  The published formulas are sums c * f^k, so
equal coefficients prove them for every k >= 1.

The algebra dimension is computed three ways, all in ints: the sum of
squared multiplicities, Burnside's count of orbits on 2k-tuples
(1/|G|) sum |C| fix(C)^(2k), fix(C) kept by the class set, and the
published trivial row at 2k, the dimension being <chi^(2k), 1>.  Any
disagreement between routes raises InconsistencyError; it never happens
unless the code or the inputs are broken, and the exit-code contract
reserves a distinct status for it.
"""

from __future__ import annotations

import weakref
from collections import Counter
from fractions import Fraction
from itertools import zip_longest
from math import lcm
from operator import mul

from . import datasets
from .chartab import (CharacterTable, ClassFunction, DecompositionError,
                      as_multiplicity, decompose, require_verified)
from .errors import InconsistencyError, InputError
from .exact import _power_line, _weighted_sums
from .perm import ClassSet, orbit_count_tuples

AGREEMENT_BOUND = 12  # unused here; perfbench/workloads.py reads it


def transition_matrix(chi: ClassFunction, table: CharacterTable) -> list[list[int]]:
    """The transition matrix A: A_ij = <chi_i * chi, chi_j>, each checked
    as a nonnegative integer (else chi is no character, or the diagonal
    is misaligned).  For a rational chi, A_ij is one int sum of the kept
    line of row i, chi in the weights |C| * chi(C) over their common
    denominator q, against the kept conjugate line of row j, and
    A_ji = A_ij is mirrored; any other chi takes row i as the
    decomposition of chi_i * chi."""
    require_verified(chi, table)
    rational = all(v.is_rational() for v in chi.values)
    if rational:
        q = lcm(*(v.den for v in chi.values))
        weights = [c.size * v.num[0] * (q // v.den)
                   for c, v in zip(table.classes, chi.values)]
        e, *_, rows, lines = table._working()
    out = []
    for i in range(table.size):
        try:
            if rational:  # each sum over q|G|
                sums = _weighted_sums(e, rows[i], lines[i:], weights)
                out.append([out[j][i] for j in range(i)] + [
                    as_multiplicity(num, den * q * table.group_order, table.characters[j])
                    for j, (num, den) in enumerate(sums, i)])
            else:
                out.append(list(decompose(table.row(i) * chi, table)))
        except DecompositionError as exc:
            raise InconsistencyError(f"transition row {i + 1}: {exc}") from exc
    return out


def multiplicities_direct(chi: ClassFunction, table: CharacterTable,
                          k: int) -> tuple[int, ...]:
    """Decompose the pointwise k-th power of chi, its inner product with
    each row regrouped on chi's values: m_i(k) = sum over the values f of
    chi of f^k * a_(i,f), one kernel call of the line of the f^k against
    the lines of chi.level_lines(), each sum checked by as_multiplicity."""
    if k < 1:
        raise InputError("tensor power k must be at least 1")
    require_verified(chi, table)
    e, bases, lines = chi.level_lines()
    sums = _weighted_sums(e, _power_line(e, bases, k), lines, [1] * len(bases))
    return tuple(as_multiplicity(num, den, label)
                 for (num, den), label in zip(sums, table.characters))


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
    bases, den, coefficients = _published(family)
    powers = [f ** k for f in bases]
    values = [sum(map(mul, row, powers)) for row in coefficients[rows]]
    for n, v in enumerate(values):
        if v % den or v < 0:
            raise InconsistencyError(
                f"closed form for multiplicity {n + 1} evaluated to "
                f"{Fraction(v, den)}, not a nonnegative integer")
    return tuple(v // den for v in values)


def closed_form_multiplicities(family: str, k: int) -> tuple[int, ...]:
    """The published multiplicity formulas, rows in the published order."""
    return _evaluate(family, k, slice(None))


def check_closed_forms(chi: ClassFunction, family: str) -> None:
    """Compare the published coefficients of family with the a_(i,f) of
    chi, rows in the published order, base 0 aside; a difference raises
    InconsistencyError naming the irreducible, the base and both."""
    bases, den, coefficients = _published(family)
    published = dict(zip(bases, zip(*coefficients)))
    derived = {f.as_rational(): [x.as_rational() for x in a]
               for f, a in chi.levels() if not f.is_zero()}
    for f in sorted(published.keys() | derived.keys(), reverse=True):
        for label, c, a in zip_longest(chi.table.characters, published.get(f, ()),
                                       derived.get(f, ()), fillvalue=0):
            if a * den != c:
                raise InconsistencyError(
                    f"closed form for {label} disagrees at base {f}: "
                    f"published {Fraction(c, den)}, derived {a}")


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
        self.dimension = _sum_of_squares(multiplicities)
        self.blocks = sorted(Counter(m for m in multiplicities if m).items(),
                             reverse=True)

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


def _sum_of_squares(multiplicities) -> int:
    if any(m < 0 for m in multiplicities):
        raise InputError("multiplicities must be nonnegative")
    return sum(m * m for m in multiplicities)


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
    sq = _sum_of_squares(d)
    fx = orbit_count_tuples(class_set.group, 2 * k, classes=class_set)
    row = {"k": k, "sum_of_squares": sq, "fixed_point_formula": fx}
    if family is not None:
        row["closed_form"] = dimension_closed_form(family, k)
    methods = {v for key, v in row.items() if key != "k"}
    if len(methods) != 1:
        raise InconsistencyError(f"dimension methods disagree at k={k}: {row}")
    row["dimension"] = sq
    return row
