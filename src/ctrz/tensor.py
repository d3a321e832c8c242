"""Tensor powers of a permutation character and the centralizer algebra
they generate.

For a degree-n permutation group with permutation character chi, the
k-th tensor power of the natural representation decomposes with
multiplicity vector d(k), and the commutant is a direct sum of one full
matrix block of size d_i(k) per irreducible with d_i(k) > 0.  Three
independent routes to d(k) are implemented and cross-checked:

  direct      decompose the pointwise k-th power of chi, the inner
              product with chi_i regrouped on the values f of chi:
              m_i(k) = sum over f of f^k * <1_(chi=f), chi_i>, the
              inner products kept on chi after its first use, so each
              further k costs one power and r scalings per value,
  recurrence  the trivial character's row of A^k, where A is the
              transition matrix: A_ij is the multiplicity of the j-th
              irreducible in chi_i * chi, <chi_i * chi, chi_j>, each row
              r int sums against the table's kept row lines,
  closed form published per-irreducible formulas for the two embedded
              degree-8 and degree-14 groups, rows in the published
              order.

The algebra dimension is likewise computed three ways: sum of squared
multiplicities, the averaged fixed-point power sum
(1/|G|) sum |C| fix(C)^(2k) which is Burnside's count of orbits on
2k-tuples, and a published closed form per embedded group.  Any
disagreement between routes raises InconsistencyError; it never happens
unless the code or the inputs are broken, and the exit-code contract
reserves a distinct status for it.
"""

from __future__ import annotations

from fractions import Fraction

from .chartab import (CharacterTable, ClassFunction, DecompositionError,
                      as_multiplicity, decompose, require_verified)
from .errors import InconsistencyError, InputError
from .perm import ClassSet, orbit_count_tuples

AGREEMENT_BOUND = 12

CLOSED_FORM_FAMILIES = ("g1344-deg8", "g1344-deg14")


def transition_matrix(chi: ClassFunction, table: CharacterTable) -> list[list[int]]:
    """The transition matrix A as an integer matrix.

    Row i holds the multiplicities of chi_i * chi in the table basis,
    the decomposition of that product, so every entry must come out a
    nonnegative integer; anything else means chi is not a character of
    this table's group or the diagonal is misaligned with the columns.
    """
    out = []
    for i in range(table.size):
        try:
            out.append(list(decompose(table.row(i) * chi, table)))
        except DecompositionError as exc:
            raise InconsistencyError(f"transition row {i + 1}: {exc}") from exc
    return out


def multiplicities_direct(chi: ClassFunction, table: CharacterTable,
                          k: int) -> tuple[int, ...]:
    """Decompose the pointwise k-th power of chi, its inner product with
    each row regrouped on chi's values: m_i(k) = sum over the values f of
    chi of f^k * a_(i,f), with the a_(i,f) of chi.levels()."""
    if k < 1:
        raise InputError("tensor power k must be at least 1")
    require_verified(chi, table)
    powers = [(f ** k, a) for f, a in chi.levels()]
    return tuple(as_multiplicity(sum(fk * a[i] for fk, a in powers),
                                 table.characters[i])
                 for i in range(table.size))


def multiplicities_recurrence(chi: ClassFunction, table: CharacterTable,
                              k: int,
                              matrix: list[list[int]] | None = None) -> tuple[int, ...]:
    """The trivial character's row of A^k: the indicator of the row whose
    values are all 1, multiplied by the transition matrix k times.  The
    matrix is built from chi when none is passed."""
    if k < 1:
        raise InputError("tensor power k must be at least 1")
    if matrix is None:
        matrix = transition_matrix(chi, table)
    d = [int(all(v == 1 for v in row)) for row in table.values]
    if sum(d) != 1:
        raise InputError("table lacks a unique trivial character")
    for _ in range(k):
        d = [sum(d[i] * matrix[i][j] for i in range(len(d)))
             for j in range(len(d))]
    return tuple(d)


def _as_count(value: Fraction, what: str) -> int:
    if value.denominator != 1 or value < 0:
        raise InconsistencyError(f"{what} evaluated to {value}, "
                                 "not a nonnegative integer")
    return int(value)


def closed_form_multiplicities(family: str, k: int) -> tuple[int, ...]:
    """Published per-irreducible multiplicity formulas, rows in the
    published order.  Eleven letters a,b,c,d,e,f,g,h,i,j,l map in order
    to the eleven irreducibles; b = c for both families and e = g for
    the degree-8 family, by identical formulas.
    """
    if k < 1:
        raise InputError("tensor power k must be at least 1")
    if family == "g1344-deg8":
        p8, p4, p2 = Fraction(8) ** k, Fraction(4) ** k, Fraction(2) ** k
        a = p8 / 1344 + p4 / 32 + Fraction(7, 24) * p2 + Fraction(2, 7)
        b = p8 / 448 - p4 / 32 + p2 / 8 - Fraction(1, 7)
        c = b
        d = p8 / 224 + p4 / 16 - Fraction(2, 7)
        e = p8 / 192 - p4 / 32 + p2 / 24
        f = p8 / 168 - p2 / 6 + Fraction(2, 7)
        g = e
        h = p8 / 192 + Fraction(3, 32) * p4 + Fraction(7, 24) * p2
        i = p8 / 96 + p4 / 16 - p2 / 6
        j = p8 / 64 - Fraction(3, 32) * p4 + p2 / 8
        el = p8 / 64 + p4 / 32 - p2 / 8
    elif family == "g1344-deg14":
        t, s7, s3 = Fraction(2) ** k, Fraction(7) ** k, Fraction(3) ** k
        a = t * (s7 / 1344 + Fraction(7, 192) * s3 + Fraction(37, 96))
        b = t * (s7 / 448 - s3 / 64 + Fraction(1, 32))
        c = b
        d = t * (s7 / 224 + Fraction(3, 32) * s3 + Fraction(3, 16))
        e = t * (s7 / 192 + s3 / 192 - Fraction(5, 96))
        f = t * (s7 / 168 + s3 / 24 - Fraction(1, 6))
        g = t * (s7 / 192 + Fraction(17, 192) * s3 + Fraction(19, 96))
        h = t * (s7 / 192 - Fraction(7, 192) * s3 + Fraction(7, 96))
        i = t * (s7 / 96 + Fraction(5, 96) * s3 - Fraction(11, 48))
        j = t * (s7 / 64 + s3 / 64 - Fraction(5, 32))
        el = t * (s7 / 64 - Fraction(7, 64) * s3 + Fraction(7, 32))
    else:
        raise InputError(f"no closed forms for {family!r}; "
                         f"known families: {', '.join(CLOSED_FORM_FAMILIES)}")
    letters = (a, b, c, d, e, f, g, h, i, j, el)
    return tuple(_as_count(v, f"closed form for multiplicity {n + 1}")
                 for n, v in enumerate(letters))


def agreed_multiplicities(chi: ClassFunction, table: CharacterTable, k: int,
                          family: str | None = None,
                          matrix: list[list[int]] | None = None
                          ) -> tuple[int, ...]:
    """The multiplicity vector, cross-checked between methods for small
    k.  Up to AGREEMENT_BOUND every available route is computed and
    compared; beyond it only the recurrence runs.  Requires the table rows to be
    in the published order when a closed-form family is given.
    """
    if k > AGREEMENT_BOUND:
        return multiplicities_recurrence(chi, table, k, matrix=matrix)
    direct = multiplicities_direct(chi, table, k)
    rec = multiplicities_recurrence(chi, table, k, matrix=matrix)
    if direct != rec:
        raise InconsistencyError(
            f"direct and recurrence multiplicities disagree at k={k}: "
            f"{direct} vs {rec}")
    if family is not None:
        closed = closed_form_multiplicities(family, k)
        if closed != direct:
            raise InconsistencyError(
                f"closed-form multiplicities disagree at k={k}: "
                f"{closed} vs {direct}")
    return direct


class SemisimpleStructure:
    """Block structure of the commutant: count copies of M_m per
    distinct positive multiplicity m, largest blocks first."""

    def __init__(self, multiplicities):
        counts = {}
        for m in multiplicities:
            if m < 0:
                raise InputError("multiplicities must be nonnegative")
            if m:
                counts[m] = counts.get(m, 0) + 1
        self.blocks = sorted(counts.items(), reverse=True)
        self.dimension = sum(n * m * m for m, n in self.blocks)

    def display(self) -> str:
        if not self.blocks:
            return "0"
        parts = []
        for m, n in self.blocks:
            prefix = "" if n == 1 else str(n)
            parts.append(f"{prefix}M_{m}")
        return " ⊕ ".join(parts)

    def compact(self) -> str:
        if not self.blocks:
            return "0"
        return "+".join(("" if n == 1 else str(n)) + f"M{m}"
                        for m, n in self.blocks)

    def to_dict(self) -> dict:
        return {"blocks": [{"size": m, "count": n} for m, n in self.blocks],
                "dimension": self.dimension,
                "display": self.display()}


def dimension_closed_form(family: str, k: int) -> int:
    """Published dimension formulas for the two embedded groups."""
    if k < 1:
        raise InputError("tensor power k must be at least 1")
    if family == "g1344-deg8":
        v = (Fraction(2) ** (6 * k) / 1344 + Fraction(2) ** (4 * k) / 32
             + Fraction(7, 24) * Fraction(2) ** (2 * k) + Fraction(2, 7))
    elif family == "g1344-deg14":
        v = Fraction(2) ** (2 * k) * (
            Fraction(7) ** (2 * k) / 1344
            + Fraction(7, 192) * Fraction(3) ** (2 * k) + Fraction(37, 96))
    else:
        raise InputError(f"no closed dimension form for {family!r}; "
                         f"known families: {', '.join(CLOSED_FORM_FAMILIES)}")
    return _as_count(v, "closed dimension form")


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
