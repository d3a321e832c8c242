"""Character tables as data: validation, class functions, decomposition,
and reconciliation of two tables against each other.

A CharacterTable is rows of exact cyclotomic values over labeled
conjugacy-class columns.  Tables loaded from external sources are
untrusted (verified=False) until validate finds nothing; downstream
arithmetic refuses unverified tables.

A table has two conductors.  The declared one, table.conductor, is what
its values are shown and serialized at: for a computed table, which
stores them there, the group exponent, or its field conductor where the
exponent exceeds the cyclotomic cap; whatever the file says for a loaded
one, whose cells keep their least conductors, a vector its own.  The
working one is the least divisor of it whose field Q(zeta_m) holds every
value, 7 for the order-1344 groups (exponent 84 or 168) and 1 for a
rational table.  Validation, class functions (hence inner products,
decomposition and tensor powers) and matching all compute on a copy of
the rows lifted to the working conductor, kept with their conjugates
and the lines of those, built once on first use, so a table's values
must not change after it is built.  Matching reads only each cell's
index among the table's distinct values, kept apart from the
conjugates, so a match builds none.

Orthogonality sums and inner products run on exact's int kernel: a
weighted sum of products of two lines (values at one conductor w as
sparse int vectors over one denominator) is one int polynomial reduced
mod Phi_w once.  Decomposing against every row sums one line of the
function against each kept row line.

match_columns searches for row and column permutations making two tables
equal.  Columns are constrained by class fingerprints at the tightest
feasible level (size, element order and cycle type of the
representative; then size and order; then size alone) and rows by
degree.  A table computes its fingerprints once, on first use, and keeps
them, as its classes must not change either.  A depth-first search under
a mismatch budget raised 0, 1, 2, ... finds a matching with the fewest
disagreeing cells; of equally good ones it returns the first in class
order, each column and then each row going to the least free computed
index that fits.  Its bound counts the free external rows whose degree
and cells on the mapped columns no free computed row shares: each row's
key is interned, one column at a time, as an int from one dict that
stores the external rows' keys alone, used rows and columns are flags,
and each node counts the keys with one dict.  Disagreeing cells, group
orders and printed class metadata land in a TableErrata, each finding
with the external operand's side in its external field and the computed
operand's in its computed one, whichever prints the data.  Only what a
table carries through JSON is read, so a table matches the same in
process as loaded from a file.  Algebraically conjugate classes can
match either way, so the ambiguity is noted.
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction
from math import lcm
from operator import ne

from .errors import CtrzError, InputError
from .exact import (Cyclotomic, QuadraticView, _field, _from_ints, _line,
                    _reduce_poly, _weighted_sum, to_quadratic)
from .perm import MAX_DEGREE, ClassSet, FiniteGroup, parse_cycles


class DecompositionError(CtrzError):
    """A class function failed to decompose into nonnegative integer
    multiplicities; it is not a character of the table's group."""


class _Record:
    """A public record: equality field by field over _fields, False
    against any other type; a repr naming each field; unhashable, as a
    record's fields can be set.  Each record spells out its own
    __init__, so that its signature reads as written."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    __hash__ = None

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self._fields)

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({args})"


class ClassInfo(_Record):
    __slots__ = _fields = ("label", "size", "order", "representative",
                           "printed_size")

    def __init__(self, label: str, size: int, order: int,
                 representative: str | None = None,
                 printed_size: int | None = None):
        self.label = label
        self.size = size
        self.order = order
        self.representative = representative
        self.printed_size = printed_size


class CharacterTable:
    def __init__(self, name: str, group_order: int, conductor: int,
                 classes: list[ClassInfo], characters: list[str],
                 values, verified: bool = False):
        self.name = name
        self.group_order = group_order
        self.conductor = conductor
        self.classes = list(classes)
        self.characters = list(characters)
        self.values = [tuple(row) for row in values]
        self.verified = verified
        self._cells = self._work = self._fingerprints = None
        r = len(self.classes)
        if len(self.values) != len(self.characters):
            raise InputError("one label per character row required")
        if any(len(row) != r for row in self.values):
            raise InputError("every row must have one value per class")

    @property
    def size(self) -> int:
        return len(self.classes)

    def identity_column(self) -> int:
        hits = [i for i, c in enumerate(self.classes)
                if c.size == 1 and c.order == 1]
        if len(hits) != 1:
            raise InputError("table lacks a unique identity class")
        return hits[0]

    def degrees(self) -> list[int]:
        col = self.identity_column()
        return [row[col].as_integer() for row in self.values]

    def _distinct(self):
        """(w, cells, values): the working conductor, each row's cells as
        indices into values, and values the distinct cells at w, in order
        of first appearance."""
        if self._cells is None:
            index = {}
            cells = [[index.setdefault((v.conductor, v.num, v.den), len(index))
                      for v in row] for row in self.values]
            least = [_from_ints(*key).reduced() for key in index]
            w = lcm(*(v.conductor for v in least))
            self._cells = (w, cells, [v.lift(w) for v in least])
        return self._cells

    def _working(self):
        """(w, rows, conjugate rows, their lines): the working conductor,
        the rows at it and their complex conjugates, also as lines."""
        if self._work is None:
            # equal cells share one descent and one conjugation
            w, cells, values = self._distinct()
            conj = [v.conj() for v in values]
            rows, conj_rows = ([tuple(at[n] for n in row) for row in cells]
                               for at in (values, conj))
            self._work = (w, rows, conj_rows, [_line(row) for row in conj_rows])
        return self._work

    def fingerprints(self) -> tuple[int | None, list[tuple]]:
        """(degree, fingerprints): the largest point any class
        representative names, None when some class has no representative,
        and per class its (size, element order, cycle type of the
        representative), the type None where its text does not parse or
        names a point above MAX_DEGREE, which no group here acts on.
        Computed on first use and kept, so the classes must not change
        after the table is built."""
        if self._fingerprints is None:
            degree, types = 0, []
            for c in self.classes:
                rep = c.representative or ""
                points = rep.replace("(", " ").replace(")", " ").replace(",", " ").split()
                try:
                    if not all(x.isascii() and x.isdigit() for x in points):
                        raise ValueError(rep)  # int() reads "١"; parse_cycles does not
                    top = max(map(int, points), default=1)
                    degree = max(degree, top)
                    types.append(parse_cycles(rep, top).cycle_type()
                                 if top <= MAX_DEGREE else None)
                except (InputError, ValueError):
                    types.append(None)
            if any(c.representative is None for c in self.classes):
                degree = None
            self._fingerprints = (degree, [(c.size, c.order, t)
                                           for c, t in zip(self.classes, types)])
        return self._fingerprints

    @property
    def working_conductor(self) -> int:
        """The least conductor dividing the declared one whose field
        holds every value."""
        return self._distinct()[0]

    @property
    def working_rows(self) -> list[tuple[Cyclotomic, ...]]:
        """The rows with every value lifted to the working conductor."""
        return self._working()[1]

    def row(self, i: int) -> "ClassFunction":
        return ClassFunction(self, self.working_rows[i])

    def reordered_rows(self, row_map: list[int],
                       labels: list[str] | None = None) -> "CharacterTable":
        """New table with row a taken from old row row_map[a]."""
        if sorted(row_map) != list(range(self.size)):
            raise InputError("row_map must be a permutation of the row indices")
        rows = [self.values[i] for i in row_map]
        names = labels if labels is not None else [self.characters[i] for i in row_map]
        out = CharacterTable(self.name, self.group_order, self.conductor,
                             self.classes, names, rows,
                             verified=self.verified)
        w, *parts = self._working()
        out._work = (w, *([part[i] for i in row_map] for part in parts))
        return out


class Violation(_Record):
    _fields = ("kind", "subject", "detail")

    def __init__(self, kind: str, subject: str, detail: str):
        self.kind = kind
        self.subject = subject
        self.detail = detail

    def describe(self) -> str:
        return f"{self.kind} [{self.subject}]: {self.detail}"


def validate(table: CharacterTable) -> list[Violation]:
    """Every orthogonality and bookkeeping violation in the table.

    Checks: class sizes sum to the group order; each element order
    divides it (Lagrange); a unique identity class exists; degrees are
    positive integers with squares summing to the group order; both
    orthogonality relations, reported per row pair and per column pair.
    An empty list means the table is consistent.

    Each orthogonality sum is one int sum of the kernel at the working
    conductor, a row or column against the line of a conjugate one.  A
    square table whose row relations all hold satisfies its column
    relations too (X D X* = |G| I gives X* X = |G| D^-1, D the class
    sizes), so their sums are skipped; a class size that does not divide
    the group order is still reported in their place.
    """
    out = []
    order = table.group_order
    sizes = [c.size for c in table.classes]
    if order < 1 or any(s < 1 for s in sizes):
        out.append(Violation("class-sizes", "table",
                             "group order and class sizes must be positive"))
        return out
    if sum(sizes) != order:
        out.append(Violation("class-sizes", "table",
                             f"sizes sum to {_shown(sum(sizes))}, "
                             f"group order is {_shown(order)}"))
    out += [Violation("class-order", c.label, f"element order {_shown(c.order)} "
                      f"does not divide group order {_shown(order)}")
            for c in table.classes if c.order < 1 or order % c.order]
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
                             f"squares sum to {_shown(sum(d * d for d in degrees))}, "
                             f"group order is {_shown(order)}"))
    n, r = len(table.values), table.size
    w, rows, conj_rows, conj_lines = table._working()

    def check(kind, x, y, a, b, weights, want):
        """Report kind [x,y] unless sum weights[c] * a[c] * b[c] is want."""
        num, den = _weighted_sum(w, a, b, weights)
        if num[0] != want * den or any(num[1:]):
            got = _shown(_from_ints(w, num, den), table.conductor)
            out.append(Violation(kind, f"{x},{y}",
                                 f"sum is {got}, expected {_shown(want)}"))

    before = len(out)
    for i in range(n):
        row = _line(rows[i])
        for j in range(i, n):
            check("row-orthogonality", table.characters[i], table.characters[j],
                  row, conj_lines[j], sizes, order if i == j else 0)
    # a square X with X D X* = |G| I, D the class sizes, is invertible, so
    # X* X = |G| D^-1: the column relations hold once the row ones do
    derived = n == r and len(out) == before
    if not derived:
        by_col = [(_line([row[a] for row in rows]), _line([row[a] for row in conj_rows]))
                  for a in range(r)]
        ones = [1] * n
    for a in range(r):
        for b in range(a, r):
            if a == b and order % sizes[a]:
                out.append(Violation("class-sizes", table.classes[a].label,
                                     "size does not divide group order"))
            elif not derived:
                check("column-orthogonality", table.classes[a].label,
                      table.classes[b].label, by_col[a][0], by_col[b][1], ones,
                      order // sizes[a] if a == b else 0)
    return out


def _shown(x, conductor: int = 1) -> str:
    """An int or a value as a violation prints it, or a stand-in where it
    has more digits than Python prints."""
    try:
        return str(x) if isinstance(x, int) else display_value(x, conductor)
    except ValueError:
        return "a number too long to print"


class ClassFunction:
    """Exact values over the classes of one table, in column order."""

    def __init__(self, table: CharacterTable, values):
        self.table = table
        self.values = tuple(
            v if isinstance(v, Cyclotomic) else Cyclotomic.from_rational(v, 1)
            for v in values)
        if len(self.values) != table.size:
            raise InputError("one value per class required")
        self._levels = None
        self._level_lines = None

    def __mul__(self, other: "ClassFunction") -> "ClassFunction":
        if other.table is not self.table:
            raise InputError("class functions live on different tables")
        return ClassFunction(self.table,
                             [a * b for a, b in zip(self.values, other.values)])

    def power(self, k: int) -> "ClassFunction":
        return ClassFunction(self.table, [v ** k for v in self.values])

    def levels(self) -> list[tuple[Cyclotomic, tuple[Cyclotomic, ...]]]:
        """Each distinct value f of this function, in the order of the
        first class taking it, with a_(i,f) = <1_(self=f), chi_i> for
        every row chi_i of the table: the inner product split by the
        value taken, so <self^k, chi_i> = sum over f of f^k * a_(i,f).
        Computed on first use and kept."""
        if self._levels is None:
            t = self.table
            groups = []
            for c, v in enumerate(self.values):
                for f, members in groups:
                    if f == v:
                        members.add(c)
                        break
                else:
                    groups.append((v, {c}))
            self._levels = [
                (f, _products(ClassFunction(
                    t, [int(c in members) for c in range(t.size)])))
                for f, members in groups]
        return self._levels

    def level_lines(self) -> tuple[int, list, list]:
        """(e, bases, lines): e the least conductor that holds every value
        f of levels() and every a_(i,f), bases those f at their least
        conductors, and for every row chi_i a line (den, matrix): the int
        matrix that maps the coefficient vectors of the f^k, each at its
        f's conductor, stacked in the order of bases, to den times the
        coefficient vector at e of <self^k, chi_i> = sum over f of
        f^k * a_(i,f).  For a rational function, every permutation
        character among them, e is 1 and the matrix is one row of s ints,
        the a_(i,f) over den: its level sets and the class sizes are
        closed under the Galois action on classes, so each a_(i,f) is
        rational too.  Computed on first use and kept."""
        if self._level_lines is None:
            levels = [(f.reduced(), [x.reduced() for x in a]) for f, a in self.levels()]
            e = lcm(*(v.conductor for f, a in levels for v in (f, *a)))
            bases = [f for f, _ in levels]
            lines = []
            for a in zip(*(a for _, a in levels)):
                den = lcm(*(x.den for x in a))
                # the column of zeta_c^j, c the conductor of f, is
                # zeta_e^(j*e/c) * a_(i,f) * den reduced mod Phi_e
                columns = [_reduce_poly(e, [0] * (j * (e // f.conductor))
                                        + [c * (den // x.den) for c in x.lift(e).num])
                           for f, x in zip(bases, a) for j in range(len(f.num))]
                lines.append((den, list(zip(*columns))))
            self._level_lines = (e, bases, lines)
        return self._level_lines


def permutation_character(group: FiniteGroup, class_set: ClassSet,
                          table: CharacterTable) -> ClassFunction:
    """Fixed-point counts per class, as a class function on the table.

    The table's columns must agree with the class set's canonical order,
    checked through sizes and element orders.
    """
    if ([c.size for c in table.classes] != class_set.sizes()
            or [c.order for c in table.classes] != [c.order for c in class_set.classes]):
        raise InputError("table columns do not match the class set")
    if group is not class_set.group:
        raise InputError("class set belongs to a different group")
    vals = [c.representative.fixed_points() for c in class_set.classes]
    return ClassFunction(table, vals)


def inner_product(f: ClassFunction, h: ClassFunction) -> Cyclotomic:
    """(1/|G|) * sum over classes of |C| f(C) conj(h(C))."""
    if f.table is not h.table:
        raise InputError("class functions live on different tables")
    e = lcm(*(v.conductor for v in f.values + h.values))
    return _products(f, e, [_line([v.lift(e).conj() for v in h.values])])[0]


def _products(f: ClassFunction, e=None, lines=None) -> tuple[Cyclotomic, ...]:
    """<f, h> at conductor e for each h given as the line of its conjugate
    at e; by default <f, chi_i> for every row chi_i of f's table, against
    the table's kept lines unless f's values need a larger conductor."""
    t = f.table
    if lines is None:
        e, lines = _conj_lines(t, f.values)
    a = _line([v.lift(e) for v in f.values])
    sizes = [c.size for c in t.classes]
    return tuple(_from_ints(e, num, den * t.group_order)
                 for num, den in (_weighted_sum(e, a, b, sizes) for b in lines))


def _conj_lines(t: CharacterTable, values) -> tuple[int, list]:
    """(e, lines): e = lcm(w, conductors of values), the conjugate rows' lines at e."""
    w, _, conj_rows, lines = t._working()
    e = lcm(w, *(v.conductor for v in values))
    if e != w:
        lines = [_line([v.lift(e) for v in row]) for row in conj_rows]
    return e, lines


def require_verified(f: ClassFunction, table: CharacterTable) -> None:
    """Refuse to decompose f unless it lives on the table and the table
    is verified."""
    if f.table is not table:
        raise InputError("class function belongs to a different table")
    if not table.verified:
        raise InputError("table is unverified; validate it first or override")


def as_multiplicity(value: Cyclotomic, label: str) -> int:
    """An inner product against the row labelled label as a nonnegative
    integer; anything else raises DecompositionError."""
    if not value.is_rational():
        raise DecompositionError(f"multiplicity of {label} is irrational")
    if value.den != 1 or value.num[0] < 0:
        raise DecompositionError(f"multiplicity of {label} is {value.as_rational()}")
    return value.num[0]


def decompose(f: ClassFunction, table: CharacterTable) -> tuple[int, ...]:
    """Multiplicities of f against the table rows.

    Requires a verified table.  Raises DecompositionError when any
    multiplicity is negative or fractional, which means f is not a
    character of this group.
    """
    require_verified(f, table)
    return tuple(as_multiplicity(v, label)
                 for v, label in zip(_products(f), table.characters))


# ---------------------------------------------------------------------------
# matching two tables


class Finding(_Record):
    _fields = ("kind", "row", "column", "external", "computed", "relation")

    def __init__(self, kind: str, row: str | None, column: str | None,
                 external: str, computed: str, relation: str):
        self.kind = kind
        self.row = row
        self.column = column
        self.external = external
        self.computed = computed
        self.relation = relation

    def to_dict(self) -> dict:
        d = {"kind": self.kind, "external": self.external,
             "computed": self.computed, "relation": self.relation}
        if self.row is not None:
            d["row"] = self.row
        if self.column is not None:
            d["column"] = self.column
        return d


class TableErrata(_Record):
    _fields = ("findings",)

    def __init__(self, findings: list[Finding] | None = None):
        self.findings = [] if findings is None else findings

    def __bool__(self) -> bool:
        return bool(self.findings)

    def to_dict(self) -> dict:
        return {"findings": [f.to_dict() for f in self.findings]}


class MatchResult(_Record):
    _fields = ("row_map", "col_map", "errata", "level", "notes")

    def __init__(self, row_map: tuple[int, ...], col_map: tuple[int, ...],
                 errata: TableErrata, level: str,
                 notes: list[str] | None = None):
        self.row_map = row_map   # external row index -> computed row index
        self.col_map = col_map   # external column index -> computed column index
        self.errata = errata
        self.level = level
        self.notes = [] if notes is None else notes

    def to_dict(self) -> dict:
        d = {"matching": {"rows": list(self.row_map),
                          "columns": list(self.col_map),
                          "constraint_level": self.level,
                          "notes": self.notes}}
        d.update(self.errata.to_dict())
        return d


def _canonical_cells(a: CharacterTable, b: CharacterTable):
    """Both tables' cells at a common conductor, each as a small int that
    two cells share exactly when their values are equal; each table's
    distinct values are lifted once."""
    e = lcm(a.working_conductor, b.working_conductor)
    ids = {}

    def cells(table):
        _, cells, values = table._distinct()
        named = [ids.setdefault((u.num, u.den), len(ids))
                 for u in (v.lift(e) for v in values)]
        return [[named[n] for n in row] for row in cells]

    return cells(a), cells(b)


def match_columns(computed: CharacterTable,
                  external: CharacterTable) -> MatchResult:
    """Best row/column matching of two equal-sized tables.

    Tries constraint levels from tight to loose until the class
    fingerprints admit a bijection, then minimizes the number of
    disagreeing cells, breaking ties toward the first matching in class
    order.
    If no level admits a bijection the tables are paired positionally by
    sorted size and degree, which reports errata across the whole table.
    """
    if computed.size != external.size or len(computed.characters) != len(external.characters):
        raise InputError("tables have different sizes; no matching exists")
    r = computed.size
    comp_cells, ext_cells = _canonical_cells(computed, external)
    # one fingerprint per class: size, order, and the cycle type of the
    # representative (None where it does not parse) when both tables name
    # the same degree; each level keys on a prefix of it, compared as
    # multisets, since None does not sort
    (comp_top, comp_fps), (ext_top, ext_fps) = (computed.fingerprints(),
                                                external.fingerprints())
    width = 3 if comp_top is not None and comp_top == ext_top else 2
    comp_fps, ext_fps = ([fp[:width] for fp in fps] for fps in (comp_fps, ext_fps))
    try:
        comp_deg = computed.degrees()
        ext_deg = external.degrees()
    except InputError:
        comp_deg = ext_deg = None

    if comp_deg is not None and sorted(comp_deg) == sorted(ext_deg):
        for level, n in (("full", 3), ("size-order", 2), ("size", 1)):
            comp_keys = [fp[:n] for fp in comp_fps]
            ext_keys = [fp[:n] for fp in ext_fps]
            if Counter(comp_keys) == Counter(ext_keys):
                row_map, col_map, mism = _search(comp_cells, ext_cells, comp_keys,
                                                 ext_keys, comp_deg, ext_deg)
                return _finish(computed, external, row_map, col_map, mism, level,
                               ext_fps, comp_cells, ext_cells)
    # positional fallback: errata will cover whatever disagrees
    col_map = _positional([c.size for c in computed.classes],
                          [c.size for c in external.classes])
    row_map = (_positional(comp_deg, ext_deg) if comp_deg is not None
               else tuple(range(r)))
    mism = [(a, b) for a in range(r) for b in range(r)
            if ext_cells[a][b] != comp_cells[row_map[a]][col_map[b]]]
    return _finish(computed, external, row_map, col_map, mism, "positional",
                   ext_fps, comp_cells, ext_cells)


def _positional(comp_keys, ext_keys) -> tuple[int, ...]:
    """Each external index to the computed one of the same rank, ranked
    by key and then by index."""
    out = [0] * len(comp_keys)
    for e, c in zip(sorted(range(len(ext_keys)), key=ext_keys.__getitem__),
                    sorted(range(len(comp_keys)), key=comp_keys.__getitem__)):
        out[e] = c
    return tuple(out)


def _search(comp_cells, ext_cells, comp_fps, ext_fps, comp_deg, ext_deg):
    """Minimal-mismatch assignment under fingerprint and degree groups,
    as (row_map, col_map, mismatched cell list).

    A depth-first search maps the external columns, fingerprint groups in
    order of their first column, then the external rows, degree groups
    ascending, each to a free computed index of its own group, tried in
    ascending order.  It runs under a mismatch budget of 0, 1, 2, ... and
    cuts a branch once the mismatches of the rows already mapped, plus one
    for each free external row whose key matches no free computed row's,
    exceed the budget.  A row's key is its degree and then its cells on
    the columns mapped so far, interned one column at a time as an int
    from one dict both tables share; a computed row whose key no external
    row holds gets None.  The first complete map found has
    the fewest mismatches and, among those, comes first in that order.
    The caller has checked that both groupings admit a bijection.
    """
    r = len(comp_fps)
    cols = sorted(range(r), key=lambda b: (ext_fps.index(ext_fps[b]), b))
    rows = sorted(range(r), key=lambda a: (ext_deg[a], a))
    col_fits = [[j for j in range(r) if comp_fps[j] == ext_fps[b]] for b in range(r)]
    row_fits = [[i for i in range(r) if comp_deg[i] == ext_deg[a]] for a in range(r)]
    comp_columns = [[row[j] for row in comp_cells] for j in range(r)]
    col_map, row_map = [None] * r, [None] * r
    col_used, row_used = [False] * r, [False] * r
    ids = {}

    def intern(keys, cells):
        return [ids.setdefault(pair, len(ids)) for pair in zip(keys, cells)]

    def lookup(keys, cells):
        # a computed key that no external row holds is None, and so are
        # the keys it extends, as no stored pair starts with None: ids
        # keeps the external keys alone, r(r + 1) at most, however long
        # the search runs
        return list(map(ids.get, zip(keys, cells)))

    # wanted[k]: how many free external rows hold each key at depth k,
    # when the first min(k, r) columns of cols are mapped
    ext_keys = intern(ext_deg, [None] * r)  # the degree alone
    wanted = [dict(Counter(ext_keys))]
    for b in cols:
        ext_keys = intern(ext_keys, [row[b] for row in ext_cells])
        wanted.append(dict(Counter(ext_keys)))
    wanted += [dict(Counter(ext_keys[a] for a in rows[k:])) for k in range(1, r + 1)]

    def extend(k, spent, comp_keys):
        # comp_keys[i]: the key of computed row i
        left = wanted[k].copy()
        excess = min(r, 2 * r - k)  # the free external rows
        for key, used in zip(comp_keys, row_used):
            if not used and left.get(key):
                left[key] -= 1
                excess -= 1
        if spent + excess > budget:
            return False
        if k == 2 * r:
            return True
        if k < r:
            b = cols[k]
            for j in col_fits[b]:
                if not col_used[j]:
                    col_map[b], col_used[j] = j, True
                    if extend(k + 1, spent, lookup(comp_keys, comp_columns[j])):
                        return True
                    col_used[j] = False
            return False
        a = rows[k - r]
        for i in row_fits[a]:
            if not row_used[i]:
                row_map[a], row_used[i] = i, True
                cost = sum(map(ne, ext_cells[a], map(comp_cells[i].__getitem__, col_map)))
                if extend(k + 1, spent + cost, comp_keys):
                    return True
                row_used[i] = False
        return False

    budget = 0
    while not extend(0, 0, lookup(comp_deg, [None] * r)):
        budget += 1
    mism = [(a, b) for a in range(r) for b in range(r)
            if ext_cells[a][b] != comp_cells[row_map[a]][col_map[b]]]
    return tuple(row_map), tuple(col_map), mism


def _finish(computed, external, row_map, col_map, mismatches, level,
            ext_fps, comp_cells, ext_cells):
    errata = TableErrata()
    if computed.group_order != external.group_order:
        errata.findings.append(Finding(
            kind="group-order", row=None, column=None,
            external=_shown(external.group_order),
            computed=_shown(computed.group_order),
            relation="group orders must be equal"))
    for a, b in mismatches:
        errata.findings.append(Finding(
            kind="cell",
            row=external.characters[a],
            column=external.classes[b].label,
            external=display_value(external.values[a][b], external.conductor),
            computed=display_value(computed.values[row_map[a]][col_map[b]],
                                   computed.conductor),
            relation="cell equality under best matching"))
    # printed metadata is the external table's, or the computed table's
    # when the external one prints none, each against its matched classes;
    # either way each finding holds each operand's side in its own field
    if any(c.printed_size is not None for c in external.classes):
        printed, other, cols = external, computed, col_map
    else:
        printed, other, cols = (computed, external,
                                sorted(range(external.size), key=col_map.__getitem__))
    found = class_metadata_findings(printed, [other.classes[j] for j in cols])
    if printed is computed:
        for f in found:
            f.external, f.computed = f.computed, f.external
    errata.findings += found
    notes = _ambiguity_notes(external, row_map, col_map, len(mismatches),
                             [fp[:2] for fp in ext_fps], comp_cells, ext_cells)
    return MatchResult(tuple(row_map), tuple(col_map), errata, level, notes)


def _ambiguity_notes(external, row_map, col_map, base_count, fps,
                     comp_cells, ext_cells):
    """Column pair swaps within one (size, order) group fps, with an
    optional same-degree row pair swap, that leave the mismatch count
    unchanged are conventional choices."""
    r = external.size
    notes = []
    deg = {}
    try:
        for i, d in enumerate(external.degrees()):
            deg.setdefault(d, []).append(i)
    except InputError:
        return notes

    def count(rm, cm):
        return sum(1 for a in range(r) for b in range(r)
                   if ext_cells[a][b] != comp_cells[rm[a]][cm[b]])

    row_pairs = [None] + [pair for rows in deg.values() if len(rows) == 2
                          for pair in [tuple(rows)]]
    for b1 in range(r):
        for b2 in range(b1 + 1, r):
            if fps[b1] != fps[b2]:
                continue
            cm = list(col_map)
            cm[b1], cm[b2] = cm[b2], cm[b1]
            for pair in row_pairs:
                rm = list(row_map)
                if pair:
                    rm[pair[0]], rm[pair[1]] = rm[pair[1]], rm[pair[0]]
                if count(rm, cm) == base_count:
                    swap = (f" with rows {external.characters[pair[0]]}/"
                            f"{external.characters[pair[1]]}" if pair else "")
                    notes.append(
                        f"columns {external.classes[b1].label}/"
                        f"{external.classes[b2].label} match either way{swap}; "
                        "the choice is conventional")
                    break
    return notes


def class_metadata_findings(table: CharacterTable,
                            matched: list[ClassInfo] | None = None) -> list[Finding]:
    """Findings about printed class metadata: printed sizes that
    contradict the sizes in use, and printed size/order pairs where the
    element order fails to divide the implied centralizer order.  When a
    matched class list is given, the classes a table matching pairs with
    table's own in either slot, its data fills the computed side of each
    finding; otherwise the table's own derived data does."""
    out = []
    for b, cls in enumerate(table.classes):
        if cls.printed_size is None:
            continue
        ref = matched[b] if matched is not None else cls
        if cls.printed_size != cls.size:
            out.append(Finding(
                kind="class-size", row=None, column=cls.label,
                external=str(cls.printed_size),
                computed=str(ref.size),
                relation="printed class size against the centralizer row"))
        cent = table.group_order // cls.printed_size \
            if cls.printed_size > 0 and table.group_order % cls.printed_size == 0 else None
        if cent is None or cent % cls.order:
            out.append(Finding(
                kind="class-order", row=None, column=cls.label,
                external=f"order {cls.order} with printed size {cls.printed_size}",
                computed=f"order {ref.order} with size {ref.size}",
                relation="element order must divide the centralizer order"))
    return out


# ---------------------------------------------------------------------------
# serialization


_FRACTION_OK = set("0123456789/-")
# digits allowed in the numerator or the denominator of a rational read
# from table JSON: table values are small, and the limit bounds the ints
# that validate's sums of their products work with
RATIONAL_DIGITS = 100


def json_int(value, name: str) -> int:
    """value itself when it is a JSON integer; anything else, a float
    such as 7.9 included, raises TypeError instead of being truncated."""
    if type(value) is not int:
        raise TypeError(f"{name} must be an integer, not {value!r}")
    return value


def _parse_fraction(text: str) -> int | Fraction:
    if not isinstance(text, str) or not text or set(text) - _FRACTION_OK:
        raise InputError(f"not an exact rational string: {text!r}")
    if any(len(part.lstrip("-")) > RATIONAL_DIGITS for part in text.split("/")):
        raise InputError(f"a rational in the table has more than {RATIONAL_DIGITS} "
                         "digits in its numerator or denominator, the limit for "
                         "table values")
    try:
        return Fraction(text) if "/" in text else int(text)  # "-" and ASCII digits
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"not an exact rational string: {text!r}") from exc


def encode_value(v: Cyclotomic, conductor: int = 1) -> str | dict:
    """Exact JSON form: rational string, quadratic triple, or coefficient
    vector at lcm(v.conductor, conductor), whichever is smallest."""
    if v.is_rational():
        return str(v.num[0]) if v.den == 1 else str(v.as_rational())
    qv = _quadratic(v)
    if qv is not None:
        return {"D": qv.D, "a": str(qv.a), "b": str(qv.b)}
    v = v.lift(lcm(v.conductor, conductor))
    return {"conductor": v.conductor, "coeffs": [str(c) for c in v.coeffs]}


def decode_value(obj, conductor: int) -> Cyclotomic:
    """A cell at its least conductor, a coefficient vector at its own; the
    checks and errors of a lift to the table's conductor run, in order."""
    if isinstance(obj, str):
        v = Cyclotomic.from_rational(_parse_fraction(obj), 1)
    elif isinstance(obj, dict) and "D" in obj:
        try:
            qv = QuadraticView(json_int(obj["D"], "D"),
                               _parse_fraction(obj["a"]),
                               _parse_fraction(obj["b"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad quadratic value encoding: {obj!r}") from exc
        v = qv.to_cyclotomic(conductor)
    elif isinstance(obj, dict) and "conductor" in obj:
        try:
            inner = json_int(obj["conductor"], "conductor")
            v = Cyclotomic(inner, [_parse_fraction(c) for c in obj["coeffs"]])
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad cyclotomic value encoding: {obj!r}") from exc
    else:
        raise InputError(f"unrecognized exact value encoding: {obj!r}")
    if conductor % v.conductor:
        raise InputError(f"cannot lift conductor {v.conductor} into {conductor}")
    _field(conductor)  # refuses it past the cap, or below 1
    return v


def decode_rows(rows, conductor: int) -> list[list[Cyclotomic]]:
    """decode_value over rows of cell encodings, in row-major order, each
    distinct encoding decoded once: a string cell keyed on itself, any
    other on a 1-tuple of its canonical JSON, which no string equals."""
    decoded = {}

    def cell(obj):
        key = obj if isinstance(obj, str) else (json.dumps(obj, sort_keys=True),)
        if key not in decoded:
            decoded[key] = decode_value(obj, conductor)
        return decoded[key]

    return [[cell(obj) for obj in row] for row in rows]


def table_to_dict(table: CharacterTable) -> dict:
    classes = []
    for c in table.classes:
        entry = {"label": c.label, "size": c.size, "order": c.order}
        if c.representative is not None:
            entry["representative"] = c.representative
        if c.printed_size is not None:
            entry["printed_size"] = c.printed_size
        classes.append(entry)
    return {
        "name": table.name,
        "group_order": table.group_order,
        "conductor": table.conductor,
        "verified": table.verified,
        "classes": classes,
        "characters": [
            {"label": lab, "values": [encode_value(v, table.conductor) for v in row]}
            for lab, row in zip(table.characters, table.values)],
    }


def table_from_dict(data: dict) -> CharacterTable:
    """Rebuild a table from its JSON form.  Always lands unverified;
    run validate to earn the flag back."""
    try:
        conductor = json_int(data["conductor"], "conductor")
        classes = [ClassInfo(label=str(c["label"]),
                             size=json_int(c["size"], "size"),
                             order=json_int(c["order"], "order"),
                             representative=c.get("representative"),
                             printed_size=c.get("printed_size"))
                   for c in data["classes"]]
        for c in classes:
            if (type(c.representative) not in (str, type(None))
                    or type(c.printed_size) not in (int, type(None))):
                raise TypeError(f"class {c.label} needs a string representative "
                                "and an integer printed_size")
            if c.order < 1:
                raise ValueError(f"class {c.label} needs a positive element order")
        characters = [str(ch["label"]) for ch in data["characters"]]
        values = decode_rows((ch["values"] for ch in data["characters"]),
                             conductor)
        return CharacterTable(
            name=str(data.get("name", "external")),
            group_order=json_int(data["group_order"], "group_order"),
            conductor=conductor, classes=classes, characters=characters,
            values=values, verified=False)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed table JSON: {exc}") from exc


def load_table(path: str) -> CharacterTable:
    """Read a table from a JSON file: either a bare table object or a
    command report that carries one under results.table."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: JSON, or an int too long
        raise InputError(f"cannot read table {path}: {exc}") from exc
    if isinstance(data, dict) and "conductor" not in data:
        inner = data.get("results")
        if isinstance(inner, dict) and isinstance(inner.get("table"), dict):
            data = inner["table"]
    return table_from_dict(data)


def _quadratic(v: Cyclotomic) -> QuadraticView | None:
    """An irrational v as a + b*sqrt(D), D squarefree and 1 mod 4, or
    None.  Such a value has least conductor |D|, so D is read off it."""
    r = v.reduced()
    m = r.conductor
    if m % 2 == 0:
        return None
    return to_quadratic(r, m if m % 4 == 1 else -m)


def display_value(v: Cyclotomic, conductor: int = 1) -> str:
    """Human-readable exact value: rational, a + b*sqrt(D), or the
    coefficient vector at lcm(v.conductor, conductor)."""
    if v.is_rational():
        return str(v.as_rational())
    qv = _quadratic(v)
    if qv is not None:
        return str(qv)
    return f"cyclotomic{list(map(str, v.lift(lcm(v.conductor, conductor)).coeffs))}"
