"""Character tables as data: validation, class functions, decomposition,
and reconciliation of two tables against each other.

A CharacterTable is rows of exact cyclotomic values over labeled
conjugacy-class columns.  Tables loaded from external sources are
untrusted (verified=False) until validate finds nothing; downstream
arithmetic refuses unverified tables unless explicitly overridden.

match_columns searches for row and column permutations making two
tables equal.  Columns are constrained by class fingerprints at the
tightest feasible level (size, element order, cycle type of the
representative, power profile; then size and order; then size alone)
and rows by degree; cells that disagree under the best matching land in
a TableErrata.  Algebraically conjugate classes can match either way,
so one valid matching is returned and the ambiguity noted.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .errors import CtrzError, InputError
from .exact import (Cyclotomic, QuadraticView, quadratic_candidates,
                    to_quadratic)
from .perm import ClassSet, FiniteGroup, parse_cycles


class DecompositionError(CtrzError):
    """A class function failed to decompose into nonnegative integer
    multiplicities; it is not a character of the table's group."""


@dataclass
class ClassInfo:
    label: str
    size: int
    order: int
    representative: str | None = None
    power_profile: tuple | None = None
    printed_size: int | None = None


class CharacterTable:
    def __init__(self, name: str, group_order: int, conductor: int,
                 classes: list[ClassInfo], characters: list[str],
                 values, verified: bool = False, extra: dict | None = None):
        self.name = name
        self.group_order = group_order
        self.conductor = conductor
        self.classes = list(classes)
        self.characters = list(characters)
        self.values = [tuple(row) for row in values]
        self.verified = verified
        self.extra = extra or {}
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

    def row(self, i: int) -> "ClassFunction":
        return ClassFunction(self, self.values[i])

    def reordered_rows(self, row_map: list[int],
                       labels: list[str] | None = None) -> "CharacterTable":
        """New table with row a taken from old row row_map[a]."""
        if sorted(row_map) != list(range(self.size)):
            raise InputError("row_map must be a permutation of the row indices")
        rows = [self.values[i] for i in row_map]
        names = labels if labels is not None else [self.characters[i] for i in row_map]
        return CharacterTable(self.name, self.group_order, self.conductor,
                              self.classes, names, rows,
                              verified=self.verified, extra=dict(self.extra))


@dataclass
class Violation:
    kind: str
    subject: str
    detail: str

    def describe(self) -> str:
        return f"{self.kind} [{self.subject}]: {self.detail}"


def validate(table: CharacterTable) -> list[Violation]:
    """Every orthogonality and bookkeeping violation in the table.

    Checks: class sizes sum to the group order; a unique identity class
    exists; degrees are positive integers with squares summing to the
    group order; both orthogonality relations, reported per row pair and
    per column pair.  An empty list means the table is consistent.
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
                             f"sizes sum to {sum(sizes)}, group order is {order}"))
    try:
        idc = table.identity_column()
    except InputError as exc:
        out.append(Violation("identity-class", "table", str(exc)))
        return out
    degrees = []
    for i, row in enumerate(table.values):
        v = row[idc]
        if not v.is_rational() or v.coeffs[0].denominator != 1 or v.coeffs[0] <= 0:
            out.append(Violation("degree", table.characters[i],
                                 "degree is not a positive integer"))
            return out
        degrees.append(v.as_integer())
    if sum(d * d for d in degrees) != order:
        out.append(Violation("degree-squares", "table",
                             f"squares sum to {sum(d * d for d in degrees)}, "
                             f"group order is {order}"))
    r = table.size
    conj_rows = [[v.conj() for v in row] for row in table.values]
    for i in range(r):
        for j in range(i, r):
            acc = Cyclotomic.from_rational(0, 1)
            for c in range(r):
                acc = acc + table.values[i][c] * conj_rows[j][c] * sizes[c]
            want = order if i == j else 0
            if acc != want:
                out.append(Violation(
                    "row-orthogonality",
                    f"{table.characters[i]},{table.characters[j]}",
                    f"sum is {display_value(acc)}, expected {want}"))
    for a in range(r):
        for b in range(a, r):
            acc = Cyclotomic.from_rational(0, 1)
            for i in range(r):
                acc = acc + table.values[i][a] * conj_rows[i][b]
            want = order // sizes[a] if a == b else 0
            if a == b and order % sizes[a]:
                out.append(Violation("class-sizes", table.classes[a].label,
                                     "size does not divide group order"))
                continue
            if acc != want:
                out.append(Violation(
                    "column-orthogonality",
                    f"{table.classes[a].label},{table.classes[b].label}",
                    f"sum is {display_value(acc)}, expected {want}"))
    return out


class ClassFunction:
    """Exact values over the classes of one table, in column order."""

    def __init__(self, table: CharacterTable, values):
        self.table = table
        self.values = tuple(
            v if isinstance(v, Cyclotomic) else Cyclotomic.from_rational(v, 1)
            for v in values)
        if len(self.values) != table.size:
            raise InputError("one value per class required")

    def __mul__(self, other: "ClassFunction") -> "ClassFunction":
        if other.table is not self.table:
            raise InputError("class functions live on different tables")
        return ClassFunction(self.table,
                             [a * b for a, b in zip(self.values, other.values)])

    def power(self, k: int) -> "ClassFunction":
        return ClassFunction(self.table, [v ** k for v in self.values])


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
    t = f.table
    acc = Cyclotomic.from_rational(0, 1)
    for size, a, b in zip((c.size for c in t.classes), f.values, h.values):
        acc = acc + a * b.conj() * size
    return acc / t.group_order


def decompose(f: ClassFunction, table: CharacterTable,
              allow_unverified: bool = False) -> tuple[int, ...]:
    """Multiplicities of f against the table rows.

    Requires a verified table unless allow_unverified is set.  Raises
    DecompositionError when any multiplicity is negative or fractional,
    which means f is not a character of this group.
    """
    if f.table is not table:
        raise InputError("class function belongs to a different table")
    if not table.verified and not allow_unverified:
        raise InputError("table is unverified; validate it first or override")
    mults = []
    for i in range(table.size):
        ip = inner_product(f, table.row(i))
        if not ip.is_rational():
            raise DecompositionError(
                f"multiplicity of {table.characters[i]} is irrational")
        q = ip.as_rational()
        if q.denominator != 1 or q < 0:
            raise DecompositionError(
                f"multiplicity of {table.characters[i]} is {q}")
        mults.append(int(q))
    return tuple(mults)


# ---------------------------------------------------------------------------
# matching two tables


@dataclass
class Finding:
    kind: str
    row: str | None
    column: str | None
    external: str
    computed: str
    relation: str

    def to_dict(self) -> dict:
        d = {"kind": self.kind, "external": self.external,
             "computed": self.computed, "relation": self.relation}
        if self.row is not None:
            d["row"] = self.row
        if self.column is not None:
            d["column"] = self.column
        return d


@dataclass
class TableErrata:
    findings: list[Finding] = field(default_factory=list)

    def __bool__(self) -> bool:
        return bool(self.findings)

    def to_dict(self) -> dict:
        return {"findings": [f.to_dict() for f in self.findings]}


@dataclass
class MatchResult:
    row_map: tuple[int, ...]   # external row index -> computed row index
    col_map: tuple[int, ...]   # external column index -> computed column index
    errata: TableErrata
    level: str
    notes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        d = {"matching": {"rows": list(self.row_map),
                          "columns": list(self.col_map),
                          "constraint_level": self.level,
                          "notes": self.notes}}
        d.update(self.errata.to_dict())
        return d


def _parsed_representatives(table: CharacterTable):
    """(degree, cycle types): the largest point any class representative
    names, and the cycle type of each representative, None where its
    text does not parse.  None when some class has no representative."""
    if any(c.representative is None for c in table.classes):
        return None
    degree, types = 0, []
    for c in table.classes:
        rep = c.representative
        try:
            points = [int(x) for x in
                      rep.replace("(", " ").replace(")", " ").replace(",", " ").split()]
            top = max(points, default=1)
            degree = max(degree, top)
            types.append(parse_cycles(rep, top).cycle_type())
        except (InputError, ValueError):
            types.append(None)
    return degree, types


def _canonical_cells(a: CharacterTable, b: CharacterTable):
    e = lcm(a.conductor, b.conductor)
    ca = [[v.lift(e).coeffs for v in row] for row in a.values]
    cb = [[v.lift(e).coeffs for v in row] for row in b.values]
    return ca, cb


def match_columns(computed: CharacterTable,
                  external: CharacterTable) -> MatchResult:
    """Best row/column matching of two equal-sized tables.

    Tries constraint levels from tight to loose until the class
    fingerprints admit a bijection, then minimizes the number of
    disagreeing cells, breaking ties toward the identity-like matching.
    If no level admits a bijection the tables are paired positionally by
    sorted size and degree, which reports errata across the whole table.
    """
    if computed.size != external.size or len(computed.characters) != len(external.characters):
        raise InputError("tables have different sizes; no matching exists")
    r = computed.size
    comp_cells, ext_cells = _canonical_cells(computed, external)

    comp_reps = _parsed_representatives(computed)
    ext_reps = _parsed_representatives(external)
    same_degree = (comp_reps is not None and ext_reps is not None
                   and comp_reps[0] == ext_reps[0])
    have_profiles = (all(c.power_profile is not None for c in computed.classes)
                     and all(c.power_profile is not None for c in external.classes))

    def fingerprint(table, reps, j, level):
        c = table.classes[j]
        if level == "full":
            fp = [c.size, c.order]
            if same_degree:
                fp.append(reps[1][j])
            if have_profiles:
                fp.append(c.power_profile)
            return tuple(fp)
        if level == "size-order":
            return (c.size, c.order)
        return (c.size,)

    try:
        comp_deg = computed.degrees()
        ext_deg = external.degrees()
    except InputError:
        comp_deg = ext_deg = None

    for level in ("full", "size-order", "size"):
        if comp_deg is None or sorted(comp_deg) != sorted(ext_deg):
            break
        comp_fps = [fingerprint(computed, comp_reps, j, level) for j in range(r)]
        ext_fps = [fingerprint(external, ext_reps, j, level) for j in range(r)]
        if sorted(comp_fps) != sorted(ext_fps):
            continue
        result = _search(comp_cells, ext_cells, comp_fps, ext_fps,
                         comp_deg, ext_deg)
        if result is not None:
            row_map, col_map, mism = result
            return _finish(computed, external, row_map, col_map, mism, level,
                           comp_cells, ext_cells)
    # positional fallback: errata will cover whatever disagrees
    col_map = tuple(_positional(list(range(r)),
                                [computed.classes[j].size for j in range(r)],
                                [external.classes[j].size for j in range(r)]))
    if comp_deg is not None and ext_deg is not None:
        row_map = tuple(_positional(list(range(r)), comp_deg, ext_deg))
    else:
        row_map = tuple(range(r))
    mism = [(a, b) for a in range(r) for b in range(r)
            if ext_cells[a][b] != comp_cells[row_map[a]][col_map[b]]]
    return _finish(computed, external, row_map, col_map, mism, "positional",
                   comp_cells, ext_cells)


def _positional(idx, comp_keys, ext_keys):
    comp_sorted = sorted(idx, key=lambda i: (comp_keys[i], i))
    ext_sorted = sorted(idx, key=lambda i: (ext_keys[i], i))
    out = [0] * len(idx)
    for e, c in zip(ext_sorted, comp_sorted):
        out[e] = c
    return out


def _search(comp_cells, ext_cells, comp_fps, ext_fps, comp_deg, ext_deg):
    """Minimal-mismatch assignment under fingerprint and degree groups.

    Returns (row_map, col_map, mismatched cell list) or None when the
    grouping admits no bijection.  Deterministic: candidate orders are
    ascending, first minimum wins.
    """
    r = len(comp_fps)
    col_groups = {}
    for j, fp in enumerate(ext_fps):
        col_groups.setdefault(fp, ([], []))[0].append(j)
    for j, fp in enumerate(comp_fps):
        if fp not in col_groups:
            return None
        col_groups[fp][1].append(j)
    groups = []
    for fp, (ext_idx, comp_idx) in sorted(col_groups.items(),
                                          key=lambda kv: kv[1][0]):
        if len(ext_idx) != len(comp_idx):
            return None
        groups.append((ext_idx, comp_idx))

    row_groups = {}
    for i, d in enumerate(ext_deg):
        row_groups.setdefault(d, ([], []))[0].append(i)
    for i, d in enumerate(comp_deg):
        if d not in row_groups:
            return None
        row_groups[d][1].append(i)
    rgroups = [v for _, v in sorted(row_groups.items())]
    if any(len(a) != len(b) for a, b in rgroups):
        return None

    best = None
    for combo in itertools.product(
            *[itertools.permutations(comp_idx) for _, comp_idx in groups]):
        col_map = [0] * r
        for (ext_idx, _), perm in zip(groups, combo):
            for e, c in zip(ext_idx, perm):
                col_map[e] = c
        total = 0
        row_map = [0] * r
        for ext_rows, comp_rows in rgroups:
            gbest = None
            for perm in itertools.permutations(comp_rows):
                cost = 0
                for a, i in zip(ext_rows, perm):
                    for b in range(r):
                        if ext_cells[a][b] != comp_cells[i][col_map[b]]:
                            cost += 1
                    if gbest is not None and cost >= gbest[0]:
                        break
                if gbest is None or cost < gbest[0]:
                    gbest = (cost, perm)
            total += gbest[0]
            for a, i in zip(ext_rows, gbest[1]):
                row_map[a] = i
            if best is not None and total >= best[0]:
                break
        if best is None or total < best[0]:
            mism = [(a, b) for a in range(r) for b in range(r)
                    if ext_cells[a][b] != comp_cells[row_map[a]][col_map[b]]]
            best = (total, tuple(row_map), tuple(col_map), mism)
            if total == 0:
                break
    if best is None:
        return None
    return best[1], best[2], best[3]


def _finish(computed, external, row_map, col_map, mismatches, level,
            comp_cells, ext_cells):
    errata = TableErrata()
    for a, b in mismatches:
        errata.findings.append(Finding(
            kind="cell",
            row=external.characters[a],
            column=external.classes[b].label,
            external=display_value(external.values[a][b]),
            computed=display_value(computed.values[row_map[a]][col_map[b]]),
            relation="cell equality under best matching"))
    matched = [computed.classes[col_map[b]] for b in range(external.size)]
    errata.findings.extend(class_metadata_findings(external, matched))
    notes = _ambiguity_notes(computed, external, row_map, col_map,
                             len(mismatches), comp_cells, ext_cells, level)
    return MatchResult(tuple(row_map), tuple(col_map), errata, level, notes)


def _ambiguity_notes(computed, external, row_map, col_map, base_count,
                     comp_cells, ext_cells, level):
    """Column pair swaps (with an optional same-degree row pair swap)
    that leave the mismatch count unchanged are conventional choices."""
    r = external.size
    notes = []
    fps = [(c.size, c.order) for c in external.classes]
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
    matched class list is given (from a table matching), its data fills
    the computed side of each finding; otherwise the table's own derived
    data does."""
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


def _parse_fraction(text: str) -> Fraction:
    if not isinstance(text, str) or not text or set(text) - _FRACTION_OK:
        raise InputError(f"not an exact rational string: {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"not an exact rational string: {text!r}") from exc


def encode_value(v: Cyclotomic) -> str | dict:
    """Exact JSON form: rational string, quadratic triple, or coefficient
    vector, whichever is smallest that represents v exactly."""
    if v.is_rational():
        return str(v.as_rational())
    qv = _quadratic(v)
    if qv is not None:
        return {"D": qv.D, "a": str(qv.a), "b": str(qv.b)}
    return {"conductor": v.conductor, "coeffs": [str(c) for c in v.coeffs]}


def decode_value(obj, conductor: int) -> Cyclotomic:
    if isinstance(obj, str):
        return Cyclotomic.from_rational(_parse_fraction(obj), 1).lift(conductor)
    if isinstance(obj, dict) and "D" in obj:
        try:
            qv = QuadraticView(int(obj["D"]), _parse_fraction(obj["a"]),
                               _parse_fraction(obj["b"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad quadratic value encoding: {obj!r}") from exc
        return qv.to_cyclotomic(conductor)
    if isinstance(obj, dict) and "conductor" in obj:
        try:
            inner = int(obj["conductor"])
            z = Cyclotomic(inner, [_parse_fraction(c) for c in obj["coeffs"]])
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad cyclotomic value encoding: {obj!r}") from exc
        return z.lift(conductor)
    raise InputError(f"unrecognized exact value encoding: {obj!r}")


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
            {"label": lab, "values": [encode_value(v) for v in row]}
            for lab, row in zip(table.characters, table.values)],
    }


def table_from_dict(data: dict) -> CharacterTable:
    """Rebuild a table from its JSON form.  Always lands unverified;
    run validate to earn the flag back."""
    try:
        conductor = int(data["conductor"])
        classes = [ClassInfo(label=str(c["label"]), size=int(c["size"]),
                             order=int(c["order"]),
                             representative=c.get("representative"),
                             printed_size=c.get("printed_size"))
                   for c in data["classes"]]
        for c in classes:
            if (type(c.representative) not in (str, type(None))
                    or type(c.printed_size) not in (int, type(None))):
                raise TypeError(f"class {c.label} needs a string representative "
                                "and an integer printed_size")
        characters = [str(ch["label"]) for ch in data["characters"]]
        values = [[decode_value(v, conductor) for v in ch["values"]]
                  for ch in data["characters"]]
        return CharacterTable(
            name=str(data.get("name", "external")),
            group_order=int(data["group_order"]),
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
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read table {path}: {exc}") from exc
    if isinstance(data, dict) and "conductor" not in data:
        inner = data.get("results")
        if isinstance(inner, dict) and isinstance(inner.get("table"), dict):
            data = inner["table"]
    return table_from_dict(data)


def _quadratic(v: Cyclotomic) -> QuadraticView | None:
    """v as a + b*sqrt(D) for the first quadratic field of its conductor
    that holds it, or None."""
    for D in quadratic_candidates(v.conductor):
        qv = to_quadratic(v, D)
        if qv is not None:
            return qv
    return None


def display_value(v: Cyclotomic) -> str:
    """Human-readable exact value: rational, a + b*sqrt(D), or the
    coefficient vector."""
    if v.is_rational():
        return str(v.as_rational())
    qv = _quadratic(v)
    if qv is not None:
        return str(qv)
    return f"cyclotomic{list(map(str, v.coeffs))}"
