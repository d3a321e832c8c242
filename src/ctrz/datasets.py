"""Embedded datasets: the two order-1344 permutation groups, the
transcription of the externally published character table they share,
and the published formulas for their tensor power multiplicities.

The group entries store corrected generator strings; the comments field
records each as-printed original alongside the reason the correction is
forced (the corrected strings are the ones that enumerate to order 1344
and reproduce the published class data).

The table transcription is verbatim: printed header labels, printed
class sizes, printed centralizer row, and printed values, including the
cells that fail orthogonality.  It is flagged unverified and is never
silently repaired; reconciliation against a recomputed table is what
surfaces the inconsistencies.  The physical column order of the printed
table differs from the printed label numbering on both the degree-8 and
the degree-14 side, so each column carries its own labels per side.
Class sizes used in arithmetic come from the centralizer row (order
divided by centralizer); the printed per-class size lists are kept as
printed_size metadata so discrepancies can be reported, not hidden.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm

from .chartab import CharacterTable, ClassInfo, decode_rows, json_int, read_json
from .errors import InputError
from .perm import check_degree, parse_cycles

BUILTIN_GROUP_NAMES = ("g1344-deg8", "g1344-deg14")
TABLE_DATASET_NAME = "paper-table"

BUILTIN_GROUPS = {
    "g1344-deg8": {
        "name": "g1344-deg8",
        "degree": 8,
        "generators": [
            "(5,7)(6,8)",
            "(2,3,5)(4,7,6)",
            "(1,2)(3,4)(5,6)(7,8)",
            "(1,5)(2,6)(3,7)(4,8)",
        ],
        "order": 1344,
        "comments": [
            "as printed the generator list runs the last two generators "
            "together with an unbalanced parenthesis: "
            "'(1,2)(3,4)(5,6)(7,8))(1,5)(2,6)(3,7)(4,8)'; "
            "split at the stray ')' the four generators above enumerate "
            "to order 1344",
        ],
    },
    "g1344-deg14": {
        "name": "g1344-deg14",
        "degree": 14,
        "generators": [
            "(1,2,3,4,5,6,7)(14,13,12,11,10,9,8)",
            "(1,4,7,9,14,11,8,6)(2,5,13,10)",
        ],
        "order": 1344,
        "comments": [
            "as printed the first generator is "
            "'(1,2,3,4,5,6)(14,13,12,11,10,9,8)', a 6-cycle missing the "
            "point 7 next to a 7-cycle; with the full 7-cycle "
            "'(1,2,3,4,5,6,7)' the group enumerates to order 1344 and its "
            "class data matches the published table, so that is the "
            "correction applied",
        ],
    },
}

# Columns in the physical order of the printed table.  Labels are the
# printed header labels (ASCII rendering, primes kept for the degree-14
# side).  The identity representative is printed as the bare symbol 1;
# it is stored here as the empty cycle string.  All other representative
# strings are verbatim, including their spacing.
TABLE_COLUMNS = [
    {"g": "C1", "h": "C1'",
     "g_rep": "()", "h_rep": "()",
     "g_printed_size": 1, "h_printed_size": 1},
    {"g": "C2", "h": "C2'",
     "g_rep": "(1,2)(3,4)(5,6)(7,8)",
     "h_rep": "(1, 14)(4, 11)(6, 9)(7, 8)",
     "g_printed_size": 7, "h_printed_size": 7},
    {"g": "C6", "h": "C6'",
     "g_rep": "(1,2,5,6)(3,4,7,8)",
     "h_rep": "(1, 7)(3, 12)(4, 6)(5, 10)(8, 14)(9, 11)",
     "g_printed_size": 168, "h_printed_size": 168},
    {"g": "C4", "h": "C3'",
     "g_rep": "(1,3)(2,8)(4,6)(5,7)",
     "h_rep": "(1, 7, 14, 8)(4, 6, 11, 9)",
     "g_printed_size": 42, "h_printed_size": 42},
    {"g": "C3", "h": "C4'",
     "g_rep": "(1,5)(3,7)",
     "h_rep": "(1, 7, 14, 8)(2, 13)(4, 9, 11, 6)(5, 10)",
     "g_printed_size": 42, "h_printed_size": 42},
    {"g": "C5", "h": "C5'",
     "g_rep": "(1,5,2)(3,8,7)",
     "h_rep": "(1, 10, 8)(3, 6, 11)(4, 12, 9)(5, 7, 14)",
     "g_printed_size": 84, "h_printed_size": 84},
    {"g": "C9", "h": "C9'",
     "g_rep": "(1,7)(2,3,6,8,5,4)",
     "h_rep": "(1, 5, 8, 14, 10, 7)(2, 13)(3, 6, 11)(4, 12, 9)",
     "g_printed_size": 224, "h_printed_size": 224},
    {"g": "C7", "h": "C7'",
     "g_rep": "(1,5)(2,4,6,8)",
     "h_rep": "(1, 4, 7, 6, 14, 11, 8, 9)(2, 5)(3, 12)(10, 13)",
     "g_printed_size": 168, "h_printed_size": 168},
    {"g": "C8", "h": "C8'",
     "g_rep": "(1,2,7,4)(3,8,5,6)",
     "h_rep": "(1, 4, 7, 9, 14, 11, 8, 6)(2, 5, 13, 10)",
     "g_printed_size": 224, "h_printed_size": 224},
    {"g": "C10", "h": "C10'",
     "g_rep": "(2,7,4,8,6,5,3)",
     "h_rep": "(1, 2, 3, 4, 5, 6, 7)(8, 14, 13, 12, 11, 10, 9)",
     "g_printed_size": 192, "h_printed_size": 192},
    {"g": "C11", "h": "C11'",
     "g_rep": "(2,8,3,4,5,7,6)",
     "h_rep": "(1, 4, 7, 3, 6, 2, 5)(8, 12, 9, 13, 10, 14, 11)",
     "g_printed_size": 192, "h_printed_size": 192},
]

TABLE_CENTRALIZER_ROW = [1344, 192, 16, 32, 32, 6, 6, 8, 8, 7, 7]

# Printed rows, verbatim, one list per character in the printed column
# order above.  The two non-rational values are (-1 +- sqrt(-7))/2.
_QP = {"D": -7, "a": "-1/2", "b": "1/2"}
_QM = {"D": -7, "a": "-1/2", "b": "-1/2"}
TABLE_ROWS = [
    ("chi1", ["1", "1", "1", "1", "1", "1", "1", "1", "1", "1", "1"]),
    ("chi2", ["3", "3", "-1", "-1", "0", "0", "0", "1", "1", _QP, _QM]),
    ("chi3", ["3", "3", "-1", "-1", "0", "0", "0", "1", "1", _QM, _QP]),
    ("chi4", ["6", "6", "2", "2", "2", "0", "0", "0", "0", "-1", "-1"]),
    ("chi5", ["7", "7", "-1", "-1", "-1", "1", "1", "-1", "-1", "0", "0"]),
    ("chi6", ["8", "8", "0", "0", "0", "-1", "-1", "0", "0", "1", "1"]),
    ("chi7", ["7", "-1", "-1", "3", "-1", "1", "-1", "-1", "1", "0", "0"]),
    ("chi8", ["7", "-1", "-1", "-1", "3", "1", "-1", "1", "-1", "0", "0"]),
    ("chi9", ["14", "-2", "-2", "2", "2", "-1", "1", "0", "0", "0", "0"]),
    ("chi10", ["21", "-3", "1", "1", "-3", "0", "0", "1", "-1", "0", "0"]),
    ("chi11", ["21", "-3", "1", "-3", "1", "0", "0", "-1", "1", "0", "0"]),
]

# The fixed-point diagonal for each group is printed twice, once where
# the transition matrix is defined and once where its powers are taken,
# and the two printings disagree in two slots.  Both variants are kept,
# in the physical column order of the table above.
TABLE_PRINTED_DIAG = {
    "g1344-deg8": {
        "transition-definition": [8, 0, 0, 0, 4, 2, 0, 2, 0, 1, 1],
        "power-derivation": [8, 0, 0, 0, 4, 2, 0, 0, 2, 1, 1],
    },
    "g1344-deg14": {
        "transition-definition": [14, 6, 2, 6, 2, 2, 0, 0, 2, 0, 0],
        "power-derivation": [14, 6, 2, 6, 2, 2, 0, 2, 0, 0, 0],
    },
}

TABLE_CONDUCTOR = 84

# m_i(k) = sum over the bases f (fixed-point counts) of c_(i,f) * f^k, k >= 1:
# one row of c_(i,f) per irreducible, published order, trivial character first,
# held in CLOSED_FORMS as (bases, den, rows of ints c_(i,f) * den), den the lcm.
_CLOSED_FORM_TEXT = {
    "g1344-deg8": ((8, 4, 2, 1), """
        1/1344   1/32   7/24   2/7
        1/448   -1/32   1/8   -1/7
        1/448   -1/32   1/8   -1/7
        1/224    1/16   0     -2/7
        1/192   -1/32   1/24   0
        1/168    0     -1/6    2/7
        1/192   -1/32   1/24   0
        1/192    3/32   7/24   0
        1/96     1/16  -1/6    0
        1/64    -3/32   1/8    0
        1/64     1/32  -1/8    0"""),
    "g1344-deg14": ((14, 6, 2), """
        1/1344   7/192   37/96
        1/448   -1/64     1/32
        1/448   -1/64     1/32
        1/224    3/32     3/16
        1/192    1/192   -5/96
        1/168    1/24    -1/6
        1/192   17/192   19/96
        1/192   -7/192    7/96
        1/96     5/96   -11/48
        1/64     1/64    -5/32
        1/64    -7/64     7/32"""),
}


def _in_ints(bases, text):
    rows = [list(map(Fraction, line.split())) for line in text.strip().split("\n")]
    den = lcm(*(c.denominator for row in rows for c in row))
    return bases, den, tuple(tuple(int(c * den) for c in row) for row in rows)


CLOSED_FORMS = {f: _in_ints(*entry) for f, entry in _CLOSED_FORM_TEXT.items()}

_SIDE_KEYS = {"g1344-deg8": "g", "g1344-deg14": "h"}


def builtin_group(name: str) -> dict:
    if name not in BUILTIN_GROUPS:
        known = ", ".join(sorted(BUILTIN_GROUPS))
        raise InputError(f"unknown builtin group {name!r} (known: {known})")
    return BUILTIN_GROUPS[name]


def load_group_file(path: str) -> dict:
    """Read a group spec JSON file: name, degree, generators, and
    optionally comments and an expected order."""
    data = read_json(path, "group spec")
    try:
        gens = data["generators"]
        if not _is_string_list(gens):
            raise TypeError("generators must be a list of cycle strings")
        spec = {
            "name": str(data["name"]),
            "degree": json_int(data["degree"], "degree"),
            "generators": list(gens),
        }
        if "comments" in data:
            if not _is_string_list(data["comments"]):
                raise TypeError("comments must be a list of strings")
            spec["comments"] = list(data["comments"])
        if "order" in data:
            spec["order"] = json_int(data["order"], "order")
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed group spec {path}: {exc}") from exc
    if spec["degree"] < 1:
        raise InputError(f"group spec {path} needs a positive degree")
    check_degree(spec["degree"])  # before parsing allocates degree images
    if not spec["generators"]:
        raise InputError(f"group spec {path} lists no generators")
    return spec


def _is_string_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(x, str) for x in value)


@lru_cache(maxsize=None)
def transcription_table(side: str) -> CharacterTable:
    """The published table as a CharacterTable, unverified, built once
    per side and process: callers share it and must not change it.

    side selects whose class metadata (labels, representatives, printed
    sizes) decorates the columns; the value matrix is shared.  Class
    sizes are derived from the centralizer row; the printed size list
    survives as printed_size so the two can be compared.
    """
    key = _SIDE_KEYS.get(side)
    if key is None:
        raise InputError(f"unknown table side {side!r}; use g1344-deg8 or g1344-deg14")
    degree = 8 if key == "g" else 14
    order = 1344
    classes = []
    for col, cent in zip(TABLE_COLUMNS, TABLE_CENTRALIZER_ROW):
        if order % cent:
            raise InputError("centralizer row entry does not divide the group order")
        rep = col[f"{key}_rep"]
        classes.append(ClassInfo(
            label=col[key],
            size=order // cent,
            order=parse_cycles(rep, degree).order(),
            representative=rep,
            printed_size=col[f"{key}_printed_size"]))
    characters = [label for label, _ in TABLE_ROWS]
    values = decode_rows((row for _, row in TABLE_ROWS), TABLE_CONDUCTOR)
    return CharacterTable(
        name=TABLE_DATASET_NAME, group_order=order,
        conductor=TABLE_CONDUCTOR, classes=classes, characters=characters,
        values=values, verified=False)
