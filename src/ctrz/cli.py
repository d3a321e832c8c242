"""Command-line interface.

Subcommands: order, classes, permchar, chartable compute|check|match,
decompose, structure, dims, orbits, one `_COMMANDS` entry each.  Groups
come from --builtin or from a --group JSON file; table operands for
chartable check and match are dataset names or table JSON paths.

Each command returns its parts and does no I/O: dataset, results, text
lines, csv rows and whether there are findings.  `main` renders them as
table (the text lines, default), json (a RunReport object with sorted
keys command, dataset, results and status, "findings" exactly at exit 1)
or csv (through the stdlib csv writer, a cell quoted only where it holds
a comma or a quote).  All numbers are exact; no value is ever rendered
through floating point.

Exit codes: 0 success, 1 validation findings present, 2 input or parse
error or a capacity limit (a cap, a result too long to print), 3 internal
inconsistency (cross-method disagreement; must never happen on sound
input), 141 standard output closed before the report was written (as in
`ctrz ... | head -1`).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys

from . import datasets
from .chartab import (DecompositionError, class_metadata_findings,
                      display_value, load_table, match_columns, table_to_dict,
                      validate)
from .errors import InconsistencyError, InputError
from .pipeline import GroupAnalysis, analysis_from_file, builtin_analysis
from .perm import orbit_count_tuples
from .tensor import (SemisimpleStructure, agreed_multiplicities,
                     closed_form_multiplicities, dims_row,
                     multiplicities_direct, multiplicities_recurrence)


def _analysis(args) -> GroupAnalysis:
    if args.builtin and args.group:
        raise InputError("choose either --builtin or --group, not both")
    if args.builtin:
        return builtin_analysis(args.builtin)
    if args.group:
        return analysis_from_file(args.group)
    raise InputError("select a group with --builtin or --group")


def _printable(value: int = 0, floor_bits: int = 0) -> None:
    """Refuse a result of at least value, or 2**floor_bits, with more
    digits than Python prints; raising that limit makes printing quadratic."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and (value >= 10**limit or floor_bits >= (10**limit).bit_length()):
        raise InputError(f"the result has more than {limit} decimal digits, "
                         "the limit for printing an integer")


def _aligned(labels, tails) -> list[str]:
    """One text line per label, the labels padded to one width."""
    width = max(len(x) for x in labels)
    return [f"{x:<{width}}  {t}" for x, t in zip(labels, tails)]


def cmd_order(args):
    a = _analysis(args)
    n = a.group.order
    return a.name, {"order": n}, [str(n)], [[n]], False


def cmd_classes(args):
    a = _analysis(args)
    cs = a.class_set.classes
    rows = [{"label": c.label, "size": c.size, "order": c.order,
             "representative": str(c.representative)} for c in cs]
    tails = [f"size {c.size:>4}  order {c.order:>2}  {c.representative}"
             for c in cs]
    return (a.name, {"classes": rows}, _aligned([c.label for c in cs], tails),
            [["label", "size", "order"]]
            + [[c.label, c.size, c.order] for c in cs], False)


def cmd_permchar(args):
    a = _analysis(args)
    cs = a.class_set
    rows = [[c.label, f] for c, f in zip(cs.classes, cs.fixed_points)]
    results = {"permchar": [{"label": x, "fixed_points": f} for x, f in rows]}
    return (a.name, results, _aligned(*zip(*rows)),
            [["label", "fixed_points"]] + rows, False)


def cmd_chartable_compute(args):
    if args.builtin == datasets.TABLE_DATASET_NAME and not args.group:
        table, name = _load_table_source(args.builtin)
    else:
        a = _analysis(args)
        table, name = a.table, a.name
    results = {"table": table_to_dict(table)}
    grid = [[""] + [c.label for c in table.classes],
            ["size"] + [str(c.size) for c in table.classes]]
    grid += [[label] + [display_value(v, table.conductor) for v in row]
             for label, row in zip(table.characters, table.values)]
    widths = [max(map(len, column)) for column in zip(*grid)]
    text = ["  ".join(f"{x:>{w}}" for x, w in zip(r, widths)) for r in grid]
    return name, results, text, [["label"] + grid[0][1:]] + grid[2:], False


def _load_table_source(token: str, side: str = "g1344-deg8"):
    """(table, name): a builtin's reporting table, the transcription
    read on the given side, or a table file."""
    if token in datasets.BUILTIN_GROUP_NAMES:
        return builtin_analysis(token).table, token
    if token == datasets.TABLE_DATASET_NAME:
        return datasets.transcription_table(side), token
    return load_table(token), token


def _finding(f) -> str:
    where = ", ".join(x for x in (f.row, f.column) if x) or "table"
    return (f"finding: {f.kind} [{where}]: {f.external} vs {f.computed} "
            f"({f.relation})")


def cmd_chartable_check(args):
    table, name = _load_table_source(args.source)
    violations = validate(table)
    metadata = class_metadata_findings(table)
    results = {
        "verified": not violations,
        "violations": [{"kind": v.kind, "subject": v.subject,
                        "detail": v.detail} for v in violations],
        "metadata_findings": [f.to_dict() for f in metadata],
    }
    text = ([f"violation: {v.describe()}" for v in violations]
            + [_finding(f) for f in metadata] or ["table is consistent"])
    rows = ([["kind", "subject"]] + [[v.kind, v.subject] for v in violations]
            + [[f.kind, f.column] for f in metadata])
    return name, results, text, rows, bool(violations or metadata)


def cmd_chartable_match(args):
    # the transcription takes the side of the builtin in either slot
    names = [args.computed, args.external]
    builtin = next((t for t in names if t in datasets.BUILTIN_GROUP_NAMES), None)
    computed, external = (_load_table_source(t, builtin or "g1344-deg8")[0]
                          for t in names)
    if not computed.verified and not args.allow_unverified:
        raise InputError(
            f"computed operand {names[0]} is an unverified table; pass "
            "--allow-unverified to match against it anyway")
    result = match_columns(computed, external)
    if builtin and datasets.TABLE_DATASET_NAME in names:
        result.notes += builtin_analysis(builtin).diag_variant_notes()
    findings = result.errata.findings
    text = [f"constraint level: {result.level}",
            f"row map: {list(result.row_map)}",
            f"column map: {list(result.col_map)}"]
    text += [_finding(f) for f in findings]
    text += [f"note: {n}" for n in result.notes]
    rows = [["kind", "row", "column"]]
    rows += [[f.kind, f.row, f.column] for f in findings]
    return names, result.to_dict(), text, rows, bool(findings)


def _refuse_orbits(group, t: int) -> None:
    """Refuse before counting when the orbits on t-tuples, at least
    degree**t / order of them, are too many to print."""
    _printable(floor_bits=t * (group.degree.bit_length() - 1)
               - group.order.bit_length())


def _vector(args, a: GroupAnalysis, k: int) -> tuple[int, ...]:
    method = getattr(args, "method", None)  # structure and dims have none
    if method == "closed-form" and a.family is None:
        raise InputError(f"no closed forms are published for {a.name}")
    _refuse_orbits(a.group, k)  # the trivial multiplicity counts them
    if method == "direct":
        return multiplicities_direct(a.permchar, a.table, k)
    if method == "recurrence":
        return multiplicities_recurrence(a.permchar, a.table, k,
                                         matrix=a.transition)
    if method == "closed-form":
        return closed_form_multiplicities(a.family, k)
    return agreed_multiplicities(a.permchar, a.table, k, family=a.family,
                                 matrix=a.transition)


def cmd_decompose(args):
    if args.k < 1:
        raise InputError("--k must be at least 1")
    a = _analysis(args)
    d = _vector(args, a, args.k)
    _printable(max(d))
    labels = list(a.table.characters)
    results = {"k": args.k, "method": args.method or "cross-checked",
               "characters": labels, "multiplicities": list(d)}
    return a.name, results, _aligned(labels, d), [d], False


def cmd_structure(args):
    if args.k < 1:
        raise InputError("--k must be at least 1")
    a = _analysis(args)
    s = SemisimpleStructure(_vector(args, a, args.k))
    _printable(s.dimension)  # at least every block size
    return (a.name, {"k": args.k, "structure": s.to_dict()},
            [s.display(), f"dimension {s.dimension}"],
            [[s.compact(), s.dimension]], False)


def cmd_dims(args):
    if args.k_from < 1 or args.k_to < args.k_from:
        raise InputError("--from and --to must satisfy 1 <= from <= to")
    a = _analysis(args)
    _refuse_orbits(a.group, 2 * args.k_to)  # the dimension counts 2k-tuples
    rows = [dims_row(a.class_set, _vector(args, a, k), k, family=a.family)
            for k in range(args.k_from, args.k_to + 1)]
    _printable(max(r["dimension"] for r in rows))
    return (a.name, {"dims": rows},
            [f"k={r['k']}  dim {r['dimension']}" for r in rows],
            [[r["dimension"] for r in rows]], False)


def cmd_orbits(args):
    if args.t < 1:
        raise InputError("--t must be at least 1")
    a = _analysis(args)
    if args.method == "burnside":  # the direct count's tuple cap is smaller
        _refuse_orbits(a.group, args.t)
    n = orbit_count_tuples(a.group, args.t, method=args.method,
                           classes=a.class_set)
    _printable(n)
    return (a.name, {"t": args.t, "method": args.method, "orbits": n},
            [str(n)], [[n]], False)


_GROUP = [("--builtin", {"choices": list(datasets.BUILTIN_GROUP_NAMES),
                         "help": "embedded group dataset"}),
          ("--group", {"metavar": "FILE", "help": "group spec JSON file"})]
_K = [("--k", {"type": int, "required": True})]
_TABLE = {"help": "dataset name or table JSON path"}

# (command words, help, handler, arguments before --format), in --help order
_COMMANDS = [
    (("order",), "enumerated group order", cmd_order, _GROUP),
    (("classes",), "conjugacy classes", cmd_classes, _GROUP),
    (("permchar",), "fixed points per class", cmd_permchar, _GROUP),
    (("chartable", "compute"), "compute or emit a table",
     cmd_chartable_compute,
     [("--builtin", {"choices": list(datasets.BUILTIN_GROUP_NAMES)
                     + [datasets.TABLE_DATASET_NAME]}),
      ("--group", {"metavar": "FILE"})]),
    (("chartable", "check"), "validate a table", cmd_chartable_check,
     [("source", _TABLE)]),
    (("chartable", "match"), "reconcile two tables", cmd_chartable_match,
     [("computed", _TABLE), ("external", _TABLE),
      ("--allow-unverified",
       {"action": "store_true",
        "help": "match against an unverified computed table"})]),
    (("decompose",), "tensor power multiplicities", cmd_decompose,
     _GROUP + _K + [("--method",
                     {"choices": ["direct", "recurrence", "closed-form"],
                      "help": "force one route instead of cross-checking"})]),
    (("structure",), "semisimple block structure", cmd_structure,
     _GROUP + _K),
    (("dims",), "centralizer algebra dimensions", cmd_dims,
     _GROUP + [("--from", {"dest": "k_from", "type": int, "required": True}),
               ("--to", {"dest": "k_to", "type": int, "required": True})]),
    (("orbits",), "orbit counts on t-tuples", cmd_orbits,
     _GROUP + [("--t", {"type": int, "required": True}),
               ("--method", {"choices": ["burnside", "direct"],
                             "default": "burnside"})]),
]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctrz",
        description="exact character tables and centralizer algebra "
                    "structure for permutation groups")
    subs = {(): parser.add_subparsers(dest="command", required=True)}
    for words, help_, func, arguments in _COMMANDS:
        parent = words[:-1]
        if parent not in subs:  # the chartable parser, at its first child
            p = subs[()].add_parser(*parent, help="character table operations")
            subs[parent] = p.add_subparsers(dest="table_command",
                                            required=True)
        p = subs[parent].add_parser(words[-1], help=help_)
        for name, kwargs in arguments:
            p.add_argument(name, **kwargs)
        p.add_argument("--format", choices=["table", "json", "csv"],
                       default="table", dest="fmt")
        p.set_defaults(func=func, words=" ".join(words))
    return parser


# one parser for every main call in a process: parsing leaves it unchanged
_parser = functools.lru_cache(maxsize=1)(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        dataset, results, text, rows, found = args.func(args)
        if args.fmt == "json":
            report = {"command": args.words, "dataset": dataset,
                      "results": results,
                      "status": "findings" if found else "ok"}
            print(json.dumps(report, indent=2, sort_keys=True))
        elif args.fmt == "csv":
            csv.writer(sys.stdout, lineterminator="\n").writerows(rows)
        else:
            for line in text:
                print(line)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return 1 if found else 0
    except BrokenPipeError:
        # 128 + SIGPIPE, as a shell reports a reader that went away; later
        # flushes go to the null device so the exit itself cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DecompositionError as exc:
        print(f"finding: {exc}", file=sys.stderr)
        return 3
    except InconsistencyError as exc:
        print(f"inconsistency: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
