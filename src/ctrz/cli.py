"""Command-line interface.

Subcommands: order, classes, permchar, chartable compute|check|match,
decompose, structure, dims, orbits.  Groups come from --builtin or from
a --group JSON file; table operands for chartable check and match are
dataset names or table JSON paths.  Output formats: table (aligned
text, default), json (a RunReport object with sorted keys), csv
(unquoted, integers and identifiers only).  All numbers are exact; no
value is ever rendered through floating point.

Exit codes: 0 success, 1 validation findings present, 2 input or parse
error or a capacity limit (a cap, a result too long to print), 3 internal
inconsistency (cross-method disagreement; must never happen on sound
input), 141 standard output closed before the report was written (as in
`ctrz ... | head -1`).
"""

from __future__ import annotations

import argparse
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
from .tensor import (AGREEMENT_BOUND, SemisimpleStructure,
                     agreed_multiplicities, closed_form_multiplicities,
                     dims_row, multiplicities_direct,
                     multiplicities_recurrence)


def _group_args(sub):
    sub.add_argument("--builtin", choices=list(datasets.BUILTIN_GROUP_NAMES),
                     help="embedded group dataset")
    sub.add_argument("--group", metavar="FILE",
                     help="group spec JSON file")


def _common_args(sub):
    sub.add_argument("--format", choices=["table", "json", "csv"],
                     default="table", dest="fmt")
    sub.add_argument("--allow-unverified", action="store_true",
                     help="let an unverified table drive computations")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctrz",
        description="exact character tables and centralizer algebra "
                    "structure for permutation groups")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("order", help="enumerated group order")
    _group_args(p)
    _common_args(p)
    p.set_defaults(func=cmd_order)

    p = subs.add_parser("classes", help="conjugacy classes")
    _group_args(p)
    _common_args(p)
    p.set_defaults(func=cmd_classes)

    p = subs.add_parser("permchar", help="fixed points per class")
    _group_args(p)
    _common_args(p)
    p.set_defaults(func=cmd_permchar)

    p = subs.add_parser("chartable", help="character table operations")
    tsubs = p.add_subparsers(dest="table_command", required=True)

    pc = tsubs.add_parser("compute", help="compute or emit a table")
    pc.add_argument("--builtin",
                    choices=list(datasets.BUILTIN_GROUP_NAMES)
                    + [datasets.TABLE_DATASET_NAME])
    pc.add_argument("--group", metavar="FILE")
    _common_args(pc)
    pc.set_defaults(func=cmd_chartable_compute)

    pk = tsubs.add_parser("check", help="validate a table")
    pk.add_argument("source", help="dataset name or table JSON path")
    _common_args(pk)
    pk.set_defaults(func=cmd_chartable_check)

    pm = tsubs.add_parser("match", help="reconcile two tables")
    pm.add_argument("computed", help="dataset name or table JSON path")
    pm.add_argument("external", help="dataset name or table JSON path")
    _common_args(pm)
    pm.set_defaults(func=cmd_chartable_match)

    p = subs.add_parser("decompose", help="tensor power multiplicities")
    _group_args(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--method",
                   choices=["direct", "recurrence", "closed-form"],
                   help="force one route instead of cross-checking")
    p.add_argument("--agreement-bound", type=int, default=AGREEMENT_BOUND)
    _common_args(p)
    p.set_defaults(func=cmd_decompose)

    p = subs.add_parser("structure", help="semisimple block structure")
    _group_args(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--agreement-bound", type=int, default=AGREEMENT_BOUND)
    _common_args(p)
    p.set_defaults(func=cmd_structure)

    p = subs.add_parser("dims", help="centralizer algebra dimensions")
    _group_args(p)
    p.add_argument("--from", dest="k_from", type=int, required=True)
    p.add_argument("--to", dest="k_to", type=int, required=True)
    p.add_argument("--agreement-bound", type=int, default=AGREEMENT_BOUND)
    _common_args(p)
    p.set_defaults(func=cmd_dims)

    p = subs.add_parser("orbits", help="orbit counts on t-tuples")
    _group_args(p)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--method", choices=["burnside", "direct"],
                   default="burnside")
    _common_args(p)
    p.set_defaults(func=cmd_orbits)

    return parser


def _analysis(args) -> GroupAnalysis:
    if args.builtin and args.group:
        raise InputError("choose either --builtin or --group, not both")
    if args.builtin:
        return builtin_analysis(args.builtin)
    if args.group:
        return analysis_from_file(args.group)
    raise InputError("select a group with --builtin or --group")


def _emit(args, report: dict, table_lines, csv_lines) -> None:
    if args.fmt == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    elif args.fmt == "csv":
        for line in csv_lines:
            print(line)
    else:
        for line in table_lines:
            print(line)


def _report(args, dataset, results, findings: bool = False) -> dict:
    command = args.command
    if getattr(args, "table_command", None):
        command = f"{args.command} {args.table_command}"
    return {"command": command, "dataset": dataset, "results": results,
            "status": "findings" if findings else "ok"}


def _printable(value: int = 0, floor_bits: int = 0) -> None:
    """Refuse a result of at least value, or 2**floor_bits, with more
    digits than Python prints; raising that limit makes printing quadratic."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and (value >= 10**limit or floor_bits >= (10**limit).bit_length()):
        raise InputError(f"the result has more than {limit} decimal digits, "
                         "the limit for printing an integer")


def cmd_order(args) -> int:
    a = _analysis(args)
    report = _report(args, a.name, {"order": a.group.order})
    _emit(args, report, [str(a.group.order)], [str(a.group.order)])
    return 0


def cmd_classes(args) -> int:
    a = _analysis(args)
    rows = [{"label": c.label, "size": c.size, "order": c.order,
             "representative": str(c.representative)}
            for c in a.class_set.classes]
    report = _report(args, a.name, {"classes": rows})
    width = max(len(r["label"]) for r in rows)
    tlines = [f"{r['label']:<{width}}  size {r['size']:>4}  order "
              f"{r['order']:>2}  {r['representative']}" for r in rows]
    clines = ["label,size,order"]
    clines += [f"{r['label']},{r['size']},{r['order']}" for r in rows]
    _emit(args, report, tlines, clines)
    return 0


def cmd_permchar(args) -> int:
    a = _analysis(args)
    rows = [{"label": c.label, "fixed_points": c.representative.fixed_points()}
            for c in a.class_set.classes]
    report = _report(args, a.name, {"permchar": rows})
    width = max(len(r["label"]) for r in rows)
    tlines = [f"{r['label']:<{width}}  {r['fixed_points']}" for r in rows]
    clines = ["label,fixed_points"]
    clines += [f"{r['label']},{r['fixed_points']}" for r in rows]
    _emit(args, report, tlines, clines)
    return 0


def _table_text(table) -> list[str]:
    cells = [[""] + [c.label for c in table.classes]]
    cells.append(["size"] + [str(c.size) for c in table.classes])
    for label, row in zip(table.characters, table.values):
        cells.append([label] + [display_value(v) for v in row])
    widths = [max(len(r[i]) for r in cells) for i in range(len(cells[0]))]
    return ["  ".join(f"{x:>{w}}" for x, w in zip(r, widths)) for r in cells]


def cmd_chartable_compute(args) -> int:
    if args.builtin == datasets.TABLE_DATASET_NAME:
        table = datasets.transcription_table("g1344-deg8")
        name = datasets.TABLE_DATASET_NAME
    else:
        a = _analysis(args)
        table = a.table
        name = a.name
    payload = table_to_dict(table)
    report = _report(args, name, {"table": payload})
    clines = ["label," + ",".join(c.label for c in table.classes)]
    for label, row in zip(table.characters, table.values):
        clines.append(label + "," + ",".join(display_value(v) for v in row))
    _emit(args, report, _table_text(table), clines)
    return 0


def _load_table_source(token: str, side_hint: str | None = None):
    """A table plus its backing analysis (for computed builtins)."""
    if token in datasets.BUILTIN_GROUP_NAMES:
        a = builtin_analysis(token)
        return a.table, token, a
    if token == datasets.TABLE_DATASET_NAME:
        side = side_hint or "g1344-deg8"
        return datasets.transcription_table(side), token, None
    return load_table(token), token, None


def cmd_chartable_check(args) -> int:
    table, name, _ = _load_table_source(args.source)
    violations = validate(table)
    metadata = class_metadata_findings(table)
    results = {
        "verified": not violations,
        "violations": [{"kind": v.kind, "subject": v.subject,
                        "detail": v.detail} for v in violations],
        "metadata_findings": [f.to_dict() for f in metadata],
    }
    found = bool(violations or metadata)
    report = _report(args, name, results, findings=found)
    tlines = []
    for v in violations:
        tlines.append(f"violation: {v.describe()}")
    for f in metadata:
        where = f.column or f.row or "table"
        tlines.append(f"finding: {f.kind} [{where}]: {f.external} vs "
                      f"{f.computed} ({f.relation})")
    if not tlines:
        tlines = ["table is consistent"]
    clines = ["kind,subject"]
    clines += [f"{v.kind},{v.subject}" for v in violations]
    clines += [f"{f.kind},{f.column or f.row or 'table'}" for f in metadata]
    _emit(args, report, tlines, clines)
    return 1 if found else 0


def cmd_chartable_match(args) -> int:
    computed, comp_name, comp_analysis = _load_table_source(args.computed)
    side_hint = comp_name if comp_name in datasets.BUILTIN_GROUP_NAMES else None
    external, ext_name, _ = _load_table_source(args.external,
                                               side_hint=side_hint)
    if not computed.verified and not args.allow_unverified:
        raise InputError(
            f"computed operand {comp_name} is an unverified table; pass "
            "--allow-unverified to match against it anyway")
    result = match_columns(computed, external)
    notes = list(result.notes)
    if comp_analysis is not None and ext_name == datasets.TABLE_DATASET_NAME:
        notes += comp_analysis.diag_variant_notes()
    payload = result.to_dict()
    payload["matching"]["notes"] = notes
    found = bool(result.errata.findings)
    report = _report(args, [comp_name, ext_name], payload, findings=found)
    tlines = [f"constraint level: {result.level}",
              f"row map: {list(result.row_map)}",
              f"column map: {list(result.col_map)}"]
    for f in result.errata.findings:
        where = ", ".join(x for x in (f.row, f.column) if x)
        tlines.append(f"finding: {f.kind} [{where}]: {f.external} vs "
                      f"{f.computed} ({f.relation})")
    for n in notes:
        tlines.append(f"note: {n}")
    clines = ["kind,row,column"]
    clines += [f"{f.kind},{f.row or ''},{f.column or ''}"
               for f in result.errata.findings]
    _emit(args, report, tlines, clines)
    return 1 if found else 0


def _vector(args, a: GroupAnalysis, k: int) -> tuple[int, ...]:
    method = getattr(args, "method", None)  # structure and dims have none
    if method == "direct":
        return multiplicities_direct(a.permchar, a.table, k)
    if method == "recurrence":
        return multiplicities_recurrence(a.permchar, a.table, k,
                                         matrix=a.transition)
    if method == "closed-form":
        if a.family is None:
            raise InputError(f"no closed forms are published for {a.name}")
        return closed_form_multiplicities(a.family, k)
    return agreed_multiplicities(
        a.permchar, a.table, k, family=a.family,
        matrix=a.transition, bound=args.agreement_bound)


def cmd_decompose(args) -> int:
    if args.k < 1:
        raise InputError("--k must be at least 1")
    a = _analysis(args)
    d = _vector(args, a, args.k)
    _printable(max(d))
    labels = list(a.table.characters)
    default = "cross-checked" if args.k <= args.agreement_bound else "recurrence"
    results = {"k": args.k, "method": args.method or default,
               "characters": labels, "multiplicities": list(d)}
    report = _report(args, a.name, results)
    width = max(len(x) for x in labels)
    tlines = [f"{lab:<{width}}  {m}" for lab, m in zip(labels, d)]
    clines = [",".join(str(m) for m in d)]
    _emit(args, report, tlines, clines)
    return 0


def cmd_structure(args) -> int:
    if args.k < 1:
        raise InputError("--k must be at least 1")
    a = _analysis(args)
    s = SemisimpleStructure(_vector(args, a, args.k))
    _printable(s.dimension)  # at least every block size
    results = {"k": args.k, "structure": s.to_dict()}
    report = _report(args, a.name, results)
    tlines = [s.display(), f"dimension {s.dimension}"]
    clines = [f"{s.compact()},{s.dimension}"]
    _emit(args, report, tlines, clines)
    return 0


def cmd_dims(args) -> int:
    if args.k_from < 1 or args.k_to < args.k_from:
        raise InputError("--from and --to must satisfy 1 <= from <= to")
    a = _analysis(args)
    rows = []
    for k in range(args.k_from, args.k_to + 1):
        d = _vector(args, a, k)
        if k <= args.agreement_bound:
            rows.append(dims_row(a.class_set, d, k, family=a.family))
        else:
            dim = SemisimpleStructure(d).dimension
            rows.append({"k": k, "sum_of_squares": dim, "dimension": dim})
    _printable(max(r["dimension"] for r in rows))
    report = _report(args, a.name, {"dims": rows})
    tlines = [f"k={r['k']}  dim {r['dimension']}" for r in rows]
    clines = [",".join(str(r["dimension"]) for r in rows)]
    _emit(args, report, tlines, clines)
    return 0


def cmd_orbits(args) -> int:
    if args.t < 1:
        raise InputError("--t must be at least 1")
    a = _analysis(args)
    g = a.group
    if args.method == "burnside":  # the direct count's tuple cap is smaller
        # at least degree**t / order orbits: refuse one too long to print
        _printable(floor_bits=args.t * (g.degree.bit_length() - 1)
                   - g.order.bit_length())
    n = orbit_count_tuples(g, args.t, method=args.method, classes=a.class_set)
    _printable(n)
    results = {"t": args.t, "method": args.method, "orbits": n}
    report = _report(args, a.name, results)
    _emit(args, report, [str(n)], [str(n)])
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
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
        return 1 if getattr(args, "allow_unverified", False) else 3
    except InconsistencyError as exc:
        print(f"inconsistency: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
