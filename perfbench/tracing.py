"""Spans around calls into ctrz, recorded from outside the package.

A traced pass installs wrappers on the module attributes through which
ctrz's layers call each other (for example ``ctrz.dixon.validate``, the
name compute_character_table uses to reach chartab).  Each wrapped call
records one span: name ``<module>.<function>``, start, end, the index of
the enclosing span, and the op id.  Spans are kept in memory and written
out when the run ends.  Nothing in ``src/ctrz`` changes; the wrappers are
removed after every traced pass, so untraced passes run the plain code.

The timed ops run on one thread and do no I/O beyond reading the small
table files reconcile writes during set-up, so there is no queue or wait
time to record: a layer's self time is all of its time.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter
from contextlib import contextmanager

from ctrz import chartab, cli, datasets, dixon, perm, pipeline, tensor

_MODULES = {"chartab": chartab, "cli": cli, "datasets": datasets,
            "dixon": dixon, "perm": perm, "pipeline": pipeline,
            "tensor": tensor}

LAYERS = ("perm", "dixon", "chartab", "datasets", "tensor", "pipeline", "cli")


def _orbit_name(args, kwargs):
    return f"perm.orbit_count_tuples[{kwargs.get('method', 'burnside')}]"


# Counters noted at the boundary from arguments and results.  Product
# counts are cyclotomic-by-cyclotomic multiplications the call performs by
# construction, from the table rank r: validate forms r^2 (r+1) products,
# the transition matrix 3 r^3 + 2 r^2 (Gauss-Jordan inverse, then
# X diag(chi) X^-1), decompose r^2, and a k-th power per class
# bit_length(k) + popcount(k).

def _note_elements(c, args, kwargs, result):
    c["perm.elements"] += result.order


def _note_tuples(c, args, kwargs, result):
    if kwargs.get("method") == "direct":
        c["perm.tuples"] += args[0].degree ** args[1]


def _note_prime(c, args, kwargs, result):
    c["dixon.prime"] = max(c["dixon.prime"], args[1])


def _note_conductor(c, args, kwargs, result):
    c["dixon.conductor"] = max(c["dixon.conductor"], args[2])


def _note_validate(c, args, kwargs, result):
    r = args[0].size
    c["exact.products"] += r * r * (r + 1)


def _note_transition(c, args, kwargs, result):
    r = args[1].size
    c["exact.products"] += 3 * r ** 3 + 2 * r * r


def _note_decompose(c, args, kwargs, result):
    c["exact.products"] += args[1].size ** 2


def _note_power(c, args, kwargs, result):
    k = args[2]
    c["exact.products"] += args[1].size * (k.bit_length() + bin(k).count("1"))


def _note_findings(c, args, kwargs, result):
    c["chartab.findings"] += len(result.errata.findings)


# (module, attribute, span name, note).  A name may be a function of the
# call's arguments.
POINTS = [
    ("pipeline", "FiniteGroup", "perm.FiniteGroup", _note_elements),
    ("pipeline", "ClassSet", "perm.ClassSet", None),
    ("perm", "orbit_count_tuples", _orbit_name, _note_tuples),
    ("pipeline", "compute_character_table", "dixon.compute_character_table", None),
    ("dixon", "class_constants", "dixon.class_constants", None),
    ("dixon", "common_eigenbasis", "dixon.common_eigenbasis", _note_prime),
    ("dixon", "lift_character_values", "dixon.lift_character_values",
     _note_conductor),
    ("dixon", "validate", "chartab.validate", _note_validate),
    ("cli", "validate", "chartab.validate", _note_validate),
    ("pipeline", "match_columns", "chartab.match_columns", _note_findings),
    ("cli", "match_columns", "chartab.match_columns", _note_findings),
    ("cli", "load_table", "chartab.load_table", None),
    ("chartab", "table_to_dict", "chartab.table_to_dict", None),
    ("cli", "table_to_dict", "chartab.table_to_dict", None),
    ("datasets", "transcription_table", "datasets.transcription_table", None),
    ("cli", "builtin_analysis", "pipeline.builtin_analysis", None),
    ("tensor", "transition_matrix", "tensor.transition_matrix", _note_transition),
    ("tensor", "agreed_multiplicities", "tensor.agreed_multiplicities", None),
    ("tensor", "multiplicities_direct", "tensor.multiplicities_direct",
     _note_power),
    ("tensor", "multiplicities_recurrence", "tensor.multiplicities_recurrence",
     None),
    ("tensor", "decompose", "chartab.decompose", _note_decompose),
    ("tensor", "closed_form_multiplicities",
     "tensor.closed_form_multiplicities", None),
    ("tensor", "dims_row", "tensor.dims_row", None),
    ("cli", "main", "cli.main", None),
]

# per-layer time metric -> the span whose inclusive time it sums
SPAN_METRICS = {
    "perm.enumerate_s": "perm.FiniteGroup",
    "perm.classes_s": "perm.ClassSet",
    "perm.orbits_burnside_s": "perm.orbit_count_tuples[burnside]",
    "perm.orbits_direct_s": "perm.orbit_count_tuples[direct]",
    "dixon.table_s": "dixon.compute_character_table",
    "dixon.class_constants_s": "dixon.class_constants",
    "dixon.eigensplit_s": "dixon.common_eigenbasis",
    "dixon.lift_s": "dixon.lift_character_values",
    "chartab.validate_s": "chartab.validate",
    "chartab.match_s": "chartab.match_columns",
    "chartab.load_s": "chartab.load_table",
    "tensor.transition_s": "tensor.transition_matrix",
    "tensor.direct_s": "tensor.multiplicities_direct",
    "tensor.recurrence_s": "tensor.multiplicities_recurrence",
    "tensor.closed_form_s": "tensor.closed_form_multiplicities",
    "tensor.dims_s": "tensor.dims_row",
    "datasets.transcription_s": "datasets.transcription_table",
    "pipeline.analysis_s": "pipeline.builtin_analysis",
    "cli.main_s": "cli.main",
}

# counters the notes above keep
COUNT_METRICS = ("perm.elements", "perm.tuples", "dixon.conductor",
                 "dixon.prime", "chartab.findings", "exact.products")


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counters: Counter = Counter()
        self.op: str | None = None
        self._stack: list[int] = []

    def wrap(self, fn, name, note):
        def traced(*args, **kwargs):
            span = {"name": name(args, kwargs) if callable(name) else name,
                    "start": time.perf_counter(), "end": None,
                    "parent": self._stack[-1] if self._stack else None,
                    "op": self.op}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if note is not None:
                note(self.counters, args, kwargs, result)
            return result
        return traced

    @contextmanager
    def installed(self):
        """Wrap every instrumentation point for the duration of a pass."""
        saved = []
        try:
            for module, attr, name, note in POINTS:
                mod = _MODULES[module]
                original = getattr(mod, attr)
                saved.append((mod, attr, original))
                setattr(mod, attr, self.wrap(original, name, note))
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)


def pass_metrics(spans: list[dict], first: int, op_seconds: float) -> dict:
    """Inclusive time per span metric and self time per layer for the
    spans of one pass, which start at index ``first`` of the run's span
    list.  Time inside ops but outside every span is the harness's own
    (argument building, output capture, checks)."""
    inclusive = Counter()
    children = Counter()
    for span in spans:
        inclusive[span["name"]] += span["end"] - span["start"]
        if span["parent"] is not None:
            children[span["parent"]] += span["end"] - span["start"]
    own = Counter()
    top = 0.0
    for i, span in enumerate(spans, start=first):
        duration = span["end"] - span["start"]
        own[span["name"]] += duration - children[i]
        if span["parent"] is None:
            top += duration
    out = {metric: inclusive[name] for metric, name in SPAN_METRICS.items()}
    # the recurrence's integer matrix products alone, without the
    # chartab.decompose of the permutation character it starts from
    out["tensor.recurrence_own_s"] = own["tensor.multiplicities_recurrence"]
    for layer in LAYERS:
        out[f"self.{layer}_s"] = sum(t for name, t in own.items()
                                     if name.split(".")[0] == layer)
    out["self.harness_s"] = op_seconds - top
    out["trace.spans"] = len(spans)
    return out


def median_metrics(per_pass: list[dict]) -> dict:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
