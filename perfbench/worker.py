"""One workload process: set up, then run passes, and report as JSON lines.

Started by run.py from the root of a checkout.  It prints
``{"event": "ready"}`` the moment set-up ends, which is when run.py stops
the set-up clock it started before launching this process.  In measure
mode it then runs passes over the workload's op list for the given number
of seconds, one op at a time on one thread (a closed loop with a single
client), and prints one ``{"event": "result", ...}`` line.  In probe mode
it runs the known-defect probes instead.

Times are reported at the reference speed (see reference.py): the
reference loop runs before every op and after the last, and each op's
seconds are scaled by REF_S over the mean of the two reference times
around it.  The seconds as measured are reported alongside.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from ctrz import pipeline  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from facts import GROUPS, totient  # noqa: E402
from reference import REF_S, reference_seconds, timed_reference  # noqa: E402

OUT_DIR = os.path.join(HERE, "out")
MUL_CONDUCTORS = (84, 168, 420)


def emit(stream, obj) -> None:
    stream.write(json.dumps(obj) + "\n")
    stream.flush()


def speed(result: dict) -> float:
    """The factor that scaled a pass's seconds to the reference speed."""
    return sum(result["scaled"]) / sum(result["times"])


def run_pass(w, tracer=None) -> dict:
    """Every op once, with a reference() call before each op and after
    the last.  Returns op seconds as measured and at the reference speed,
    reference seconds and failures."""
    gc.collect()
    times, refs, failures = [], [], []
    for op in w.ops:
        refs.append(timed_reference())
        if tracer is not None:
            tracer.op = op.name
        start = time.perf_counter()
        try:
            op.fn()
        except Exception as exc:  # every failing op is counted, never fatal
            failures.append(f"{op.name}: {type(exc).__name__}: {exc}")
        times.append(time.perf_counter() - start)
    refs.append(timed_reference())
    scaled = [t * 2 * REF_S / (before + after)
              for t, before, after in zip(times, refs, refs[1:])]
    return {"times": times, "scaled": scaled, "refs": refs,
            "failures": failures}


def busiest_cells(table):
    """The two values of a table with the most nonzero coefficients, a
    product operand pair representative of the table's own arithmetic."""
    cells = [v for row in table.values for v in row]
    cells.sort(key=lambda v: -sum(1 for c in v.coeffs if c))
    return cells[0], cells[1]


def mul_microseconds(w) -> dict:
    """One Cyclotomic product per conductor, on values from the
    workload's own tables, at the reference speed; 0 where the workload
    has no such table."""
    out = {}
    for e in MUL_CONDUCTORS:
        table = next((t for t in w.tables.values() if t.conductor == e), None)
        if table is None:
            out[f"exact.mul_us.c{e}"] = 0.0
            continue
        a, b = busiest_cells(table)
        reps = 100
        samples = []
        for _ in range(5):
            start = time.perf_counter()
            for _ in range(reps):
                a * b
            samples.append((time.perf_counter() - start) / reps * 1e6)
        out[f"exact.mul_us.c{e}"] = (statistics.median(samples)
                                     * REF_S / reference_seconds())
    return out


def width_ratio(w) -> float:
    """Useful over carried coefficients: phi(character-field conductor)
    over phi(table conductor), summed over the workload's tables."""
    useful = sum(totient(GROUPS[name]["field"]) for name in w.tables)
    carried = sum(totient(t.conductor) for t in w.tables.values())
    return useful / carried if carried else 0.0


def measure(w, seconds: float, trace: bool, trace_path: str) -> dict:
    attempted = 0
    failures = []
    untraced, traced = [], []
    tracer = tracing.Tracer() if trace else None
    layer_passes = []
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        use_trace = trace and i % 2 == 1
        if use_trace:
            first = len(tracer.spans)
            tracer.counters.clear()
            w.output_bytes = 0
            cache_before = pipeline.builtin_analysis.cache_info()
            with tracer.installed():
                result = run_pass(w, tracer)
            cache_after = pipeline.builtin_analysis.cache_info()
            metrics = tracing.pass_metrics(tracer.spans[first:], first,
                                           sum(result["times"]))
            for name in metrics:
                if name.endswith("_s"):
                    metrics[name] *= speed(result)
            for name in tracing.COUNT_METRICS:
                metrics[name] = tracer.counters[name]
            metrics["pipeline.cache_hits"] = cache_after.hits - cache_before.hits
            metrics["pipeline.cache_misses"] = (cache_after.misses
                                                - cache_before.misses)
            metrics["cli.output_bytes"] = w.output_bytes
            layer_passes.append(metrics)
            traced.append(result)
        else:
            result = run_pass(w)
            untraced.append(result)
        attempted += len(result["times"])
        failures += result["failures"]
        i += 1
        # start a pass only if a typical one ends by the deadline
        typical = statistics.median(sum(r["times"]) for r in untraced + traced)
        if (time.perf_counter() + typical > deadline
                and (not trace or traced)):
            break
    op_medians = [statistics.median(r["scaled"][i] for r in untraced)
                  for i in range(len(w.ops))]
    out = {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:10],
        "passes": len(untraced),
        "pass_s": statistics.median(sum(r["scaled"]) for r in untraced),
        # the op slowest by its median over passes, and that median
        "slowest_op_s": max(op_medians),
        "measured_pass_s": statistics.median(sum(r["times"])
                                             for r in untraced),
        "reference_ms": statistics.median(t for r in untraced
                                          for t in r["refs"]) * 1e3,
        "slowest_op": w.ops[op_medians.index(max(op_medians))].name,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if trace:
        layers = tracing.median_metrics(layer_passes)
        layers.update(mul_microseconds(w))
        layers["exact.width_ratio"] = width_ratio(w)
        layers["trace.overhead_s"] = (
            statistics.median(sum(r["scaled"]) for r in traced)
            - out["pass_s"])
        out["per_layer"] = layers
        out["traced_passes"] = len(traced)
        os.makedirs(os.path.dirname(trace_path), exist_ok=True)
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"workload": w.name, "spans": tracer.spans}, fh)
        out["trace_file"] = os.path.relpath(trace_path, ROOT)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--mode", choices=["setup", "measure", "probe"],
                        default="measure")
    args = parser.parse_args(argv)
    stream = sys.stdout
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.mode == "probe":
            probes = [workloads.probe_m11_table(args.seed, workdir)]
            emit(stream, {"event": "probes", "probes": probes})
            return 0
        w = workloads.build(args.workload, args.seed, workdir)
        emit(stream, {"event": "ready"})
        emit(stream, {"event": "reference", "seconds": reference_seconds()})
        if args.mode == "setup":
            return 0
        trace_path = os.path.join(
            OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        result = measure(w, args.seconds, bool(args.trace), trace_path)
        emit(stream, dict(result, event="result"))
        return 0
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
