"""ctrz benchmark: one workload per run, each in its own process.

    python3 perfbench/run.py --workload tables-groups --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50

Run from the root of a checkout; ctrz is imported from ``src``.  For one
workload the last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Lines before it report the known-defect probes by name and the failure
fraction.  ``--workload all`` runs every workload once and prints each
end-to-end metric by name and unit.

set-up: the workload's set-up runs in five separate processes, each timed
from launch to its ready line.  The third goes on to measure, so two
set-ups come before the timed passes and two after them.  The reference
loop (reference.py) is timed here right before each launch and in the
worker right after its set-up; setup_s is the median of the five set-up
times, each scaled to the reference speed by the mean of its two
reference times.  Processes run one after another, never at once.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time

from reference import REF_S, reference_seconds

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("tables-groups", "tensor-reconcile")
SETUP_BEFORE = SETUP_AFTER = 2
SETUP_TIMEOUT = 60.0
PROBE_TIMEOUT = 60.0


class BenchError(Exception):
    pass


def spawn(args: list[str], timeout: float) -> tuple[float | None, dict]:
    """Run one worker.  Returns the seconds from launch to its ready line
    (None if it printed none) and its JSON events by kind."""
    start = time.perf_counter()
    # a fixed hash seed keeps set and dict orders, and so the work, the
    # same from run to run
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.Popen([sys.executable, WORKER] + args, cwd=ROOT,
                            env=env, stdout=subprocess.PIPE, text=True)
    ready_at, events = None, {}
    try:
        deadline = start + timeout
        while True:
            left = deadline - time.perf_counter()
            if left <= 0:
                raise BenchError(f"worker {args} timed out after {timeout} s")
            readable, _, _ = select.select([proc.stdout], [], [], left)
            if not readable:
                continue
            line = proc.stdout.readline()
            if not line:
                break
            event = json.loads(line)
            if event["event"] == "ready" and ready_at is None:
                ready_at = time.perf_counter() - start
            events[event["event"]] = event
        code = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0:
        raise BenchError(f"worker {args} exited with code {code}")
    return ready_at, events


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict:
    base = ["--workload", name, "--seed", str(seed)]
    setups = []

    def set_up(mode: list[str], timeout: float) -> dict:
        before = reference_seconds()
        ready, events = spawn(base + mode, timeout)
        if ready is None or "reference" not in events:
            raise BenchError(f"{name}: worker {mode} did not set up")
        after = events["reference"]["seconds"]
        setups.append((ready, 2 * REF_S / (before + after)))
        return events

    # a traced run reports no setup_s, so it skips the set-up-only runs
    for _ in range(0 if trace else SETUP_BEFORE):
        set_up(["--mode", "setup"], SETUP_TIMEOUT)
    events = set_up(["--mode", "measure", "--seconds", str(seconds),
                     "--trace", str(trace)], SETUP_TIMEOUT + seconds + 60)
    if "result" not in events:
        raise BenchError(f"{name}: measuring worker returned no result")
    for _ in range(0 if trace else SETUP_AFTER):
        set_up(["--mode", "setup"], SETUP_TIMEOUT)
    _, probes = spawn(base + ["--mode", "probe"], PROBE_TIMEOUT)
    result = events["result"]
    result["setup_s"] = statistics.median(t * k for t, k in setups)
    result["measured_setup_s"] = statistics.median(t for t, _ in setups)
    result["probes"] = probes["probes"]["probes"]
    return result


def load_metrics() -> dict:
    """Metric names and units by trace mode, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}


def metrics_of(result: dict, units: dict) -> dict:
    values = result["per_layer"] if "per_layer" in result else result
    return {name: {"value": values[name], "unit": unit}
            for name, unit in units.items()}


def describe(name: str, result: dict) -> list[str]:
    lines = []
    for probe in result["probes"]:
        detail = ", ".join(f"{k}={v}" for k, v in probe.items()
                           if k not in ("name", "status"))
        lines.append(f"probe {probe['name']}: {probe['status']} ({detail})")
    frac = result["failed"] / result["attempted"]
    lines.append(f"{name}: fail_frac {frac:.6f} ratio "
                 f"({result['failed']} of {result['attempted']} ops failed)")
    for failure in result["failures"]:
        lines.append(f"{name}: failed op {failure}")
    lines.append(f"{name}: {result['passes']} timed passes, slowest op "
                 f"{result['slowest_op']}")
    lines.append(f"{name}: as measured, pass {result['measured_pass_s']:.4f} s,"
                 f" set-up {result['measured_setup_s']:.4f} s; reference loop "
                 f"{result['reference_ms']:.4f} ms")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # on SIGTERM unwind normally, so spawn() stops and reaps its worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    if not os.path.isdir(os.path.join(ROOT, "src", "ctrz")):
        print(f"error: no ctrz sources under {ROOT}/src", file=sys.stderr)
        return 2
    units = load_metrics()[args.trace]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {n: run_workload(n, args.seed, args.seconds, args.trace)
                   for n in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for n, result in results.items():
        for line in describe(n, result):
            print(line)
        if args.workload == "all":
            for key, m in metrics_of(result, units).items():
                print(f"{n}: {key} {m['value']:.6g} {m['unit']}")
    if args.workload == "all":
        return 0 if all(r["failed"] == 0 for r in results.values()) else 1
    result = results[args.workload]
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics_of(result, units),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
