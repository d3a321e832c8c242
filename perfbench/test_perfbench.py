"""Self-tests of the benchmark.  Run with

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import pytest  # noqa: E402

from ctrz import dixon, modp, perm, pipeline, tensor  # noqa: E402

import facts  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

# the smallest input of each part of a workload
SMALLEST = {
    "tables": dict(groups=("c2^3",)),
    "tensor": dict(groups=("psl(2,7)",), top=14),
    "reconcile": dict(checked=("s4",), shuffled=("s4",)),
    "groups": dict(groups=(("m11", 3),), ts=range(2, 4)),
}


def smallest(name: str, tmp_path) -> workloads.Workload:
    return workloads.build(name, 3, str(tmp_path), options=SMALLEST)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smallest_input_passes_untraced_and_traced(name, tmp_path):
    w = smallest(name, tmp_path)
    result = worker.measure(w, 0, trace=True,
                            trace_path=str(tmp_path / "trace.json"))
    assert result["failed"] == 0, result["failures"]
    assert result["attempted"] == 2 * len(w.ops)
    layers = result["per_layer"]
    assert layers["trace.spans"] > 0
    with open(tmp_path / "trace.json", encoding="utf-8") as fh:
        spans = json.load(fh)["spans"]
    assert all({"name", "start", "end", "parent", "op"} <= set(s) for s in spans)


def test_tracing_restores_every_patched_attribute():
    before = [getattr(tracing._MODULES[m], a) for m, a, _, _ in tracing.POINTS]
    with pytest.raises(RuntimeError):
        with tracing.Tracer().installed():
            raise RuntimeError("op failed")
    after = [getattr(tracing._MODULES[m], a) for m, a, _, _ in tracing.POINTS]
    assert before == after


def test_flipped_multiplicity_counts_as_failure(tmp_path, monkeypatch):
    w = smallest("tensor-reconcile", tmp_path)
    tensor_ops = [op.name for op in w.ops if " k=" in op.name]
    real = tensor.agreed_multiplicities

    def corrupted(*args, **kwargs):
        d = list(real(*args, **kwargs))
        d[-1] += 1
        return tuple(d)

    monkeypatch.setattr(tensor, "agreed_multiplicities", corrupted)
    result = worker.measure(w, 0, trace=False, trace_path="")
    assert result["attempted"] == len(w.ops)
    assert result["failed"] == len(tensor_ops) == SMALLEST["tensor"]["top"]
    assert all(f.startswith(tuple(tensor_ops)) and "CheckFailed" in f
               for f in result["failures"])


def test_wrong_exit_code_counts_as_failure(tmp_path, monkeypatch):
    w = workloads.Workload("reconcile")
    workloads.add_reconcile(w, 3, str(tmp_path), **SMALLEST["reconcile"])
    monkeypatch.setattr(workloads.cli, "main", lambda argv: 0)
    result = worker.measure(w, 0, trace=False, trace_path="")
    assert result["failed"] == result["attempted"] == len(w.ops)


def test_abelian_match_inputs_do_not_follow_the_seed(tmp_path):
    """The C2xC4 table and its shuffled copy are the same for every
    workload seed, so the factorial search costs the same in every run."""
    texts = []
    for seed in (1, 2):
        workdir = tmp_path / str(seed)
        workdir.mkdir()
        workloads.add_reconcile(workloads.Workload("reconcile"), seed,
                                str(workdir), **SMALLEST["reconcile"])
        texts.append([(workdir / f"c2xc4{suffix}.json").read_text()
                      for suffix in ("", "-shuffled")])
    assert texts[0] == texts[1]


def test_dixon_steps_compose_to_the_table():
    """The steps the traced run times separately, called in
    compute_character_table's order, give exactly its table."""
    spec = workloads.relabelled_spec("psl(2,7)", random.Random(5))
    a = pipeline.GroupAnalysis(spec)
    cs = a.class_set
    algebra = dixon.class_constants(cs)
    prime = modp.choose_prime(cs.exponent, a.group.order)
    lifted = dixon.lift_character_values(
        dixon.common_eigenbasis(algebra, prime), cs, cs.exponent)
    lifted.sort(key=lambda item: (item[0], tuple(
        tuple(-c for c in v.coeffs) for v in item[1])))
    table = dixon.compute_character_table(a.group, cs)
    assert [tuple(v.coeffs for v in values) for _, values in lifted] == \
        [tuple(v.coeffs for v in row) for row in table.values]


def test_traced_table_spans_nest_in_call_order(tmp_path):
    w = workloads.Workload("tables")
    workloads.add_tables(w, 3, str(tmp_path), groups=("psl(2,7)",))
    tracer = tracing.Tracer()
    with tracer.installed():
        worker.run_pass(w, tracer)
    spans = tracer.spans
    top = [i for i, s in enumerate(spans)
           if s["name"] == "dixon.compute_character_table"]
    assert len(top) == 1
    children = [s["name"] for s in spans if s["parent"] == top[0]]
    assert children == ["dixon.class_constants", "dixon.common_eigenbasis",
                        "dixon.lift_character_values", "chartab.validate"]


def test_own_time_excludes_child_spans():
    spans = [{"name": "tensor.multiplicities_recurrence", "start": 0.0,
              "end": 1.0, "parent": None, "op": "k>12"},
             {"name": "chartab.decompose", "start": 0.1, "end": 0.9,
              "parent": 0, "op": "k>12"}]
    m = tracing.pass_metrics(spans, 0, 1.25)
    assert m["tensor.recurrence_s"] == 1.0
    assert m["tensor.recurrence_own_s"] == pytest.approx(0.2)
    assert m["self.tensor_s"] == pytest.approx(0.2)
    assert m["self.chartab_s"] == pytest.approx(0.8)
    assert m["self.harness_s"] == pytest.approx(0.25)


def test_facts_are_self_consistent():
    for name, g in facts.GROUPS.items():
        assert sum(g["sizes"]) == g["order"], name
        assert sum(d * d for d in g["degrees"]) == g["order"], name
        assert len(g["sizes"]) == len(g["degrees"]), name
    assert [facts.bell(t) for t in range(1, 6)] == [1, 2, 5, 15, 52]


def test_relabelling_keeps_the_group():
    for seed in range(3):
        spec = workloads.relabelled_spec("psl(2,7)", random.Random(seed))
        gens = [perm.parse_cycles(g, spec["degree"]) for g in spec["generators"]]
        assert perm.FiniteGroup(gens).order == 168


def test_run_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, run.py exits non-zero
    and prints no result."""
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tables-groups",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
