"""Tests of the benchmark itself, on shortened versions of each workload.

Run from the repository root::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import perf_workloads  # noqa: E402
import run as bench  # noqa: E402
from perf_tracing import (  # noqa: E402
    PER_LAYER,
    Tracer,
    analysis_metrics,
    simulation_metrics,
)

SIMULATIONS = ("churn-sparse-16x16", "service-dense-4x4", "chaos-4x4")

#: Counts that depend only on the inputs, never on host speed.
DETERMINISTIC = (
    "engine.executed_cycles", "engine.skipped_cycles",
    "engine.run_entries", "engine.probes", "engine.watcher_steps",
    "router.steps", "host.steps", "tree.select_calls", "tree.evaluations",
    "control.calls", "channels.establish_calls", "network.send_calls",
    "faults.links_detected", "faults.tc_retransmitted",
)


def traced(workload, seed):
    tracer, result, __ = bench.traced_op(workload, seed, {}, bench.Tally())
    return tracer, result


def layer_metrics(workload, seed):
    tracer, result = traced(workload, seed)
    run_s = sum(result.op_seconds)
    if workload.kind == "simulation":
        return simulation_metrics(tracer, result.session, run_s), result
    return analysis_metrics(tracer, result, run_s), result


@pytest.mark.parametrize("name", SIMULATIONS)
def test_deterministic_counts_repeat(name):
    workload = perf_workloads.get(name, shortened=True)
    first, __ = layer_metrics(workload, workload.seeds[0])
    second, __ = layer_metrics(workload, workload.seeds[0])
    assert first["engine.probes"] > 0 and first["router.steps"] > 0
    assert ({key: first[key] for key in DETERMINISTIC}
            == {key: second[key] for key in DETERMINISTIC})


def test_analyze_counts_repeat():
    workload = perf_workloads.get("analyze-sweep-8x8", shortened=True)
    first, __ = layer_metrics(workload, workload.seeds[0])
    second, __ = layer_metrics(workload, workload.seeds[0])
    assert first["analyze.calls"] == second["analyze.calls"] == 4
    assert first["analyze.reject_ratio"] == second["analyze.reject_ratio"]


@pytest.mark.parametrize("name", SIMULATIONS + ("analyze-sweep-8x8",))
def test_traced_outputs_match_untraced(name):
    workload = perf_workloads.get(name, shortened=True)
    seed = workload.seeds[0]
    plain = workload.run(workload.setup(seed))
    tracer, result = traced(workload, seed)
    assert result.outputs == plain.outputs
    if workload.kind == "simulation":
        assert (bench.deterministic_counters(result.session)
                == bench.deterministic_counters(plain.session))


@pytest.mark.parametrize("name", SIMULATIONS)
def test_every_engine_component_is_wrapped(name):
    workload = perf_workloads.get(name, shortened=True)
    session = workload.setup(workload.seeds[0])
    tracer = Tracer()
    tracer.attach_simulation(session)
    try:
        wrapped = {id(owner) for owner, attr, __ in tracer._undo
                   if attr == "step"}
        components = session.network.engine._components
        assert wrapped == {id(component) for component in components}
        # A wrapper never adds an attribute the engine looks up.
        for component in components:
            assert (hasattr(type(component), "next_event_cycle")
                    == hasattr(component, "next_event_cycle"))
    finally:
        tracer.detach()
    for component in session.network.engine._components:
        assert "step" not in vars(component)


def test_self_times_add_up_to_run_time():
    workload = perf_workloads.get("service-dense-4x4", shortened=True)
    metrics, result = layer_metrics(workload, workload.seeds[0])
    run_s = sum(result.op_seconds)
    covered = sum(value for name, value in metrics.items()
                  if name.startswith("self_s."))
    assert covered == pytest.approx(run_s, rel=1e-6)
    assert metrics["self_s.unattributed"] < 0.2 * run_s
    assert set(metrics) == set(PER_LAYER) - {"trace.overhead_ratio"}


def test_reference_mismatch_fails_the_operation():
    outputs = [{"signature": "a"}, {"signature": "b"}]
    assert perf_workloads.check_outputs(outputs, outputs) == [None, None]
    verdicts = perf_workloads.check_outputs(
        outputs, [{"signature": "a"}, {"signature": "c"}])
    assert verdicts[0] is None and verdicts[1] is not None
    assert all(perf_workloads.check_outputs(outputs, None))


def test_recorded_references_cover_every_panel_seed():
    references = bench.load_references()
    for name, workload in perf_workloads.WORKLOADS.items():
        assert len(workload.seeds) == 2
        for seed in workload.seeds:
            assert references[name][str(seed)]


def test_churn_sparse_counts_at_default_seed():
    """The full workload reproduces the counts its definition cites."""
    workload = perf_workloads.get("churn-sparse-16x16")
    metrics, result = layer_metrics(workload, workload.seeds[0])
    assert metrics["engine.probes"] == 834_272
    assert metrics["engine.executed_cycles"] == 14_924
    assert metrics["engine.run_entries"] == 1_105  # 1,104 slots + drain
    references = bench.load_references()
    assert result.outputs == references[workload.name][
        str(workload.seeds[0])]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chaos-4x4",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert completed.returncode != 0
    assert completed.stdout == ""


def test_benchmark_json_names_what_the_run_prints():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert ([entry["name"] for entry in declared["workloads"]]
            == list(perf_workloads.DECLARED))
    assert set(perf_workloads.DECLARED) <= set(perf_workloads.WORKLOADS)
    assert ({entry["name"]: entry["unit"] for entry in declared["end_to_end"]}
            == bench.END_TO_END)
    assert ({entry["name"]: entry["unit"] for entry in declared["per_layer"]}
            == PER_LAYER)
