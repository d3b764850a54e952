#!/usr/bin/env bash
# Test pipeline: tier-1 suite, chaos job, benchmark smoke.
#
#   scripts/run_tests.sh                # all jobs
#   scripts/run_tests.sh tier1          # fast correctness suite only
#   scripts/run_tests.sh chaos          # seeded fault-injection soaks only
#   scripts/run_tests.sh bench          # benchmark smoke (writes results/)
#   scripts/run_tests.sh observability  # tracing/metrics suite + overhead gate
#   scripts/run_tests.sh campaign       # campaign runner/cache/determinism suite
#   scripts/run_tests.sh checkpoint     # checkpoint/restore suites + overhead gate
#   scripts/run_tests.sh service        # control-plane service suites + churn gate
#   scripts/run_tests.sh event          # event-scheduler equivalence + loaded speedup gate
#   scripts/run_tests.sh schedulability # analytic engine suites + tightness gate
#   scripts/run_tests.sh schedulability-faults # fault-aware verdicts + chaos gate
#   scripts/run_tests.sh perfbench      # tests of the repo benchmark harness
#
# The benchmark smoke step runs the fast-forward speedup gate — it
# fails the pipeline if the idle-cycle fast path drops below 3x on the
# idle-heavy workload — and refreshes benchmarks/results/.  The
# observability job runs the tracing/metrics/snapshot suites, the
# trace-replay acceptance test and the disabled-tracer overhead gate
# (within 5% of the plain fast-forward baseline).  The campaign job
# runs the sweep-runner suites (spec/cache/retry/kill-and-resume) plus
# the campaign scaling benchmark (cache-hit re-invocation gate always;
# the >=2x parallel speedup gate only on hosts with >=4 cores).  The
# checkpoint job runs the crash-consistent checkpoint/restore suites —
# byte-identical resume equivalence, the SIGKILL-and-resume CLI
# acceptance test — and the checkpoint overhead gate (within 5% of the
# plain run at the default 100k-cycle interval).  The service job runs
# the control-plane service suites — churn decision ladder, overload
# hysteresis, SLO determinism across fresh/resumed/spawned runs, the
# saturation acceptance test — plus the churn benchmark gate (>=1000
# setup requests with control-plane overhead <=10% of wall-clock).
# The event job runs the event-scheduler suites — byte-identical
# equivalence against the exact engine on loaded/chaos/churn runs
# (including cross-mode checkpoint resume), the next_event_cycle
# contract audit, firing-order determinism, accounting — and the
# loaded-churn speedup gate (>=5x on a 16x16 mesh, artefact written
# to benchmarks/results/event_engine_speedup.txt).
# The schedulability job runs the analytic-engine suites —
# engine/simulator admission agreement, the netcalc brute-force
# oracle, rollover edge cases, the observed<=predicted safety
# invariant on random and adversarial sets, campaign pre-filter
# skip/record/override semantics, service pre-admission — plus the
# schedulability benchmark gates (>=1 provably infeasible sweep cell
# skipped and recorded; every measured worst case at or under its
# bound; gap table written to
# benchmarks/results/schedulability_tightness.txt).
# The schedulability-faults job runs the fault-aware layer — fault-plan
# JSON round-trip and overlap semantics, verdict taxonomy and the
# derived recovery model, the chaos-tightness gate on both engines,
# the fault-plan CLI exit codes, the chaos-tightness campaign
# workload/pre-filter, the service intake screen — plus the
# degraded-tightness benchmark gate (every guaranteed or
# degraded-guaranteed channel inside its recovery envelope under real
# injected faults; artefact written to
# benchmarks/results/schedulability_degraded_tightness.txt).
# The perfbench job runs the benchmark harness's own tests on
# shortened workloads (outputs checked against references.json,
# traced and untraced runs agreeing on every deterministic counter),
# so an engine refactor cannot silently break the benchmark.

set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH=src

job="${1:-all}"

run_tier1() {
    echo "== tier-1: full correctness suite (chaos soaks excluded) =="
    python -m pytest -x -q -m "not chaos"
}

run_chaos() {
    echo "== chaos: seeded fault-injection soaks =="
    python -m pytest -q -m chaos
}

run_bench() {
    echo "== benchmark smoke: engine fast-forward speedup gate =="
    python -m pytest -q -p no:cacheprovider \
        "benchmarks/bench_sim_performance.py::test_fast_forward_idle_heavy_speedup"
}

run_observability() {
    echo "== observability: tracing/metrics suites + overhead gate =="
    python -m pytest -q \
        tests/observability \
        tests/network/test_delivery_duplicates.py \
        tests/network/test_engine_accounting.py \
        tests/integration/test_trace_replay.py \
        tests/test_reporting.py \
        tests/test_cli.py
    python -m pytest -q -p no:cacheprovider \
        "benchmarks/bench_sim_performance.py::test_disabled_tracer_overhead_within_bound"
}

run_campaign() {
    echo "== campaign: sweep runner, cache, determinism, kill/resume =="
    python -m pytest -q \
        tests/campaign \
        tests/test_reporting.py \
        tests/test_cli.py
    python -m pytest -q -p no:cacheprovider \
        benchmarks/bench_campaign_scaling.py
}

run_checkpoint() {
    echo "== checkpoint: resume equivalence, kill/resume, overhead gate =="
    python -m pytest -q \
        tests/checkpoint \
        tests/test_cli.py
    python -m pytest -q -p no:cacheprovider \
        benchmarks/bench_checkpoint.py
}

run_event() {
    echo "== event: scheduler equivalence suites + loaded speedup gate =="
    python -m pytest -q \
        tests/network/test_engine_accounting.py \
        tests/network/test_event_firing_order.py \
        tests/integration/test_fast_forward_equivalence.py \
        tests/integration/test_event_engine_equivalence.py \
        tests/integration/test_next_event_contract.py \
        tests/traffic/test_generators.py
    python -m pytest -q -p no:cacheprovider \
        "benchmarks/bench_sim_performance.py::test_event_engine_loaded_churn_speedup"
}

run_service() {
    echo "== service: churn, overload, SLO determinism + churn gate =="
    python -m pytest -q \
        tests/service \
        tests/channels/test_teardown_restore.py \
        tests/test_cli.py
    python -m pytest -q -p no:cacheprovider \
        benchmarks/bench_service_churn.py
}

run_schedulability() {
    echo "== schedulability: analytic verdicts, oracle, tightness gate =="
    python -m pytest -q \
        tests/schedulability \
        tests/analysis/test_netcalc_oracle.py \
        tests/service/test_preadmission.py \
        tests/test_cli.py
    python -m pytest -q -p no:cacheprovider \
        benchmarks/bench_schedulability.py
}

run_schedulability_faults() {
    echo "== schedulability-faults: fault-aware verdicts + chaos gate =="
    python -m pytest -q \
        tests/faults/test_plan.py \
        tests/faults/test_overlap.py \
        tests/schedulability/test_faultmodel.py \
        tests/schedulability/test_chaos_tightness.py \
        tests/campaign/test_chaos_tightness_workload.py \
        tests/service/test_fault_screen.py \
        tests/test_cli.py
    python -m pytest -q -p no:cacheprovider \
        "benchmarks/bench_schedulability.py::test_degraded_tightness_gap_is_quantified_and_safe"
}

run_perfbench() {
    echo "== perfbench: benchmark harness tests on shortened workloads =="
    python -m pytest -q perfbench/test_perfbench.py
}

case "$job" in
    tier1) run_tier1 ;;
    chaos) run_chaos ;;
    bench) run_bench ;;
    observability) run_observability ;;
    campaign) run_campaign ;;
    checkpoint) run_checkpoint ;;
    service) run_service ;;
    event) run_event ;;
    schedulability) run_schedulability ;;
    schedulability-faults) run_schedulability_faults ;;
    perfbench) run_perfbench ;;
    all)   run_tier1; run_chaos; run_bench; run_observability; run_campaign; run_checkpoint; run_service; run_event; run_schedulability; run_schedulability_faults; run_perfbench ;;
    *)     echo "unknown job '$job' (tier1|chaos|bench|observability|campaign|checkpoint|service|event|schedulability|schedulability-faults|perfbench|all)" >&2
           exit 2 ;;
esac
