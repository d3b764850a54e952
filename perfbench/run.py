"""The repository benchmark: one command, four seeded workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload churn-sparse-16x16 --seed 0 \\
        --seconds 44 --trace 0
    python3 perfbench/run.py --workload all          # every workload

``BENCHMARK.json`` declares three of the four workloads (see
``DECLARED`` in ``perf_workloads.py``).

``--trace 0`` measures the end-to-end metrics with no wrapper attached.
``--trace 1`` runs the workload's input once untraced and then traced,
checks that both give identical outputs and counters, and reports the
per-layer metrics (see ``perf_tracing.py``); spans go to
``perfbench/out/``.  ``--record`` re-records ``references.json``.

Every operation's output is compared with ``references.json``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 1 when any
operation failed (raised, missed a guaranteed deadline, or differed
from its reference) and 2 when the program under test is missing.

All load comes from this one process and thread, in a closed loop: the
next run or ``analyze`` call starts only after the previous returns.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import pathlib
import resource
import statistics
import subprocess
import sys
import time

from perf_tracing import (
    PER_LAYER,
    Tracer,
    analysis_metrics,
    median,
    quantile,
    simulation_metrics,
)
from perf_workloads import (
    WORKLOADS,
    ChaosWorkload,
    check_outputs,
    latency_summary,
    panel_order,
)

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCES = HERE / "references.json"
OUT = HERE / "out"

#: Timed set-ups before the operations start: at least
#: ``SETUP_REPEATS`` per panel seed, more while ``SETUP_SHARE`` of
#: ``--seconds`` lasts (each operation's own set-up adds one more sample).
SETUP_REPEATS = 3
SETUP_SHARE = 0.05

#: The end-to-end metrics every workload reports as JSON, with units.
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "accept_rate": "share",
}


def import_program() -> bool:
    """Put the checkout's ``src/`` first on the path; False if absent."""
    package = ROOT / "src" / "repro" / "__init__.py"
    if not package.is_file():
        return False
    sys.path.insert(0, str(ROOT / "src"))
    import repro

    return pathlib.Path(repro.__file__).resolve() == package.resolve()


def load_references() -> dict:
    if not REFERENCES.is_file():
        return {}
    return json.loads(REFERENCES.read_text())


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tally:
    """Attempted and failed operations, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list = []

    def add(self, verdicts: list) -> None:
        self.attempted += len(verdicts)
        for verdict in verdicts:
            if verdict is not None:
                self.failed += 1
                if len(self.reasons) < 5:
                    self.reasons.append(verdict)


def verdicts_for(workload, seed: int, result, references: dict) -> list:
    expected = references.get(workload.name, {}).get(str(seed))
    verdicts = check_outputs(result.outputs, expected)
    if result.guaranteed_misses:
        # A simulation run is one operation: a miss fails it.
        verdicts = [f"{result.guaranteed_misses} guaranteed deadline "
                    f"misses"] * len(verdicts)
    return verdicts


def run_checked(workload, seed: int, prepared, references, tally):
    """One ``run`` call; exceptions count as failed operations."""
    gc.collect()  # see time_setup
    try:
        result = workload.run(prepared)
    except Exception as exc:  # the benchmark must report, not crash
        expected = references.get(workload.name, {}).get(str(seed)) or [0]
        tally.add([f"raised {type(exc).__name__}: {exc}"] * len(expected))
        return None
    tally.add(verdicts_for(workload, seed, result, references))
    return result


def time_setup(workload, seed: int, samples: list):
    # Start every timed section from a collected heap, so garbage left
    # by the previous run does not land in this one's time.
    gc.collect()
    started = time.perf_counter()
    prepared = workload.setup(seed)
    samples.append(time.perf_counter() - started)
    return prepared


# -- the measured run (--trace 0) -----------------------------------------

def measure(workload, seed: int, deadline: float, references: dict):
    order = panel_order(workload, seed)
    tally = Tally()
    setup_samples = {input_seed: [] for input_seed in order}
    workload.setup(order[0])  # warm-up: imports and lazy tables
    setup_until = time.perf_counter() + SETUP_SHARE * (
        deadline - time.perf_counter())
    repeat = 0
    while repeat < SETUP_REPEATS or time.perf_counter() < setup_until:
        for input_seed in order:
            time_setup(workload, input_seed, setup_samples[input_seed])
        repeat += 1

    run_samples = {input_seed: [] for input_seed in order}
    op_samples, latencies = [], []
    cycles = misses = 0
    accept_per_seed = {}
    longest = 0.0
    for count in itertools.count():
        # The panel seeds take turns, so every run weighs the default
        # and the held-out input about equally.
        input_seed = order[count % len(order)]
        started = time.perf_counter()
        prepared = time_setup(workload, input_seed,
                              setup_samples[input_seed])
        result = run_checked(workload, input_seed, prepared, references,
                             tally)
        if result is not None:
            run_samples[input_seed].append(sum(result.op_seconds))
            op_samples += result.op_seconds
            latencies += result.tc_latencies
            cycles += result.simulated_cycles
            misses += result.guaranteed_misses
            if result.channels_requested:
                accept_per_seed[input_seed] = (
                    result.channels_admitted / result.channels_requested)
        # Free this run's session before the next set-up is timed.
        del prepared, result
        now = time.perf_counter()
        longest = max(longest, now - started)
        # Start another operation only if the longest one so far would
        # still end before the deadline.
        if count + 1 >= len(order) and now + longest > deadline:
            break

    # Each panel seed is summarised on its own and the summaries are
    # averaged, because the seeds' times differ: a median over both
    # seeds' samples mixed would sit on the edge between two clusters.
    # The host's speed drifts over tens of seconds rather than throwing
    # single outliers, so a run's mean is steadier than the median of a
    # handful of runs; set-ups are many and short, so they take the
    # median.
    run_per_seed = [statistics.fmean(samples)
                    for samples in run_samples.values() if samples]
    runs = sum(len(samples) for samples in run_samples.values())
    metrics = {
        "setup_s": statistics.fmean(
            median(samples) for samples in setup_samples.values()),
        "run_s": (statistics.fmean(run_per_seed) if run_per_seed
                  else 0.0),
        "peak_rss_mb": peak_rss_mb(),
        "accept_rate": (statistics.fmean(accept_per_seed.values())
                        if accept_per_seed else 0.0),
    }
    extra = {"runs": (runs, "count"),
             "guaranteed_misses": (misses, "count"),
             "failed_share": (tally.failed / max(1, tally.attempted),
                              "share")}
    run_total = sum(map(sum, run_samples.values()))
    if workload.kind == "simulation":
        extra["sim_cycles_per_s"] = (cycles / run_total if run_total
                                     else 0.0, "cycles/s")
        for name, value in latency_summary(latencies).items():
            extra[name] = (value, "cycles")
    else:
        extra["verdict_ms_p50"] = (1000 * median(op_samples), "ms")
        extra["verdict_ms_p95"] = (1000 * quantile(op_samples, 0.95), "ms")
        extra["verdicts"] = (len(op_samples), "count")
    rows = [(name, value, END_TO_END[name])
            for name, value in metrics.items()]
    rows += [(name, value, unit) for name, (value, unit) in extra.items()]
    return tally, metrics, rows


# -- the traced run (--trace 1) -------------------------------------------

def deterministic_counters(session) -> dict:
    """Counters a wrapper must never change (read from public state)."""
    net = session.network
    routers = net.routers.values()
    return {
        "cycle": net.cycle,
        "executed": net.engine.cycles_stepped,
        "skipped": net.engine.cycles_fast_forwarded,
        "tc_transmitted": sum(r.tc_transmitted for r in routers),
        "be_worms_routed": sum(r.be_worms_routed for r in routers),
        "tree_evaluations": sum(r.tree.evaluations for r in routers),
        "keys_computed": sum(r.tree.keys_computed for r in routers),
        "keys_reused": sum(r.tree.keys_reused for r in routers),
        "tc_delivered": net.log.tc_delivered,
        "be_delivered": net.log.be_delivered,
        "faults": net.fault_counters().as_dict(),
    }


def traced_setup(workload, tracer, seed: int):
    """Set up with channel establishment traced where it happens."""
    if isinstance(workload, ChaosWorkload):
        from repro.network.network import MeshNetwork

        with tracer.class_patch(MeshNetwork, "establish_channel",
                                "channels.establish"):
            return workload.setup(seed)
    return workload.setup(seed)


def traced_op(workload, seed: int, references: dict, tally):
    """One traced run; returns (tracer, result, run_s)."""
    tracer = Tracer()
    prepared = traced_setup(workload, tracer, seed)
    # Self-time accounting covers the run only, not the set-up.
    tracer.start_accounting()
    if workload.kind == "simulation":
        tracer.attach_simulation(prepared)
    else:
        tracer.attach_analysis()
    try:
        result = run_checked(workload, seed, prepared, references, tally)
    finally:
        tracer.detach()
    run_s = sum(result.op_seconds) if result is not None else 0.0
    return tracer, result, run_s


def trace(workload, seed: int, deadline: float, references: dict):
    input_seed = panel_order(workload, seed)[0]
    tally = Tally()
    plain = run_checked(workload, input_seed, workload.setup(input_seed),
                        references, tally)
    if plain is None:
        return tally, None, []
    plain_s = sum(plain.op_seconds)
    plain_counters = (deterministic_counters(plain.session)
                      if workload.kind == "simulation" else None)
    samples: list = []
    longest = 0.0
    while True:
        started = time.perf_counter()
        tracer, result, run_s = traced_op(workload, input_seed,
                                          references, tally)
        if result is None:
            return tally, None, []
        if result.outputs != plain.outputs:
            tally.add(["traced outputs differ from untraced outputs"])
        if workload.kind == "simulation":
            counters = deterministic_counters(result.session)
            if counters != plain_counters:
                tally.add([f"traced counters {counters} differ from "
                           f"untraced {plain_counters}"])
            metrics = simulation_metrics(tracer, result.session, run_s)
        else:
            metrics = analysis_metrics(tracer, result, run_s)
        metrics["trace.overhead_ratio"] = run_s / plain_s
        samples.append(metrics)
        now = time.perf_counter()
        longest = max(longest, now - started)
        if now + longest > deadline:
            break
    OUT.mkdir(exist_ok=True)
    tracer.write_spans(OUT / f"spans-{workload.name}-seed{seed}.json")
    metrics = {name: median([sample[name] for sample in samples])
               for name in PER_LAYER}
    rows = [(name, value, PER_LAYER[name]) for name, value in
            metrics.items()]
    rows.append(("untraced run_s", plain_s, "s"))
    rows.append(("traced runs", len(samples), "count"))
    return tally, metrics, rows


# -- recording references ---------------------------------------------------

def record(workload) -> dict:
    """Run every panel seed once and return its reference outputs."""
    entries = {}
    for input_seed in workload.seeds:
        result = workload.run(workload.setup(input_seed))
        if result.guaranteed_misses:
            raise SystemExit(f"{workload.name} seed {input_seed}: "
                             f"{result.guaranteed_misses} guaranteed "
                             f"misses; not a valid reference")
        entries[str(input_seed)] = result.outputs
        print(f"recorded {workload.name} seed {input_seed}: "
              f"{len(result.outputs)} outputs", flush=True)
    return entries


# -- command line -----------------------------------------------------------

def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    worst = 0
    for name in WORKLOADS:
        command = [sys.executable, str(pathlib.Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        completed = subprocess.run(command, check=False)
        worst = max(worst, completed.returncode)
    return worst


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=44.0,
                        help="the whole run, set-ups included, ends "
                             "within about this many seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="re-record references.json for --workload")
    args = parser.parse_args(argv)

    if not import_program():
        print(f"error: no repro package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.workload == "all" and not args.record:
        return run_all(args)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        parser.error(f"--workload must be 'all' or one of "
                     f"{', '.join(WORKLOADS)}")
    references = load_references()
    if args.record:
        for name in names:
            references[name] = record(WORKLOADS[name])
        REFERENCES.write_text(json.dumps(references, indent=1,
                                         sort_keys=True) + "\n")
        return 0

    workload = WORKLOADS[names[0]]
    deadline = started + args.seconds
    if args.trace:
        tally, metrics, rows = trace(workload, args.seed, deadline,
                                     references)
        units = PER_LAYER
    else:
        tally, metrics, rows = measure(workload, args.seed, deadline,
                                       references)
        units = END_TO_END
    if metrics is None:
        for reason in tally.reasons:
            print(f"FAILED: {reason}", file=sys.stderr)
        print(json.dumps({"correct": False,
                          "attempted": max(1, tally.attempted),
                          "failed": max(1, tally.failed), "metrics": {}}))
        return 1
    print(f"workload {workload.name} seed {args.seed} "
          f"trace {args.trace}")
    for name, value, unit in rows:
        print(f"  {name:<36} {value:>16.6g} {unit}")
    for reason in tally.reasons:
        print(f"FAILED: {reason}", file=sys.stderr)
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
