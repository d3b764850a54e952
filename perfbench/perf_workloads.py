"""The benchmark's four workloads: inputs, set-up, one run, outputs.

Every workload has a *panel* of two input seeds: the default seed (the
configuration the workload is named after) and one held-out seed.  The
reference outputs of both are recorded in ``references.json``, so every
operation is checked against a recorded result.  The benchmark's
``--seed`` picks which panel entry runs first; a measured run always
covers both entries equally (see ``run.py``).

An *operation* is one simulation run, or one analysed problem.  Each
workload exposes the same three calls:

* ``setup(input_seed)`` builds what one run needs (the timed set-up);
* ``run(prepared)`` performs the run and returns a :class:`RunResult`;
* ``shortened()`` returns a cheap variant for the benchmark's own tests.

The workloads import nothing outside the public ``repro`` API, and all
load comes from this one process and thread.  Every simulation uses the
production scheduler (``engine="event"``).
"""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import dataclass, field, replace
from typing import ClassVar, Optional


@dataclass
class RunResult:
    """What one ``run`` call produced, reduced to checkable numbers."""

    #: One output record per operation, compared with the references.
    outputs: list = field(default_factory=list)
    #: Host seconds per operation (analyse: one entry per problem).
    op_seconds: list = field(default_factory=list)
    simulated_cycles: int = 0
    #: TC delivery latencies in simulated cycles, duplicates excluded.
    tc_latencies: list = field(default_factory=list)
    guaranteed_misses: int = 0
    channels_admitted: int = 0
    channels_requested: int = 0
    #: The live session (simulation workloads) for counter reads.
    session: object = None


def tc_latencies(network) -> list:
    """TC delivery latencies from the delivery log, duplicates excluded."""
    return [record.latency_cycles for record in network.log.records
            if record.traffic_class == "TC" and not record.duplicate
            and record.latency_cycles is not None]


def latency_summary(latencies: list) -> dict:
    if not latencies:
        return {"tc_latency_p50_cycles": 0, "tc_latency_max_cycles": 0}
    return {"tc_latency_p50_cycles": statistics.median_low(latencies),
            "tc_latency_max_cycles": max(latencies)}


@dataclass(frozen=True)
class ServiceWorkload:
    """A churn service run: ``ServiceSession(ServiceRunConfig(...))``."""

    name: str
    why: str
    seeds: tuple
    width: int = 4
    height: int = 4
    requests: int = 200
    arrival_period_ticks: int = 4
    hold_ticks: int = 200
    kind: ClassVar[str] = "simulation"

    def config(self, seed: int):
        from repro.service.session import ServiceRunConfig

        return ServiceRunConfig(
            seed=seed, width=self.width, height=self.height,
            requests=self.requests,
            arrival_period_ticks=self.arrival_period_ticks,
            hold_ticks=self.hold_ticks, engine="event")

    def setup(self, seed: int):
        from repro.service.session import ServiceSession

        return ServiceSession(self.config(seed))

    def run(self, session) -> RunResult:
        started = time.perf_counter()
        report = session.run()
        elapsed = time.perf_counter() - started
        latencies = tc_latencies(session.network)
        return RunResult(
            outputs=[{"signature": report.signature(),
                      **latency_summary(latencies)}],
            op_seconds=[elapsed],
            simulated_cycles=session.network.cycle,
            tc_latencies=latencies,
            guaranteed_misses=report.tc_misses_guaranteed,
            channels_admitted=report.accepted_tc,
            channels_requested=report.tc_requests,
            session=session,
        )

    def shortened(self) -> "ServiceWorkload":
        return replace(self, requests=max(4, self.requests // 16))


@dataclass(frozen=True)
class ChaosWorkload:
    """A seeded chaos soak: ``ChaosSession(ChaosConfig(...))``."""

    name: str
    why: str
    seeds: tuple
    width: int = 4
    height: int = 4
    cycles: int = 12000
    kind: ClassVar[str] = "simulation"

    def config(self, seed: int):
        from repro.faults.harness import ChaosConfig

        return ChaosConfig(seed=seed, width=self.width,
                           height=self.height, cycles=self.cycles,
                           engine="event")

    def setup(self, seed: int):
        from repro.checkpoint.sessions import ChaosSession

        return ChaosSession(self.config(seed))

    def run(self, session) -> RunResult:
        started = time.perf_counter()
        report = session.run()
        elapsed = time.perf_counter() - started
        latencies = tc_latencies(session.network)
        rejected = sum(report.admission_rejects.values())
        return RunResult(
            outputs=[{"signature": report.signature(),
                      "invariant_failures": len(report.invariant_failures),
                      **latency_summary(latencies)}],
            op_seconds=[elapsed],
            simulated_cycles=session.network.cycle,
            tc_latencies=latencies,
            guaranteed_misses=report.deadline_misses_undegraded,
            channels_admitted=report.channels_established,
            channels_requested=report.channels_established + rejected,
            session=session,
        )

    def shortened(self) -> "ChaosWorkload":
        return replace(self, cycles=self.cycles // 4)


@dataclass(frozen=True)
class AnalyzeWorkload:
    """A closed loop of ``analyze`` calls over a sweep of problems.

    Problem ``i`` of a sweep draws from the random demand stream when
    ``i`` is even and from the adversarial stream when it is odd, with
    a per-problem seed drawn from the sweep seed.
    """

    name: str
    why: str
    seeds: tuple
    width: int = 8
    height: int = 8
    problems: int = 200
    channels: int = 128
    kind: ClassVar[str] = "analysis"

    def problem_seeds(self, seed: int) -> list:
        rng = random.Random(seed)
        return [rng.getrandbits(32) for __ in range(self.problems)]

    def setup(self, seed: int):
        from repro.schedulability import (
            TopologySpec,
            adversarial_channel_demands,
            random_channel_demands,
        )

        topology = TopologySpec(self.width, self.height)
        problems = []
        for index, problem_seed in enumerate(self.problem_seeds(seed)):
            generate = (random_channel_demands if index % 2 == 0
                        else adversarial_channel_demands)
            problems.append(generate(self.width, self.height,
                                     self.channels, problem_seed))
        return topology, problems

    def run(self, prepared) -> RunResult:
        # Looked up per run, so a traced run sees the tracer's wrapper.
        import repro.schedulability as schedulability

        analyze = schedulability.analyze
        topology, problems = prepared
        result = RunResult()
        clock = time.perf_counter
        for demands in problems:
            started = clock()
            report = analyze(topology, demands)
            result.op_seconds.append(clock() - started)
            result.outputs.append({"signature": report.signature()})
            result.channels_admitted += report.admitted
            result.channels_requested += len(report.channels)
        return result

    def shortened(self) -> "AnalyzeWorkload":
        return replace(self, problems=4)


WORKLOADS = {
    workload.name: workload for workload in (
        ServiceWorkload(
            name="churn-sparse-16x16",
            why=("16x16 mesh with 16 requests: sparse activity over 512 "
                 "components, so event-scheduler polling dominates"),
            seeds=(1234, 1235),
            width=16, height=16, requests=16,
            arrival_period_ticks=64, hold_ticks=20),
        ServiceWorkload(
            name="service-dense-4x4",
            why=("4x4 mesh with 300 requests: every router busy almost "
                 "every cycle, so router step and comparator tree dominate"),
            seeds=(3, 4),
            requests=300, arrival_period_ticks=2, hold_ticks=80),
        ChaosWorkload(
            name="chaos-4x4",
            why=("faults that hit channel paths: watcher steps force full "
                 "queue rebuilds, reroutes and TC retransmissions"),
            seeds=(1234, 3)),
        AnalyzeWorkload(
            name="analyze-sweep-8x8",
            why=("200 analyze calls of 128 channels on an 8x8 mesh, random "
                 "and adversarial: the only admission-heavy workload"),
            seeds=(0, 1)),
    )
}


#: The workloads ``BENCHMARK.json`` declares.  All runs of the declared
#: workloads share one time budget, and a shared 2-vCPU host's speed
#: drifts by 10-20% over tens of seconds, so each run needs about 44 s
#: to average the drift out; three workloads fit that budget, four do not.
#: ``service-dense-4x4`` is left out because its 9 s operations fit the
#: fewest in a run, and ``chaos-4x4`` already covers router-dominated
#: load.  It still runs with ``--workload service-dense-4x4`` or ``all``.
DECLARED = ("churn-sparse-16x16", "chaos-4x4", "analyze-sweep-8x8")


def get(name: str, shortened: bool = False):
    workload = WORKLOADS[name]
    return workload.shortened() if shortened else workload


def panel_order(workload, seed: int) -> list:
    """The panel seeds in the order a run with ``seed`` visits them."""
    first = seed % len(workload.seeds)
    return list(workload.seeds[first:] + workload.seeds[:first])


def check_outputs(outputs: list, expected: Optional[list]) -> list:
    """Per-operation verdicts: ``None`` when fine, else a reason."""
    if expected is None:
        return ["no recorded reference"] * len(outputs)
    if len(expected) != len(outputs):
        return ["reference length differs"] * len(outputs)
    return [None if got == want else f"output {got} != reference {want}"
            for got, want in zip(outputs, expected)]
