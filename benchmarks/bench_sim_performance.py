"""Simulator performance: cycles/second of the two fidelity levels.

Not a paper result — housekeeping numbers for users planning
experiments: how fast the cycle-accurate chip and the slot-level model
advance, idle and loaded, the speedup of the slot model, and the
speedup of the engine's idle-cycle fast-forward path on an idle-heavy
mesh workload.
"""

import dataclasses
import time

from conftest import fmt_table

from repro.channels.spec import TrafficSpec
from repro.core import RealTimeRouter, RouterParams, TimeConstrainedPacket, port_mask
from repro.core.ports import RECEPTION
from repro.model import SlotSimulator
from repro.network.network import MeshNetwork
from repro.traffic.generators import PeriodicSource


def loaded_router():
    router = RealTimeRouter(RouterParams())
    router.control.program_connection(0, 0, delay=30,
                                      port_mask=port_mask(RECEPTION))
    return router


def test_cycle_router_loaded_throughput(benchmark):
    router = loaded_router()
    state = {"next": 0}

    def run_chunk():
        # Keep a packet in flight while stepping 200 cycles.
        if router.tc_inject_backlog == 0:
            router.inject_tc(TimeConstrainedPacket(0, header_deadline=0))
        for _ in range(200):
            router.step()
        router.take_delivered()

    benchmark(run_chunk)


def test_cycle_router_idle_throughput(benchmark):
    router = RealTimeRouter(RouterParams())

    def run_chunk():
        for _ in range(200):
            router.step()

    benchmark(run_chunk)


def test_slot_simulator_throughput(benchmark, report):
    def run_loaded():
        sim = SlotSimulator()
        sim.add_channel("a", ["L0", "L1"], [8, 8],
                        [k * 8 for k in range(50)])
        sim.add_best_effort_backlog("L0")
        sim.run(500)
        return sim

    sim = benchmark(run_loaded)
    assert sim.deadline_misses() == 0

    report("sim_performance", fmt_table(["model", "granularity"], [
        ["core.router (RealTimeRouter)", "1 step = 1 byte cycle (20 ns)"],
        ["model.slotsim (SlotSimulator)", "1 step = 1 packet slot (400 ns)"],
    ]) + [
        "",
        "(see the pytest-benchmark table for measured steps/second; the",
        " slot model advances 20x more simulated time per step and does",
        " less work per step — typical end-to-end speedups are 20-100x)",
    ])


def _idle_heavy_mesh(fast_forward, cycles):
    """8x8 mesh, four low-rate time-constrained channels corner to
    corner: the fabric is idle for most of every period."""
    net = MeshNetwork(8, 8)
    net.engine.fast_forward = fast_forward
    slot = net.params.slot_cycles
    endpoints = [((0, 0), (7, 7)), ((7, 0), (0, 7)),
                 ((0, 7), (7, 0)), ((7, 7), (0, 0))]
    for index, (source, destination) in enumerate(endpoints):
        channel = net.establish_channel(
            source, destination, TrafficSpec(i_min=256), deadline=45,
            label=f"bench{index}",
        )
        net.attach_source(source, PeriodicSource(channel, period=256,
                                                 slot_cycles=slot))
    start = time.perf_counter()
    net.run(cycles)
    return net, time.perf_counter() - start


def _delivery_digest(net):
    """Delivery records minus ``packet_id`` (a process-global counter,
    so two runs in one process draw different ids)."""
    return [tuple(getattr(record, field.name)
                  for field in dataclasses.fields(record)
                  if field.name != "packet_id")
            for record in net.log.records]


def test_fast_forward_idle_heavy_speedup(report):
    """Acceptance gate: >= 3x on the idle-heavy workload, with a
    byte-identical simulation (same delivery records, same cycles)."""
    cycles = 20_000
    legacy, legacy_seconds = _idle_heavy_mesh(False, cycles)
    fast, fast_seconds = _idle_heavy_mesh(True, cycles)
    speedup = legacy_seconds / fast_seconds

    assert _delivery_digest(legacy) == _delivery_digest(fast)
    assert len(fast.log.records) > 0
    assert legacy.engine.cycle == fast.engine.cycle == cycles
    assert legacy.log.deadline_misses == fast.log.deadline_misses == 0
    assert fast.engine.cycles_fast_forwarded > cycles // 2
    assert speedup >= 3.0, (
        f"fast-forward speedup {speedup:.2f}x below the 3x floor "
        f"(legacy {legacy_seconds:.2f}s, fast {fast_seconds:.2f}s)"
    )

    report("fast_forward_speedup", fmt_table(
        ["engine", "seconds", "cycles stepped", "cycles skipped"], [
            ["per-cycle loop", f"{legacy_seconds:.2f}",
             legacy.engine.cycles_stepped,
             legacy.engine.cycles_fast_forwarded],
            ["fast-forward", f"{fast_seconds:.2f}",
             fast.engine.cycles_stepped,
             fast.engine.cycles_fast_forwarded],
        ]) + [
        "",
        f"workload: 8x8 mesh, 4 corner-to-corner TC channels, "
        f"period 256 ticks, {cycles} cycles",
        f"speedup: {speedup:.2f}x  (delivery records byte-identical)",
    ])


def _timed_churn(engine):
    """One timed 16x16 churn run under the given engine mode.

    The workload is the event scheduler's headline case: channels
    arrive, hold and depart across a large mesh, so *something* is
    always in flight (the exact engine's whole-fabric quiescence gate
    almost never opens) but activity is spatially sparse (most of the
    512 components are idle on any given cycle).
    """
    from repro.service import ServiceRunConfig, ServiceSession

    config = ServiceRunConfig(width=16, height=16, requests=16,
                              arrival_period_ticks=64, hold_ticks=20,
                              engine=engine)
    session = ServiceSession(config)
    net = session.network
    counts = {"probes": 0, "rebuilds": 0}
    # Deterministic work counters, counted by wrapping the instances
    # (the engine looks both methods up on the instance at call time).
    for component in [*net.routers.values(), *net.hosts.values()]:
        _count_calls(component, "next_event_cycle", counts, "probes")
    _count_calls(net.engine, "_event_full_requery", counts, "rebuilds")
    start = time.perf_counter()
    report = session.run()
    return session, report, time.perf_counter() - start, counts


def _count_calls(owner, name, counts, key):
    original = getattr(owner, name)

    def counted(*args):
        counts[key] += 1
        return original(*args)

    setattr(owner, name, counted)


def test_event_engine_loaded_churn_speedup(report):
    """Acceptance gate: the event scheduler is >= 5x faster than the
    exact engine on loaded churn over a 16x16 mesh (target 10x), with
    a byte-identical SLO report signature.  The event scheduler's work
    is gated deterministically too: its persistent queue is rebuilt
    once per run and probes at most 10 components per executed cycle."""
    rounds = 2
    ratios = []
    best = {"exact": None, "event": None}
    reports = {}
    engines = {}
    counts = {}
    for round_index in range(rounds):
        order = ["exact", "event"]
        if round_index % 2:
            order.reverse()
        seconds = {}
        for mode in order:
            session, slo_report, seconds[mode], counts[mode] = \
                _timed_churn(mode)
            reports[mode] = slo_report
            engines[mode] = session.network.engine
            if best[mode] is None or seconds[mode] < best[mode]:
                best[mode] = seconds[mode]
        ratios.append(seconds["exact"] / seconds["event"])
    speedup = max(ratios)

    # Byte-identical outcomes first, speed second.
    assert reports["exact"].signature() == reports["event"].signature()
    assert reports["event"].tc_delivered_total > 0
    event_engine = engines["event"]
    assert (event_engine.cycles_stepped
            + event_engine.cycles_fast_forwarded == event_engine.cycle)
    # Work gates: identical executed/skipped cycles to the scheduler
    # that rebuilt its queue at every run entry, one rebuild (the first
    # entry), and readiness pushed rather than polled.
    assert event_engine.cycles_stepped == 14_924
    assert event_engine.cycles_fast_forwarded == 7_156
    assert counts["event"]["rebuilds"] == 1
    probes_per_cycle = (counts["event"]["probes"]
                        / event_engine.cycles_stepped)
    assert probes_per_cycle <= 10, (
        f"{probes_per_cycle:.2f} probes per executed cycle (gate: <= 10)")
    # The exact engine was genuinely load-bound: it executed the vast
    # majority of cycles one by one...
    exact_engine = engines["exact"]
    assert exact_engine.cycles_stepped > exact_engine.cycle // 2
    # ...and judged on paired rounds, the scheduler clears the floor.
    assert speedup >= 5.0, (
        f"event-engine speedup {speedup:.2f}x below the 5x floor on "
        f"loaded churn (best exact {best['exact']:.2f}s, best event "
        f"{best['event']:.2f}s)"
    )

    report("event_engine_speedup", fmt_table(
        ["engine", "seconds (best)", "cycles stepped",
         "cycles skipped", "probes"], [
            ["exact (per-cycle loop)", f"{best['exact']:.2f}",
             exact_engine.cycles_stepped,
             exact_engine.cycles_fast_forwarded,
             counts["exact"]["probes"]],
            ["event (scheduler)", f"{best['event']:.2f}",
             event_engine.cycles_stepped,
             event_engine.cycles_fast_forwarded,
             counts["event"]["probes"]],
        ]) + [
        "",
        "workload: 16x16 mesh, 16 churning channel requests "
        "(arrival period 64 ticks, mean hold 20 ticks)",
        f"speedup: {speedup:.2f}x best paired round "
        "(gate: >= 5x; SLO report signatures byte-identical)",
        f"event probes per executed cycle: {probes_per_cycle:.2f} "
        "(gate: <= 10); queue rebuilds: 1 (gate: exactly 1)",
    ])


def _timed_idle_heavy(cycles, prepare=None):
    """One timed run of the idle-heavy mesh (fast-forward on)."""
    net = MeshNetwork(8, 8)
    slot = net.params.slot_cycles
    endpoints = [((0, 0), (7, 7)), ((7, 0), (0, 7)),
                 ((0, 7), (7, 0)), ((7, 7), (0, 0))]
    for index, (source, destination) in enumerate(endpoints):
        channel = net.establish_channel(
            source, destination, TrafficSpec(i_min=256), deadline=45,
            label=f"bench{index}",
        )
        net.attach_source(source, PeriodicSource(channel, period=256,
                                                 slot_cycles=slot))
    if prepare is not None:
        prepare(net)
    start = time.perf_counter()
    net.run(cycles)
    return net, time.perf_counter() - start


def test_disabled_tracer_overhead_within_bound(report):
    """Observability guard: with tracing installed-then-disabled (and
    the snapshotter removed), the hot path must stay within 5% of the
    plain fast-forward baseline — disabled instrumentation is one
    attribute test per emit site, nothing more."""
    cycles = 20_000

    def installed_then_disabled(net):
        net.enable_tracing()
        net.enable_snapshots(cycles // 4)
        net.disable_tracing()
        net.disable_snapshots()

    # Run the two configurations back to back within each round,
    # alternating which goes first, and judge each round on its own
    # ratio — so interpreter warmup, heap drift and ramping machine
    # load hit both configurations equally and a single quiet round
    # is enough to demonstrate the disabled path is free.
    ratios = []
    baseline = disabled = None
    baseline_net = disabled_net = None
    for round_index in range(4):
        order = ["baseline", "disabled"]
        if round_index % 2:
            order.reverse()
        seconds = {}
        for kind in order:
            if kind == "baseline":
                baseline_net, seconds[kind] = _timed_idle_heavy(cycles)
            else:
                disabled_net, seconds[kind] = _timed_idle_heavy(
                    cycles, prepare=installed_then_disabled)
        ratios.append(seconds["disabled"] / seconds["baseline"])
        baseline = min(baseline or seconds["baseline"], seconds["baseline"])
        disabled = min(disabled or seconds["disabled"], seconds["disabled"])

    assert _delivery_digest(baseline_net) == _delivery_digest(disabled_net)
    assert disabled_net.tracer is None
    overhead = min(ratios) - 1.0
    # 5% relative bound on the best round's paired ratio, plus a small
    # absolute epsilon so timer noise cannot flake the gate.
    assert overhead <= 0.05 or disabled <= baseline + 0.05, (
        f"disabled-tracer runs exceed 5% over the paired baseline in "
        f"every round (best ratio {min(ratios):.3f}, best times "
        f"disabled {disabled:.3f}s vs baseline {baseline:.3f}s)"
    )

    report("tracing_overhead", fmt_table(
        ["configuration", "seconds (best of 4)"], [
            ["fast-forward baseline", f"{baseline:.3f}"],
            ["tracer installed, disabled", f"{disabled:.3f}"],
        ]) + [
        "",
        f"workload: idle-heavy 8x8 mesh, {cycles} cycles",
        f"overhead: {overhead * 100:+.1f}% best paired round "
        f"(gate: +5% plus 50 ms epsilon)",
    ])
