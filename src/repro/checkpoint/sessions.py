"""Checkpointable simulation sessions.

A *session* owns everything a driving loop in :mod:`repro.faults.harness`
or :mod:`repro.campaign.workloads` used to keep in local variables — the
network, the workload RNG, the send/check schedules — so the whole run
can be captured in one :meth:`state` call and resumed byte-identically.

The segmentation rule
---------------------

The engine guarantees that ``run(a); run(b)`` is cycle-for-cycle
identical to ``run(a + b)`` (fast-forward jumps clamp at the run
target; see ``docs/performance.md``).  Sessions exploit exactly that:
the driving loop's *natural* spans (one packet slot for the chaos soak,
two ticks for the random workload) are split at checkpoint cycles, the
state is saved between the two ``run`` calls, and nothing else changes.
Workload conditions — sends, invariant checks — are only ever evaluated
at natural span boundaries, so a session restored mid-span first
finishes the span it was in (``span_end``) before re-entering the loop.

What a checkpoint captures: router microarchitecture, engine clock and
fast-forward counters, hosts and traffic sources, the channel software
(manager, admission, regulators), fault injection/detection/recovery
timers, the delivery log, metrics and the trace ring, and the workload
loop variables.  What it does not: metrics *snapshot emitters* and
custom :class:`~repro.network.service.ServiceTrace` hooks (re-enable
after restore), and the final ``drain()`` of the random workload, which
runs to quiescence and is cheap to redo.
"""

from __future__ import annotations

import random
from dataclasses import asdict
from typing import Optional

from repro.checkpoint.codec import (
    LoadContext,
    SaveContext,
    load_rng,
    rng_state,
)
from repro.checkpoint.store import CheckpointError, fingerprint_of
from repro.core.invariants import InvariantViolation, check_router_invariants

#: Default cycles between checkpoints (chosen so checkpointing costs
#: well under 5% on the benchmark workloads; see
#: ``benchmarks/bench_checkpoint.py``).
DEFAULT_CHECKPOINT_INTERVAL = 100_000


def default_chaos_plan(config):
    """The fault plan a chaos soak derives from its config alone."""
    from repro.faults.plan import FaultPlan

    return FaultPlan.random(
        config.seed, config.width, config.height,
        cuts=config.cuts, flaps=config.flaps,
        corruptions=config.corruptions, drops=config.drops,
        babblers=config.babblers,
        window=(config.cycles // 8, max(config.cycles // 8 + 1,
                                        config.cycles * 3 // 4)),
    )


class _SessionBase:
    """Shared span-driving, checkpoint-firing and invariant plumbing."""

    network = None  # set by subclasses
    span_end = 0
    check_every = 0
    _store = None
    _interval = 0

    def attach_store(self, store, interval: int) -> None:
        """Write a checkpoint every ``interval`` cycles to ``store``."""
        if store is not None and interval < 1:
            raise ValueError("checkpoint interval must be positive")
        self._store = store
        self._interval = interval if store is not None else 0

    def _run_span(self, target: int) -> None:
        """Advance the engine to ``target``, checkpointing on the way.

        ``span_end`` is committed before the first ``run`` call so a
        checkpoint taken inside the span records where the span ends;
        a restored session replays the remainder and only then
        re-evaluates workload conditions.
        """
        net = self.network
        self.span_end = target
        store, interval = self._store, self._interval
        if store is None:
            if net.cycle < target:
                net.run(target - net.cycle)
            return
        while net.cycle < target:
            next_ckpt = (net.cycle // interval + 1) * interval
            net.run(min(target, next_ckpt) - net.cycle)
            if net.cycle % interval == 0:
                store.save(net.cycle, self.state())

    def _check_invariants(self) -> None:
        for node, router in self.network.routers.items():
            try:
                check_router_invariants(router)
            except InvariantViolation as exc:
                self.invariant_failures.append(
                    f"cycle {self.network.cycle} {node}: {exc}")

    def state(self) -> dict:  # pragma: no cover - interface
        raise NotImplementedError


class ChaosSession(_SessionBase):
    """The seeded chaos soak, restructured around checkpoints.

    Construction reproduces :func:`repro.faults.harness.run_chaos_soak`
    setup verbatim (same RNG draw order, same engine component
    registration order); :meth:`run` reproduces its driving loop with
    the spans split per the module rule.  ``run_chaos_soak`` itself
    delegates here, so there is exactly one chaos code path.
    """

    KIND = "chaos"

    def __init__(self, config, plan=None, *,
                 check_every: Optional[int] = None,
                 _restore: bool = False) -> None:
        from repro.faults import install_fault_tolerance
        from repro.faults.harness import _establish_workload
        from repro.faults.injector import FaultInjector
        from repro.network.network import MeshNetwork

        self.config = config
        self.check_every = (config.invariant_check_every
                            if check_every is None else check_every)
        self.rng = random.Random(config.seed)
        self.network = MeshNetwork(config.width, config.height,
                                   on_memory_full="drop",
                                   engine=getattr(config, "engine",
                                                  "exact"))
        self.admission_rejects: dict[str, int] = {}
        if _restore:
            self.channels: list = []
        else:
            self.channels = _establish_workload(self.network, config,
                                                self.rng,
                                                self.admission_rejects)
        self.tolerance = install_fault_tolerance(self.network)
        if plan is None:
            plan = default_chaos_plan(config)
        self.plan = plan
        self.injector = FaultInjector(self.network, plan)
        self.network.engine.add_component(self.injector)
        self.nodes = list(self.network.mesh.nodes())
        if _restore:
            self.be_payloads: list[bytes] = []
        else:
            self.be_payloads = [
                bytes(self.rng.randrange(256) for __ in range(
                    self.rng.randrange(6, 24))) for __ in range(8)
            ]
        self.slot = self.network.params.slot_cycles
        self.period_cycles = config.message_period_ticks * self.slot
        self.invariant_failures: list[str] = []
        self.phase = "main"
        self.span_end = 0
        self.next_message = 0
        self.next_be = config.be_period_cycles
        self.next_check = self.check_every

    @classmethod
    def fingerprint_for(cls, config, plan=None) -> str:
        """Pin of every input that shapes a chaos run's behaviour."""
        if plan is None:
            plan = default_chaos_plan(config)
        config_dict = asdict(config)
        # Both engine modes produce byte-identical runs, so the mode is
        # not behaviour-shaping: dropping it keeps fingerprints of
        # pre-existing checkpoints valid and lets a run checkpointed in
        # one mode resume in the other.
        config_dict.pop("engine", None)
        return fingerprint_of({
            "workload": cls.KIND,
            "config": config_dict,
            "plan": plan.signature(),
        })

    def fingerprint(self) -> str:
        return self.fingerprint_for(self.config, self.plan)

    # -- driving ----------------------------------------------------------

    def run(self, *, store=None,
            interval: int = DEFAULT_CHECKPOINT_INTERVAL):
        """Run (or finish running) the soak; returns the ChaosReport."""
        self.attach_store(store, interval)
        net, config = self.network, self.config
        if net.cycle < self.span_end:
            self._run_span(self.span_end)
        if self.phase == "main":
            while net.cycle < config.cycles:
                if net.cycle >= self.next_message:
                    for channel in self.channels:
                        net.send_message(
                            channel,
                            payload=bytes([len(self.channels)]) * 4)
                    self.next_message += self.period_cycles
                if net.cycle >= self.next_be:
                    src, dst = self.rng.sample(self.nodes, 2)
                    net.send_best_effort(
                        src, dst, payload=self.rng.choice(self.be_payloads))
                    self.next_be += config.be_period_cycles
                if self.check_every > 0 and net.cycle >= self.next_check:
                    self._check_invariants()
                    self.next_check += self.check_every
                self._run_span(min(net.cycle + self.slot, config.cycles))
            self.phase = "settle"
        if self.phase == "settle":
            # Settle: no new messages; let retransmissions and drains
            # finish.
            self._run_span(config.cycles + config.settle_cycles)
            self._check_invariants()
            self.injector.detach()
            self.tolerance.detach()
            self.phase = "done"
        return self.report()

    def report(self):
        from repro.faults.harness import ChaosReport
        from repro.faults.injector import BABBLE_LABEL

        net = self.network
        degraded = sorted(net.manager.degraded_channels)
        misses_total = net.log.deadline_misses
        misses_undegraded = sum(
            1 for record in net.log.records
            if record.deadline_met is False
            and record.connection_label not in degraded
            and record.connection_label != BABBLE_LABEL
        )
        return ChaosReport(
            seed=self.config.seed,
            cycles=net.cycle,
            counters=net.fault_counters().as_dict(),
            tc_delivered=net.log.tc_delivered,
            be_delivered=net.log.be_delivered,
            deadline_misses_total=misses_total,
            deadline_misses_undegraded=misses_undegraded,
            degraded_labels=degraded,
            rerouted_count=net.fault_stats.channels_rerouted,
            invariant_failures=list(self.invariant_failures),
            channels_established=len(self.channels),
            faults_fired=len(self.injector.fired),
            latency={cls: histogram.state() for cls, histogram
                     in net.log.latency_histograms.items()},
            admission_rejects=dict(sorted(
                self.admission_rejects.items())),
        )

    # -- checkpointing -----------------------------------------------------

    def state(self) -> dict:
        ctx = SaveContext()
        state = {
            "phase": self.phase,
            "span_end": self.span_end,
            "next_message": self.next_message,
            "next_be": self.next_be,
            "next_check": self.next_check,
            "invariant_failures": list(self.invariant_failures),
            "admission_rejects": dict(sorted(
                self.admission_rejects.items())),
            "channel_labels": [channel.label
                               for channel in self.channels],
            "be_payloads": [payload.hex()
                            for payload in self.be_payloads],
            "rng": rng_state(self.rng),
            "network": self.network.state(ctx),
            "injector": self.injector.state(),
            "watchdog": self.tolerance.watchdog.state(),
            "controller": self.tolerance.controller.state(),
        }
        # Saved last: the meta table only becomes complete once every
        # component has registered its in-flight packets.
        state["metas"] = ctx.metas_state()
        return state

    @classmethod
    def restore(cls, config, state: dict, plan=None, *,
                check_every: Optional[int] = None) -> "ChaosSession":
        session = cls(config, plan=plan, check_every=check_every,
                      _restore=True)
        ctx = LoadContext(state["metas"])
        session.network.load_state(state["network"], ctx)
        session.injector.load_state(state["injector"])
        session.tolerance.watchdog.load_state(state["watchdog"])
        session.tolerance.controller.load_state(state["controller"])
        session.channels = []
        for label in state["channel_labels"]:
            channel = session.network.manager.find(label)
            if channel is None:
                raise CheckpointError(
                    f"checkpoint references channel {label!r} that the "
                    "restored manager does not know")
            session.channels.append(channel)
        session.be_payloads = [bytes.fromhex(payload)
                               for payload in state["be_payloads"]]
        load_rng(session.rng, state["rng"])
        session.phase = state["phase"]
        session.span_end = state["span_end"]
        session.next_message = state["next_message"]
        session.next_be = state["next_be"]
        session.next_check = state["next_check"]
        session.invariant_failures = list(state["invariant_failures"])
        session.admission_rejects = {
            str(reason): int(count) for reason, count
            in state.get("admission_rejects", {}).items()
        }
        if session.check_every > 0:
            session._check_invariants()  # once after every restore
        return session


class RandomWorkloadSession(_SessionBase):
    """The CLI/campaign random admitted workload, checkpointable.

    Reproduces :func:`repro.campaign.workloads.build_random_workload`
    followed by ``drive_random_workload`` — same derived RNG substreams,
    same send schedule — with the two-tick spans split at checkpoint
    cycles.  The final ``drain()`` is *not* checkpoint-segmented: it
    runs to quiescence, so re-running it after a crash redoes bounded
    work and cannot diverge.
    """

    KIND = "random"

    def __init__(self, width: int, height: int, channels: int,
                 ticks: int, seed: int, *, check_every: int = 0,
                 engine: str = "exact",
                 _restore: bool = False) -> None:
        from repro.campaign.spec import derive_seed
        from repro.campaign.workloads import build_random_workload

        self.width = width
        self.height = height
        self.channel_count = channels
        self.ticks = ticks
        self.seed = seed
        self.engine = engine
        self.check_every = check_every
        self.admission_rejects: dict[str, int] = {}
        if _restore:
            from repro.network.network import build_mesh_network

            self.network = build_mesh_network(width, height,
                                              engine=engine)
            self.admitted: list = []
        else:
            self.network, self.admitted = build_random_workload(
                width, height, channels, seed, self.admission_rejects,
                engine=engine)
        self.rng = random.Random(derive_seed(seed, "traffic"))
        self.nodes = list(self.network.mesh.nodes())
        self.slot = self.network.params.slot_cycles
        self.invariant_failures: list[str] = []
        self.phase = "main"
        self.span_end = 0
        self.next_tick = 0
        self.next_check = check_every

    @classmethod
    def fingerprint_for(cls, width: int, height: int, channels: int,
                        ticks: int, seed: int) -> str:
        return fingerprint_of({
            "workload": cls.KIND,
            "width": width, "height": height,
            "channels": channels, "ticks": ticks,
            "seed": seed,
        })

    def fingerprint(self) -> str:
        return self.fingerprint_for(self.width, self.height,
                                    self.channel_count, self.ticks,
                                    self.seed)

    # -- driving ----------------------------------------------------------

    def run(self, *, store=None,
            interval: int = DEFAULT_CHECKPOINT_INTERVAL):
        """Run (or finish running) the workload; returns the network."""
        self.attach_store(store, interval)
        net = self.network
        if net.cycle < self.span_end:
            self._run_span(self.span_end)
        if self.phase == "main":
            while self.next_tick < self.ticks:
                tick = self.next_tick
                for channel, i_min in self.admitted:
                    if tick % i_min == 0:
                        net.send_message(channel)
                if self.rng.random() < 0.25:
                    src, dst = self.rng.sample(self.nodes, 2)
                    net.send_best_effort(
                        src, dst,
                        payload=bytes(self.rng.randrange(8, 100)))
                if self.check_every > 0 and net.cycle >= self.next_check:
                    self._check_invariants()
                    self.next_check += self.check_every
                self.next_tick = tick + 2
                self._run_span(net.cycle + 2 * self.slot)
            self.phase = "drain"
        if self.phase == "drain":
            net.drain(max_cycles=2_000_000)
            if self.check_every > 0:
                self._check_invariants()
            self.phase = "done"
        return net

    # -- checkpointing -----------------------------------------------------

    def state(self) -> dict:
        ctx = SaveContext()
        state = {
            "phase": self.phase,
            "span_end": self.span_end,
            "next_tick": self.next_tick,
            "next_check": self.next_check,
            "invariant_failures": list(self.invariant_failures),
            "admission_rejects": dict(sorted(
                self.admission_rejects.items())),
            "admitted": [[channel.label, i_min]
                         for channel, i_min in self.admitted],
            "rng": rng_state(self.rng),
            "network": self.network.state(ctx),
        }
        state["metas"] = ctx.metas_state()
        return state

    @classmethod
    def restore(cls, width: int, height: int, channels: int,
                ticks: int, seed: int, state: dict, *,
                check_every: int = 0,
                engine: str = "exact") -> "RandomWorkloadSession":
        session = cls(width, height, channels, ticks, seed,
                      check_every=check_every, engine=engine,
                      _restore=True)
        ctx = LoadContext(state["metas"])
        session.network.load_state(state["network"], ctx)
        session.admitted = []
        for label, i_min in state["admitted"]:
            channel = session.network.manager.find(label)
            if channel is None:
                raise CheckpointError(
                    f"checkpoint references channel {label!r} that the "
                    "restored manager does not know")
            session.admitted.append((channel, i_min))
        load_rng(session.rng, state["rng"])
        session.phase = state["phase"]
        session.span_end = state["span_end"]
        session.next_tick = state["next_tick"]
        session.next_check = state["next_check"]
        session.invariant_failures = list(state["invariant_failures"])
        session.admission_rejects = {
            str(reason): int(count) for reason, count
            in state.get("admission_rejects", {}).items()
        }
        if session.check_every > 0:
            session._check_invariants()  # once after every restore
        return session


def open_chaos_session(config, store, *, plan=None,
                       check_every: Optional[int] = None) -> ChaosSession:
    """Resume from the store's latest checkpoint, or start fresh."""
    latest = store.latest()
    if latest is None:
        return ChaosSession(config, plan=plan, check_every=check_every)
    document = store.load(latest)
    return ChaosSession.restore(config, document["state"], plan=plan,
                                check_every=check_every)


def open_random_session(width: int, height: int, channels: int,
                        ticks: int, seed: int, store, *,
                        check_every: int = 0,
                        engine: str = "exact") -> RandomWorkloadSession:
    """Resume from the store's latest checkpoint, or start fresh."""
    latest = store.latest()
    if latest is None:
        return RandomWorkloadSession(width, height, channels, ticks,
                                     seed, check_every=check_every,
                                     engine=engine)
    document = store.load(latest)
    return RandomWorkloadSession.restore(
        width, height, channels, ticks, seed, document["state"],
        check_every=check_every, engine=engine)
