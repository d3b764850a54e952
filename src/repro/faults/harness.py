"""Seeded chaos soak: mixed traffic under injected faults.

One call builds a mesh, establishes a mix of unicast and multicast
real-time channels, keeps periodic time-constrained messages and
background best-effort traffic flowing, replays a seeded
:class:`~repro.faults.plan.FaultPlan` against it, and checks the
fabric's structural invariants along the way.  The resulting
:class:`ChaosReport` carries every counter the acceptance criteria
care about plus a stable signature, so two runs with the same seed can
be compared bit-for-bit.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Optional

from repro.channels.admission import AdmissionError
from repro.channels.spec import TrafficSpec
from repro.faults.plan import FaultPlan
from repro.network.network import MeshNetwork


@dataclass(frozen=True)
class ChaosConfig:
    """Everything a chaos soak needs, in one reproducible bundle."""

    seed: int = 1234
    width: int = 4
    height: int = 4
    cycles: int = 6000
    settle_cycles: int = 4000
    # Fault mix (see FaultPlan.random).
    cuts: int = 2
    flaps: int = 1
    corruptions: int = 2
    drops: int = 1
    babblers: int = 1
    # Workload.
    unicast_channels: int = 4
    multicast_channels: int = 1
    message_period_ticks: int = 16
    deadline_ticks: int = 64
    be_period_cycles: int = 160
    invariant_check_every: int = 500
    #: Engine scheduling mode ("exact" or "event"); both produce
    #: byte-identical reports — "event" just skips idle work.
    engine: str = "exact"


@dataclass
class ChaosReport:
    """Outcome of one chaos soak."""

    seed: int
    cycles: int
    counters: dict[str, int]
    tc_delivered: int
    be_delivered: int
    deadline_misses_total: int
    deadline_misses_undegraded: int
    degraded_labels: list[str]
    rerouted_count: int
    invariant_failures: list[str]
    channels_established: int
    faults_fired: int
    #: Per-class delivery-latency histogram states (see
    #: :meth:`repro.observability.Histogram.state`); lets campaign
    #: aggregation answer latency percentiles across many soaks.
    #: Not part of :meth:`signature` — the signed counters already
    #: pin the outcome, and the signature predates this field.
    latency: dict = field(default_factory=dict)
    #: Establishment rejections tallied by structured
    #: :class:`~repro.channels.admission.AdmissionError` reason.
    #: Excluded from :meth:`signature` for the same reason as
    #: ``latency``.
    admission_rejects: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """The acceptance bar: invariants held and every undegraded
        channel met every deadline."""
        return (not self.invariant_failures
                and self.deadline_misses_undegraded == 0)

    def signature(self) -> str:
        """Stable digest of the observable outcome (determinism check)."""
        payload = json.dumps({
            "seed": self.seed,
            "cycles": self.cycles,
            "counters": dict(sorted(self.counters.items())),
            "tc_delivered": self.tc_delivered,
            "be_delivered": self.be_delivered,
            "misses": self.deadline_misses_total,
            "degraded": sorted(self.degraded_labels),
        }, sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()

    def summary_rows(self) -> list[tuple[str, int]]:
        rows = [(name, value) for name, value in
                sorted(self.counters.items()) if value]
        rows += [
            ("tc delivered", self.tc_delivered),
            ("be delivered", self.be_delivered),
            ("deadline misses (undegraded)",
             self.deadline_misses_undegraded),
            ("deadline misses (total)", self.deadline_misses_total),
        ]
        return rows


def _establish_workload(network: MeshNetwork, config: ChaosConfig,
                        rng: random.Random,
                        rejects: Optional[dict[str, int]] = None) -> list:
    """Admit the soak's channel mix; returns the channel handles.

    ``rejects``, when given, tallies failed establishment attempts by
    structured :class:`AdmissionError` reason.
    """
    nodes = list(network.mesh.nodes())
    channels = []
    attempts = 0
    while (len(channels) < config.unicast_channels
           and attempts < config.unicast_channels * 4):
        attempts += 1
        src, dst = rng.sample(nodes, 2)
        try:
            channels.append(network.establish_channel(
                src, dst, TrafficSpec(i_min=config.message_period_ticks),
                deadline=config.deadline_ticks,
                label=f"chaos-u{len(channels)}",
            ))
        except AdmissionError as exc:
            if rejects is not None:
                rejects[exc.reason] = rejects.get(exc.reason, 0) + 1
            continue
    attempts = 0
    while (len(nodes) >= 3
           and len(channels) < config.unicast_channels
           + config.multicast_channels
           and attempts < config.multicast_channels * 4):
        attempts += 1
        src, *dsts = rng.sample(nodes, 3)
        try:
            channels.append(network.establish_channel(
                src, dsts, TrafficSpec(i_min=config.message_period_ticks),
                deadline=config.deadline_ticks,
                label=f"chaos-m{len(channels)}",
            ))
        except AdmissionError as exc:
            if rejects is not None:
                rejects[exc.reason] = rejects.get(exc.reason, 0) + 1
            continue
    return channels


def run_chaos_soak(config: ChaosConfig,
                   plan: Optional[FaultPlan] = None, *,
                   check_every: Optional[int] = None,
                   store=None, interval: Optional[int] = None,
                   ) -> ChaosReport:
    """Run one seeded chaos soak and report what happened.

    Deterministic: the workload schedule, the fault plan, and the
    simulation itself are all driven from ``config.seed``, so the same
    configuration always yields the identical report signature.

    The driving loop lives in
    :class:`repro.checkpoint.sessions.ChaosSession`; passing ``store``
    (a :class:`~repro.checkpoint.CheckpointStore`) checkpoints the run
    every ``interval`` cycles without changing its outcome, and
    ``check_every`` overrides the config's invariant-check period.
    """
    from repro.checkpoint.sessions import (
        DEFAULT_CHECKPOINT_INTERVAL,
        ChaosSession,
    )

    session = ChaosSession(config, plan=plan, check_every=check_every)
    return session.run(store=store,
                       interval=(DEFAULT_CHECKPOINT_INTERVAL
                                 if interval is None else interval))
