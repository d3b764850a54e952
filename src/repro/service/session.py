"""The checkpointable service-run driving loop.

:class:`ServiceSession` is the serving counterpart of the chaos and
random-workload sessions: it owns the network, the churn request
stream, the :class:`~repro.service.controller.ServiceController` and
the :class:`~repro.service.overload.OverloadManager`, and drives them
tick by tick — submitting arrivals, running retries and expiries, and
sending messages for every active flow — with the spans split at
checkpoint cycles per the session segmentation rule.

Wall-clock control-plane time is accumulated separately
(:attr:`ServiceSession.control_plane_seconds`) so the benchmark can
bound the service layer's overhead; it is *not* part of the
deterministic state and never checkpoints.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import Optional

from repro.checkpoint.codec import LoadContext, SaveContext
from repro.checkpoint.sessions import (
    DEFAULT_CHECKPOINT_INTERVAL,
    _SessionBase,
)
from repro.checkpoint.store import fingerprint_of
from repro.network.network import MeshNetwork
from repro.service.controller import ServiceConfig, ServiceController
from repro.service.overload import OverloadManager
from repro.service.slo import SLOReport, build_slo_report
from repro.service.workload import ChurnWorkload

#: Fixed payloads flows send (content never affects scheduling).
TC_PAYLOAD = b"\xa5" * 4
BE_PAYLOAD = b"\x5a" * 8


@dataclass(frozen=True)
class ServiceRunConfig:
    """Everything one service run needs, in one reproducible bundle.

    Percentages are integers (``90`` = 0.90) so campaign configs stay
    cleanly hashable; :meth:`service_config` converts.
    """

    seed: int = 1234
    width: int = 4
    height: int = 4
    requests: int = 200
    arrival_period_ticks: int = 4
    hold_ticks: int = 200
    be_fraction_pct: int = 25
    util_threshold_pct: int = 90
    buffer_watermark_pct: int = 90
    queue_limit: int = 16
    queue_timeout_ticks: int = 64
    max_retries: int = 3
    retry_backoff_ticks: int = 4
    #: Ask the analytic schedulability engine for a verdict before the
    #: headroom ladder; load-independent infeasibilities are rejected
    #: immediately (see :class:`~repro.service.controller.ServiceConfig`).
    analytic_preadmission: bool = False
    #: Optional fault-aware intake screen: a serialised
    #: :class:`~repro.faults.plan.FaultPlan` (JSON text, kept as a
    #: string so the config stays hashable).  Requests the fault model
    #: leaves at risk under this plan are rejected at intake (see
    #: :class:`~repro.service.controller.ServiceConfig`).
    fault_plan_json: Optional[str] = None
    #: Engine scheduling mode ("exact" or "event"); both produce
    #: byte-identical reports — "event" just skips idle work.
    engine: str = "exact"

    def validate(self) -> None:
        from repro.network.engine import ENGINE_MODES

        if self.engine not in ENGINE_MODES:
            raise ValueError(
                f"engine mode must be one of {ENGINE_MODES}, "
                f"got {self.engine!r}")
        if self.width < 1 or self.height < 1:
            raise ValueError("mesh dimensions must be positive")
        if self.requests < 1:
            raise ValueError("a service run needs at least one request")
        if not 0 <= self.be_fraction_pct <= 100:
            raise ValueError(
                f"best-effort fraction must be within [0, 100] percent, "
                f"got {self.be_fraction_pct}")
        if self.arrival_period_ticks < 1:
            raise ValueError("arrival period must be at least one tick")
        if self.hold_ticks < 1:
            raise ValueError("mean holding time must be positive")
        self.service_config().validate()

    def service_config(self) -> ServiceConfig:
        fault_plan = None
        if self.fault_plan_json is not None:
            from repro.faults.plan import FaultPlan

            fault_plan = FaultPlan.from_json(self.fault_plan_json)
        return ServiceConfig(
            util_threshold=self.util_threshold_pct / 100.0,
            buffer_watermark=self.buffer_watermark_pct / 100.0,
            queue_limit=self.queue_limit,
            queue_timeout_ticks=self.queue_timeout_ticks,
            max_retries=self.max_retries,
            retry_backoff_ticks=self.retry_backoff_ticks,
            analytic_preadmission=self.analytic_preadmission,
            fault_plan=fault_plan,
        )

    def churn_workload(self) -> ChurnWorkload:
        return ChurnWorkload(
            self.width, self.height, self.requests, self.seed,
            arrival_period_ticks=self.arrival_period_ticks,
            hold_ticks=self.hold_ticks,
            be_fraction=self.be_fraction_pct / 100.0,
        )


class ServiceSession(_SessionBase):
    """One control-plane service run under churn, checkpointable."""

    KIND = "service"

    def __init__(self, config: ServiceRunConfig, *,
                 check_every: int = 0,
                 _restore: bool = False) -> None:
        config.validate()
        self.config = config
        self.check_every = check_every
        self.workload = config.churn_workload()
        self.network = MeshNetwork(config.width, config.height,
                                   on_memory_full="drop",
                                   engine=config.engine)
        # Churn tears channels down while packets can still be in
        # flight (overload demotion is deliberately immediate); those
        # packets must be counted and dropped, not crash the router.
        for router in self.network.routers.values():
            router.drop_unroutable = True
        self.overload = OverloadManager(self.network,
                                        config.service_config())
        self.controller = ServiceController(
            self.network, self.workload.requests,
            config.service_config(), self.overload)
        self.slot = self.network.params.slot_cycles
        self.invariant_failures: list[str] = []
        self.phase = "main"
        self.span_end = 0
        self.next_tick = 0
        self.next_request = 0
        self.next_check = check_every
        #: Wall-clock seconds spent inside control-plane calls (submit,
        #: advance, send dispatch).  Diagnostic only — never part of
        #: the checkpointed state or the report signature.
        self.control_plane_seconds = 0.0

    @classmethod
    def fingerprint_for(cls, config: ServiceRunConfig) -> str:
        """Pin of every input that shapes a service run's behaviour."""
        config_dict = asdict(config)
        # Both engine modes produce byte-identical runs, so the mode is
        # not behaviour-shaping: dropping it keeps fingerprints of
        # pre-existing checkpoints valid and lets a run checkpointed in
        # one mode resume in the other.
        config_dict.pop("engine", None)
        # The pre-admission verdict *is* behaviour-shaping when on, but
        # its default-off value is dropped so fingerprints of every
        # pre-existing checkpoint stay valid.  Same for the fault-aware
        # intake screen.
        if not config_dict.get("analytic_preadmission"):
            config_dict.pop("analytic_preadmission", None)
        if not config_dict.get("fault_plan_json"):
            config_dict.pop("fault_plan_json", None)
        return fingerprint_of({
            "workload": cls.KIND,
            "config": config_dict,
        })

    def fingerprint(self) -> str:
        return self.fingerprint_for(self.config)

    # -- driving ----------------------------------------------------------

    def run(self, *, store=None,
            interval: int = DEFAULT_CHECKPOINT_INTERVAL) -> SLOReport:
        """Run (or finish running) the service; returns the SLOReport."""
        self.attach_store(store, interval)
        net = self.network
        requests = self.workload.requests
        if net.cycle < self.span_end:
            self._run_span(self.span_end)
        if self.phase == "main":
            while (self.next_request < len(requests)
                   or not self.controller.idle):
                tick = self.next_tick
                started = time.perf_counter()
                while (self.next_request < len(requests)
                       and requests[self.next_request].arrival_tick
                       <= tick):
                    self.controller.submit(
                        requests[self.next_request], tick)
                    self.next_request += 1
                self.controller.advance(tick)
                due = self.controller.due_sends(tick)
                self.control_plane_seconds += (
                    time.perf_counter() - started)
                self._dispatch(due, tick)
                if self.check_every > 0 and net.cycle >= self.next_check:
                    self._check_invariants()
                    self.next_check += self.check_every
                self.next_tick = tick + 1
                self._run_span(net.cycle + self.slot)
            self.phase = "drain"
        if self.phase == "drain":
            net.drain(max_cycles=2_000_000)
            if self.check_every > 0:
                self._check_invariants()
            self.phase = "done"
        return self.report()

    def _dispatch(self, flows, tick: int) -> None:
        """Send one message per due flow (data-plane hand-off)."""
        net = self.network
        for flow in flows:
            request = self.workload.requests[flow.index]
            if flow.traffic_class == "TC":
                channel = net.manager.find(flow.label)
                if channel is not None:
                    net.send_message(channel, payload=TC_PAYLOAD)
            else:
                net.send_best_effort(
                    request.source, request.destination,
                    payload=BE_PAYLOAD,
                    connection_label=flow.label,
                    sequence=flow.sequence,
                )
                flow.sequence += 1

    def report(self) -> SLOReport:
        return build_slo_report(
            self.controller, self.network,
            self.workload.signature_payload(), self.config.seed)

    # -- checkpointing -----------------------------------------------------

    def state(self) -> dict:
        ctx = SaveContext()
        state = {
            "phase": self.phase,
            "span_end": self.span_end,
            "next_tick": self.next_tick,
            "next_request": self.next_request,
            "next_check": self.next_check,
            "invariant_failures": list(self.invariant_failures),
            "controller": self.controller.state(),
            "network": self.network.state(ctx),
        }
        state["metas"] = ctx.metas_state()
        return state

    @classmethod
    def restore(cls, config: ServiceRunConfig, state: dict, *,
                check_every: int = 0) -> "ServiceSession":
        session = cls(config, check_every=check_every, _restore=True)
        ctx = LoadContext(state["metas"])
        session.network.load_state(state["network"], ctx)
        session.controller.load_state(state["controller"])
        session.phase = state["phase"]
        session.span_end = state["span_end"]
        session.next_tick = state["next_tick"]
        session.next_request = state["next_request"]
        session.next_check = state["next_check"]
        session.invariant_failures = list(state["invariant_failures"])
        if session.check_every > 0:
            session._check_invariants()  # once after every restore
        return session


def run_service(config: ServiceRunConfig, *, store=None,
                interval: Optional[int] = None,
                check_every: int = 0) -> SLOReport:
    """Run one service churn workload and report its SLOs.

    Deterministic: the request stream, every control-plane decision and
    the simulation itself derive from ``config`` alone, so the same
    configuration always yields the identical report signature.
    """
    session = ServiceSession(config, check_every=check_every)
    return session.run(store=store,
                       interval=(DEFAULT_CHECKPOINT_INTERVAL
                                 if interval is None else interval))


def open_service_session(config: ServiceRunConfig, store, *,
                         check_every: int = 0) -> ServiceSession:
    """Resume from the store's latest checkpoint, or start fresh."""
    latest = store.latest()
    if latest is None:
        return ServiceSession(config, check_every=check_every)
    document = store.load(latest)
    return ServiceSession.restore(config, document["state"],
                                  check_every=check_every)
