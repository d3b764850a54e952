"""Tests for the fault-aware intake screen in the service layer.

With ``ServiceConfig.fault_plan`` set, every setup request is screened
against the fault model before the headroom ladder: a request the plan
leaves at risk (no surviving reroute path, no reroute capacity, retry
budget exhausted) is rejected at intake with a structured
``fault-at-risk-*`` reason — queueing and retries cannot fix a static
topology-level risk, so the screen is load-independent and memoised.
"""

import dataclasses

from repro.faults.plan import CUT, DROP, FaultEvent, FaultPlan
from repro.network.network import MeshNetwork
from repro.service import (
    OverloadManager,
    ServiceConfig,
    ServiceController,
    ServiceRunConfig,
    ServiceSession,
    run_service,
)
from repro.service.workload import ChannelRequest


def request(index=0, *, source=(0, 0), destination=(1, 1),
            traffic_class="TC", i_min=16, deadline=100, hold=60,
            criticality=3, arrival=0):
    return ChannelRequest(
        index=index, arrival_tick=arrival, source=source,
        destination=destination, traffic_class=traffic_class,
        i_min=i_min, deadline_ticks=deadline, hold_ticks=hold,
        criticality=criticality)


def controller_for(requests, **overrides):
    config = ServiceConfig(**overrides)
    net = MeshNetwork(2, 2, on_memory_full="drop")
    overload = OverloadManager(net, config)
    return ServiceController(net, requests, config, overload), net


#: Cuts both links out of (0, 0): any request sourced there has no
#: surviving reroute path under the plan.
ISOLATING_PLAN = FaultPlan(events=[
    FaultEvent(cycle=100, kind=CUT, node=(0, 0), direction=0),
    FaultEvent(cycle=100, kind=CUT, node=(0, 0), direction=2),
])


class TestScreenVerdicts:
    def test_at_risk_request_rejected_at_intake(self):
        req = request()
        controller, net = controller_for([req],
                                         fault_plan=ISOLATING_PLAN)
        assert controller.submit(req, 0) == "rejected"
        assert controller.admission_reject_reasons == {
            "fault-at-risk-no-reroute-path": 1}
        assert net.manager.find("svc-0") is None

    def test_unaffected_request_accepted(self):
        req = request(source=(1, 1), destination=(0, 1))
        controller, net = controller_for([req],
                                         fault_plan=ISOLATING_PLAN)
        assert controller.submit(req, 0) == "accepted"
        assert controller.admission_reject_reasons == {}
        assert net.manager.find("svc-0") is not None

    def test_no_plan_means_no_screen(self):
        req = request()
        controller, _ = controller_for([req])
        assert controller.submit(req, 0) == "accepted"

    def test_retry_budget_reason_surfaces(self):
        plan = FaultPlan(events=[
            FaultEvent(cycle=100, kind=DROP, node=(0, 0), direction=0,
                       amount=9)])
        req = request(destination=(1, 0), deadline=200)
        controller, _ = controller_for([req], fault_plan=plan)
        assert controller.submit(req, 0) == "rejected"
        assert controller.admission_reject_reasons == {
            "fault-at-risk-retry-budget-exhausted": 1}

    def test_verdicts_are_memoised_per_flow_shape(self):
        first = request(index=0)
        same = request(index=1, arrival=3)
        other = request(index=2, source=(1, 1), destination=(0, 1))
        controller, _ = controller_for([first, same, other],
                                       fault_plan=ISOLATING_PLAN)
        controller.submit(first, 0)
        controller.submit(same, 3)
        controller.submit(other, 3)
        # index/arrival do not shape the verdict, so two of the three
        # requests share one cache entry.
        assert len(controller._fault_screen) == 2


class TestRunConfigIntegration:
    def test_plan_json_flows_through_service_config(self):
        config = ServiceRunConfig(
            fault_plan_json=ISOLATING_PLAN.to_json())
        parsed = config.service_config().fault_plan
        assert parsed.signature() == ISOLATING_PLAN.signature()
        assert ServiceRunConfig().service_config().fault_plan is None

    def test_fingerprint_stable_when_off_and_distinct_when_on(self):
        base = ServiceRunConfig()
        screened = dataclasses.replace(
            base, fault_plan_json=ISOLATING_PLAN.to_json())
        assert (ServiceSession.fingerprint_for(base)
                != ServiceSession.fingerprint_for(screened))
        # Off is the historical behaviour: pre-existing checkpoints
        # must still resume, so the unset field never fingerprints.
        legacy = dataclasses.asdict(base)
        for dropped in ("engine", "analytic_preadmission",
                        "fault_plan_json"):
            legacy.pop(dropped)
        from repro.checkpoint.store import fingerprint_of

        assert ServiceSession.fingerprint_for(base) == fingerprint_of(
            {"workload": "service", "config": legacy})

    def test_run_is_deterministic_with_a_plan(self):
        plan = FaultPlan.random(3, 4, 4, cuts=6, drops=2,
                                window=(40, 200))
        config = ServiceRunConfig(requests=40,
                                  fault_plan_json=plan.to_json())
        first = run_service(config)
        assert first.reject_reasons
        assert all(reason.startswith("fault-at-risk-")
                   for reason in first.reject_reasons)
        assert first.signature() == run_service(config).signature()
