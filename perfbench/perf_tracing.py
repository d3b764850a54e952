"""Outside-in tracing: wrappers on the public methods of live objects.

Nothing under ``src/`` changes.  A :class:`Tracer` replaces a public
method on a live instance with a wrapper that times each call; removing
the instance attribute restores the class method.  Where no instance
exists yet (channels a chaos session establishes in its constructor,
and the module-level ``analyze``), the class or module attribute is
wrapped and put back on :meth:`Tracer.detach`.  Two wrapper kinds:

* *aggregate* wrappers (probes, component steps, tree selections,
  sends) only add to a call count and a time, because they run hundreds
  of thousands of times per run;
* *span* wrappers (``network.run``/``drain``, controller calls, channel
  establishment, ``analyze``) also record a span with name, start, end
  and parent, kept in memory and written out when the run ends.

Every wrapper also keeps *self time*: its duration minus the time of
the wrapped calls nested inside it.  The self times of all keys plus
the unattributed remainder add up to the traced ``run_s``, so missing
coverage shows as a number.

A wrapper never adds or removes an attribute the engine looks up:
``next_event_cycle`` is wrapped only on components that have it.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from collections import defaultdict

#: Which layer (``src/repro/`` module) each wrapped key belongs to.
LAYER_OF = {
    "network.run": "network.engine",
    "network.drain": "network.engine",
    "router.step": "core.router",
    "router.probe": "core.router",
    "tree.select": "core.comparator_tree",
    "host.step": "network.node",
    "host.probe": "network.node",
    "watcher.step": "faults",
    "watcher.probe": "faults",
    "control.submit": "service.controller",
    "control.advance": "service.controller",
    "control.due_sends": "service.controller",
    "channels.establish": "channels",
    "channels.teardown": "channels",
    "network.send": "network.network",
    "analyze": "schedulability",
}

LAYERS = ("network.engine", "core.router", "core.comparator_tree",
          "network.node", "faults", "service.controller", "channels",
          "network.network", "schedulability")


class Tracer:
    """Counts, times, self times and spans for wrapped calls."""

    def __init__(self) -> None:
        self.counts: dict = defaultdict(int)
        self.total_s: dict = defaultdict(float)
        self.self_s: dict = defaultdict(float)
        #: Probe answers that were due at the probed cycle, per key.
        self.useful: dict = defaultdict(int)
        #: Calls that raised, per key (rejected channel requests).
        self.raised: dict = defaultdict(int)
        #: Host seconds of each ``network.run`` call.
        self.run_call_s: list = []
        #: (id, name, start, end, parent id or None); ``start`` and
        #: ``end`` are ``perf_counter`` seconds.
        self.spans: list = []
        # Wrapped time of the calls nested in the current call; the
        # bottom entry collects the time of top-level wrapped calls.
        self._child = [0.0]
        self._open: list = []
        self._undo: list = []

    # -- wrapping --------------------------------------------------------

    def _wrap(self, owner, attr: str, key: str, *, probe: bool = False,
              span: bool = False, shared: bool = False) -> None:
        """Wrap ``owner.attr``; a *shared* owner (a class or module) gets
        its original attribute back on :meth:`detach`."""
        original = getattr(owner, attr)
        counts, total_s, self_s = self.counts, self.total_s, self.self_s
        useful, raised, child = self.useful, self.raised, self._child
        spans, open_spans = self.spans, self._open
        run_call_s = self.run_call_s if key == "network.run" else None
        clock = time.perf_counter

        if probe:
            def wrapper(cycle):
                saved = child[0]
                child[0] = 0.0
                started = clock()
                answer = original(cycle)
                elapsed = clock() - started
                self_s[key] += elapsed - child[0]
                child[0] = saved + elapsed
                total_s[key] += elapsed
                counts[key] += 1
                if answer is not None and answer <= cycle:
                    useful[key] += 1
                return answer
        elif not span:
            def wrapper(*args, **kwargs):
                saved = child[0]
                child[0] = 0.0
                started = clock()
                try:
                    return original(*args, **kwargs)
                finally:
                    elapsed = clock() - started
                    self_s[key] += elapsed - child[0]
                    child[0] = saved + elapsed
                    total_s[key] += elapsed
                    counts[key] += 1
        else:
            def wrapper(*args, **kwargs):
                span_id = len(spans)
                parent = open_spans[-1] if open_spans else None
                spans.append(None)  # reserve the id; filled on exit
                open_spans.append(span_id)
                saved = child[0]
                child[0] = 0.0
                started = clock()
                try:
                    return original(*args, **kwargs)
                except BaseException:
                    raised[key] += 1
                    raise
                finally:
                    ended = clock()
                    elapsed = ended - started
                    self_s[key] += elapsed - child[0]
                    child[0] = saved + elapsed
                    total_s[key] += elapsed
                    counts[key] += 1
                    open_spans.pop()
                    spans[span_id] = (span_id, key, started, ended, parent)
                    if run_call_s is not None:
                        run_call_s.append(elapsed)

        if shared:
            self._undo.append((owner, attr, original))
        else:
            self._undo.append((owner, attr, None))
        setattr(owner, attr, wrapper)

    def detach(self) -> None:
        """Remove every wrapper, restoring the original lookups."""
        for owner, attr, original in reversed(self._undo):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    @contextlib.contextmanager
    def class_patch(self, cls, attr: str, key: str):
        """Wrap ``cls.attr`` while objects are being constructed.

        Chaos sessions establish their channels inside the session
        constructor, before any instance exists to wrap.
        """
        marker = len(self._undo)
        self._wrap(cls, attr, key, span=True, shared=True)
        try:
            yield
        finally:
            owner, name, original = self._undo.pop(marker)
            setattr(owner, name, original)

    def _component(self, component, prefix: str) -> None:
        self._wrap(component, "step", f"{prefix}.step")
        if hasattr(component, "next_event_cycle"):
            self._wrap(component, "next_event_cycle", f"{prefix}.probe",
                       probe=True)

    def attach_simulation(self, session) -> None:
        """Wrap the layers of a constructed service or chaos session."""
        net = session.network
        self._wrap(net, "run", "network.run", span=True)
        self._wrap(net, "drain", "network.drain", span=True)
        self._wrap(net, "establish_channel", "channels.establish",
                   span=True)
        self._wrap(net.manager, "teardown", "channels.teardown")
        self._wrap(net, "send_message", "network.send")
        self._wrap(net, "send_best_effort", "network.send")
        for router in net.routers.values():
            self._component(router, "router")
            self._wrap(router.tree, "select_for_port", "tree.select")
        for host in net.hosts.values():
            self._component(host, "host")
        for watcher in watchers_of(session):
            self._component(watcher, "watcher")
        controller = getattr(session, "controller", None)
        if controller is not None:  # service sessions only
            for name in ("submit", "advance", "due_sends"):
                self._wrap(controller, name, f"control.{name}", span=True)

    def attach_analysis(self) -> None:
        """Wrap the analytic engine's public entry point."""
        import repro.schedulability as schedulability

        self._wrap(schedulability, "analyze", "analyze", span=True,
                   shared=True)

    # -- results ---------------------------------------------------------

    def start_accounting(self) -> None:
        """Zero the self times, keeping counts (set-up ends here)."""
        self.self_s.clear()
        self._child[0] = 0.0

    @property
    def top_level_s(self) -> float:
        """Time of wrapped calls not nested inside another wrapped call."""
        return self._child[0]

    def layer_self_s(self) -> dict:
        layers = dict.fromkeys(LAYERS, 0.0)
        for key, seconds in self.self_s.items():
            layers[LAYER_OF[key]] += seconds
        return layers

    def write_spans(self, path) -> None:
        with open(path, "w") as handle:
            json.dump({"fields": ["id", "name", "start_s", "end_s",
                                  "parent"],
                       "spans": self.spans}, handle)


def watchers_of(session) -> list:
    """Engine components that are neither routers nor hosts."""
    found = []
    tolerance = getattr(session, "tolerance", None)
    if tolerance is not None:
        found += [tolerance.watchdog, tolerance.controller]
    injector = getattr(session, "injector", None)
    if injector is not None:
        found.append(injector)
    return found


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def quantile(values: list, share: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def simulation_metrics(tracer: Tracer, session, run_s: float) -> dict:
    """Per-layer metrics of one traced simulation run."""
    counts, total, useful = tracer.counts, tracer.total_s, tracer.useful
    net = session.network
    engine = net.engine
    executed = engine.cycles_stepped
    probes = (counts["router.probe"] + counts["host.probe"]
              + counts["watcher.probe"])
    due = (useful["router.probe"] + useful["host.probe"]
           + useful["watcher.probe"])
    steps = (counts["router.step"] + counts["host.step"]
             + counts["watcher.step"])
    routers = net.routers.values()
    keys_reused = sum(router.tree.keys_reused for router in routers)
    keys_computed = sum(router.tree.keys_computed for router in routers)
    faults = net.fault_counters()
    tc_delivered = net.log.tc_delivered
    layers = tracer.layer_self_s()
    controller = getattr(session, "controller", None)
    retries = (controller.counters["retries_total"]
               if controller is not None else 0)
    metrics = {
        "engine.executed_cycles": executed,
        "engine.skipped_cycles": engine.cycles_fast_forwarded,
        "engine.run_entries": counts["network.run"]
        + counts["network.drain"],
        "engine.probes": probes,
        "engine.probes_per_executed_cycle": _ratio(probes, executed),
        "engine.useful_probe_ratio": _ratio(due, probes),
        "engine.steps_per_executed_cycle": _ratio(steps, executed),
        "engine.watcher_steps": counts["watcher.step"],
        "engine.self_s": layers["network.engine"],
        "engine.slot_ms_p50": 1000 * quantile(tracer.run_call_s, 0.5),
        "engine.slot_ms_p99": 1000 * quantile(tracer.run_call_s, 0.99),
        "router.steps": counts["router.step"],
        "router.step_s": total["router.step"],
        "router.probe_s": total["router.probe"],
        "router.steps_per_tc_delivered": _ratio(counts["router.step"],
                                                tc_delivered),
        "router.tc_transmitted": sum(r.tc_transmitted for r in routers),
        "router.be_worms_routed": sum(r.be_worms_routed for r in routers),
        "tree.select_calls": counts["tree.select"],
        "tree.select_s": total["tree.select"],
        "tree.evaluations": sum(r.tree.evaluations for r in routers),
        "tree.key_reuse_ratio": _ratio(keys_reused,
                                       keys_reused + keys_computed),
        "host.steps": counts["host.step"],
        "host.probe_s": total["host.probe"],
        "host.useful_probe_ratio": _ratio(useful["host.probe"],
                                          counts["host.probe"]),
        "faults.watcher_step_s": total["watcher.step"],
        "faults.watcher_probe_s": total["watcher.probe"],
        "faults.links_detected": faults.links_detected,
        "faults.channels_rerouted": faults.channels_rerouted,
        "faults.tc_retransmitted": faults.tc_retransmitted,
        "faults.retransmit_recovered_ratio": _ratio(
            faults.retransmit_recovered, faults.tc_retransmitted),
        "control.calls": counts["control.submit"]
        + counts["control.advance"] + counts["control.due_sends"],
        "control.submit_s": total["control.submit"],
        "control.advance_s": total["control.advance"],
        "control.due_sends_s": total["control.due_sends"],
        "control.retries": retries,
        "channels.establish_calls": counts["channels.establish"],
        "channels.establish_s": total["channels.establish"],
        "channels.teardown_s": total["channels.teardown"],
        "channels.reject_ratio": _ratio(tracer.raised["channels.establish"],
                                        counts["channels.establish"]),
        "network.send_calls": counts["network.send"],
        "network.send_s": total["network.send"],
        "analyze.calls": 0,
        "analyze.s": 0.0,
        "analyze.reject_ratio": 0.0,
    }
    metrics.update(self_time_metrics(tracer, run_s))
    return metrics


def analysis_metrics(tracer: Tracer, result, run_s: float) -> dict:
    """Per-layer metrics of one traced analyse sweep."""
    metrics = dict.fromkeys(PER_LAYER_NAMES, 0)
    metrics.update({
        "analyze.calls": tracer.counts["analyze"],
        "analyze.s": tracer.total_s["analyze"],
        "analyze.reject_ratio": _ratio(
            result.channels_requested - result.channels_admitted,
            result.channels_requested),
    })
    metrics.update(self_time_metrics(tracer, run_s))
    return metrics


def self_time_metrics(tracer: Tracer, run_s: float) -> dict:
    """Each layer's self time, and the part of ``run_s`` none covers."""
    metrics = {f"self_s.{layer}": seconds
               for layer, seconds in tracer.layer_self_s().items()}
    metrics["self_s.unattributed"] = run_s - tracer.top_level_s
    return metrics


#: Every per-layer metric name with its unit, in report order.
PER_LAYER = {
    "engine.executed_cycles": "cycles",
    "engine.skipped_cycles": "cycles",
    "engine.run_entries": "count",
    "engine.probes": "count",
    "engine.probes_per_executed_cycle": "count/cycle",
    "engine.useful_probe_ratio": "share",
    "engine.steps_per_executed_cycle": "count/cycle",
    "engine.watcher_steps": "count",
    "engine.self_s": "s",
    "engine.slot_ms_p50": "ms",
    "engine.slot_ms_p99": "ms",
    "router.steps": "count",
    "router.step_s": "s",
    "router.probe_s": "s",
    "router.steps_per_tc_delivered": "count",
    "router.tc_transmitted": "count",
    "router.be_worms_routed": "count",
    "tree.select_calls": "count",
    "tree.select_s": "s",
    "tree.evaluations": "count",
    "tree.key_reuse_ratio": "share",
    "host.steps": "count",
    "host.probe_s": "s",
    "host.useful_probe_ratio": "share",
    "faults.watcher_step_s": "s",
    "faults.watcher_probe_s": "s",
    "faults.links_detected": "count",
    "faults.channels_rerouted": "count",
    "faults.tc_retransmitted": "count",
    "faults.retransmit_recovered_ratio": "share",
    "control.calls": "count",
    "control.submit_s": "s",
    "control.advance_s": "s",
    "control.due_sends_s": "s",
    "control.retries": "count",
    "channels.establish_calls": "count",
    "channels.establish_s": "s",
    "channels.teardown_s": "s",
    "channels.reject_ratio": "share",
    "network.send_calls": "count",
    "network.send_s": "s",
    "analyze.calls": "count",
    "analyze.s": "s",
    "analyze.reject_ratio": "share",
    **{f"self_s.{layer}": "s" for layer in LAYERS},
    "self_s.unattributed": "s",
    "trace.overhead_ratio": "ratio",
}

PER_LAYER_NAMES = tuple(PER_LAYER)


def median(values: list) -> float:
    return statistics.median(values) if values else 0.0
