"""Synchronous cycle engine with quiescence fast-forward and an
event-driven scheduling mode.

Everything in the fabric advances in lock step, one 20 ns cycle at a
time: components (routers, hosts) run their ``step``, then wiring
functions copy each router's output signals to its neighbour's inputs
for the next cycle — giving every link a one-cycle latency, like the
registered chip-to-chip links of the original hardware.

Large fabrics are mostly idle, so stepping every component and wiring
lambda on every cycle wastes almost all of the interpreter time on
provably-empty work.  Two optimised execution modes exist, both
producing byte-identical simulations (``tests/integration/
test_fast_forward_equivalence.py`` and ``tests/integration/
test_event_engine_equivalence.py`` assert this; ``docs/performance.md``
documents the contracts):

* **exact** (the default) — the per-cycle loop with *fast-forward*:
  when every component reports (via ``next_event_cycle``) that it has
  no work before some future cycle, and every wiring function reports
  (via its ``idle_check``) that running it would be a no-op, the clock
  jumps directly to the earliest future event instead of looping.  The
  whole fabric must be quiescent for a jump, so a single busy router
  pins everything to the per-cycle loop.

* **event** — a true discrete-event core: a priority queue of
  ``(cycle, registration order, component)`` entries, fed by the same
  ``next_event_cycle`` contracts, advances the clock directly to the
  next cycle on which *any* component has work and steps only the
  components scheduled there — including under load, where only the
  active corner of the mesh runs while the rest is skipped entirely.
  Components scheduled on the same cycle fire in registration order
  (the order ``add_component`` was called), which is also the exact
  mode's step order, so the two modes are step-for-step identical.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Optional, Protocol

#: Engine execution modes (see module docstring).
ENGINE_MODES = ("exact", "event")


class Steppable(Protocol):
    def step(self, cycle: int) -> None: ...


class SynchronousEngine:
    """Cycle engine with two byte-identical schedulers (exact/event).

    With ``fast_forward`` enabled (the default) the exact engine skips
    spans of provably idle cycles in one jump.  Fast-forward only
    engages when *every* registered component implements
    ``next_event_cycle`` and *every* wiring function was registered
    with an ``idle_check``; a single legacy component pins the engine
    to the per-cycle loop, so existing harnesses keep their exact
    semantics.

    With ``mode="event"`` the engine runs the discrete-event scheduler
    instead: only components whose ``next_event_cycle`` is due are
    stepped, and only wiring whose declared ``source`` component
    stepped this cycle (plus source-less wiring) runs.  A component
    without ``next_event_cycle`` is treated as due on every cycle, so
    legacy components stay exact (at per-cycle cost).  The scheduler
    queue is transient: it is rebuilt from component state at every
    ``run``/``run_until`` entry, so checkpoint restore and arbitrary
    between-run mutations need no queue serialisation.
    """

    def __init__(self, *, fast_forward: bool = True,
                 mode: str = "exact") -> None:
        if mode not in ENGINE_MODES:
            raise ValueError(
                f"engine mode must be one of {ENGINE_MODES}, not {mode!r}"
            )
        self.mode = mode
        self._components: list[Steppable] = []
        self._wiring: list[Callable[[], None]] = []
        self._wiring_idle_checks: list[Optional[Callable[[], bool]]] = []
        self.cycle = 0
        #: Master switch for the idle-span fast path of the exact mode.
        #: Clearing it (or constructing with ``fast_forward=False``)
        #: forces the legacy per-cycle loop — the reference behaviour
        #: benchmarks and the equivalence tests compare against.  The
        #: event mode always skips idle cycles and ignores this flag.
        self.fast_forward = fast_forward
        #: Cycles that ran the full step-components-then-wire loop.
        self.cycles_stepped = 0
        #: Cycles skipped (no component stepped): fast-forward jumps in
        #: exact mode, scheduler jumps in event mode.
        self.cycles_fast_forwarded = 0
        self._ff_capable = True
        # Failed-jump backoff (exact mode): scanning every component
        # each cycle to discover "someone is busy" costs more than the
        # step itself, so after a failed attempt the engine waits
        # exponentially longer (capped) before scanning again.  At
        # worst the start of an idle span is detected
        # ``_FF_BACKOFF_CAP`` cycles late — negligible against the
        # spans worth skipping.
        self._ff_retry_cycle = 0
        self._ff_backoff = 1
        # -- event-mode scheduler (all transient; rebuilt at run entry)
        #: component -> registration index (the same-cycle firing order).
        self._order: dict = {}
        self._order_counter = 0
        #: Components registered without ``local=True``: their
        #: ``next_event_cycle`` may depend on *global* state (watchdogs
        #: scanning link monitors, recovery controllers watching the
        #: delivery log), so they are requeried after every executed
        #: cycle — and a step by one of them triggers a full requery.
        self._watchers: set = set()
        #: component -> components to requery whenever it steps
        #: (host <-> router pairs: one injects into / drains the other).
        self._peers: dict = {}
        #: Per wiring: the declared source component (or None).
        self._wiring_sources: list = []
        #: Per wiring: declared sink components — a sequence, a callable
        #: returning one, or None.
        self._wiring_sinks: list = []
        #: source component -> indices of the wirings it drives.
        self._source_wirings: dict = {}
        #: Indices of wirings with no declared source (always run).
        self._sourceless_wirings: list[int] = []
        #: component -> currently valid scheduled cycle (lazy deletion:
        #: a popped heap entry is live only if it matches this map).
        self._sched: dict = {}
        self._heap: list = []
        self._push_seq = 0
        self._pending_wakes: set = set()

    _FF_BACKOFF_CAP = 64

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def add_component(self, component: Steppable, *,
                      local: bool = False) -> None:
        """Register a component; it steps each cycle in this order.

        ``local=True`` declares that the component's
        ``next_event_cycle`` depends only on its *own* state plus
        inputs delivered to it by wiring, peers (:meth:`bind_peers`)
        and explicit :meth:`wake` calls — the event scheduler then
        requeries it only on those occasions.  The default (a
        *watcher*) is requeried after every executed cycle and safe
        for components that observe arbitrary global state.
        """
        self._components.append(component)
        self._order[component] = self._order_counter
        self._order_counter += 1
        if not local:
            self._watchers.add(component)
        self._refresh_ff_capability()

    def bind_peers(self, first: Steppable, second: Steppable) -> None:
        """Declare two local components as mutual wake partners.

        Whenever one of them steps, the event scheduler requeries the
        other — the contract for pairs that feed each other directly
        (a host injecting into its router; a router delivering to its
        host) without going through a declared wiring.
        """
        self._peers.setdefault(first, []).append(second)
        self._peers.setdefault(second, []).append(first)

    def remove_component(self, component: Steppable) -> None:
        """Detach a component (fault injectors, watchdogs, controllers).

        The component simply stops being stepped; raises ValueError if
        it was never registered, so detach bugs surface immediately.

        Safe to call from inside a component's own ``step``: the engine
        steps a snapshot of the component list each cycle, so a removal
        mid-cycle never skips or double-steps a neighbour — it takes
        effect at the next cycle boundary (and the removed component
        still finishes the current cycle if it had not stepped yet).
        A component re-added later gets a fresh (higher) registration
        index — it fires after everything registered before it.
        """
        try:
            self._components.remove(component)
        except ValueError:
            raise ValueError(
                f"component {component!r} is not registered with this engine"
            ) from None
        self._order.pop(component, None)
        self._watchers.discard(component)
        self._sched.pop(component, None)
        self._pending_wakes.discard(component)
        if self._heap:
            # Purge queued heap entries outright.  Lazy deletion (the
            # ``_sched`` match) is not enough here: a component removed
            # and later re-added gets a fresh registration index, and a
            # surviving stale entry carrying the *old* index could
            # match the re-added component's ``_sched`` cycle and fire
            # it at its old position in the order.
            self._heap = [entry for entry in self._heap
                          if entry[3] is not component]
            heapq.heapify(self._heap)
        for partner in self._peers.pop(component, ()):
            partners = self._peers.get(partner)
            if partners and component in partners:
                partners.remove(component)
        if component in self._source_wirings:
            # Wiring whose source vanished falls back to source-less
            # semantics: run every executed cycle, gate jumps on its
            # idle_check (or pin per-cycle execution without one).
            for index in self._source_wirings.pop(component):
                self._wiring_sources[index] = None
                self._sourceless_wirings.append(index)
            self._sourceless_wirings.sort()
        self._refresh_ff_capability()

    def add_wiring(
        self,
        transfer: Callable[[], None],
        *,
        idle_check: Optional[Callable[[], bool]] = None,
        source: Optional[Steppable] = None,
        sinks: object = None,
    ) -> None:
        """Register a post-step signal copy (runs every stepped cycle).

        ``idle_check`` is the fast-forward contract for wiring: it must
        return True exactly when calling ``transfer`` right now would
        leave all simulation state unchanged (no signal to copy, no
        pending side effect).  Wiring registered without one is treated
        as always-active and disables fast-forward for the exact engine
        (and pins the event engine to per-cycle execution).

        ``source`` is the event-mode locality contract: it declares
        that ``transfer`` is a provable no-op on any cycle the source
        component did not step (a router that did not step has empty
        link outputs).  The event scheduler then runs the wiring only
        on cycles its source stepped.  Wiring without a source runs on
        every executed cycle.

        ``sinks`` names the components whose inputs ``transfer`` can
        write (a sequence, or a callable returning one for dynamic
        sets); they are requeried after every cycle the wiring ran, so
        a delivered signal schedules its consumer for the next cycle.
        """
        self._wiring.append(transfer)
        self._wiring_idle_checks.append(idle_check)
        index = len(self._wiring) - 1
        self._wiring_sources.append(source)
        self._wiring_sinks.append(sinks)
        if source is None:
            self._sourceless_wirings.append(index)
        else:
            self._source_wirings.setdefault(source, []).append(index)
        self._refresh_ff_capability()

    def wake(self, component: Steppable) -> None:
        """Ask the event scheduler to requery a component.

        Call after mutating a component from *outside* its own step —
        queueing packets on a host, injecting into a router — so its
        ``next_event_cycle`` is re-read at the next cycle boundary.
        Cheap and idempotent; a no-op in exact mode and for
        unregistered components.
        """
        self._pending_wakes.add(component)

    def _refresh_ff_capability(self) -> None:
        self._ff_capable = (
            all(hasattr(c, "next_event_cycle") for c in self._components)
            and all(check is not None for check in self._wiring_idle_checks)
        )
        # A registration change can create a newly-idle configuration;
        # forget any backoff so the next cycle re-evaluates fresh.
        self._ff_retry_cycle = 0
        self._ff_backoff = 1

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def state(self) -> dict:
        """Checkpoint state (see ``docs/checkpointing.md``).

        The event scheduler's queue is deliberately absent: it is a
        pure function of component state and is rebuilt from
        ``next_event_cycle`` at every run entry, so a restored session
        re-seeds it for free.
        """
        return {
            "cycle": self.cycle,
            "cycles_stepped": self.cycles_stepped,
            "cycles_fast_forwarded": self.cycles_fast_forwarded,
            "ff_retry_cycle": self._ff_retry_cycle,
            "ff_backoff": self._ff_backoff,
        }

    def load_state(self, state: dict) -> None:
        """Overlay checkpointed engine state.

        Must run *after* every component and wiring registration —
        registering resets the fast-forward backoff, which this
        restores to its checkpointed value.
        """
        self.cycle = int(state["cycle"])
        self.cycles_stepped = int(state["cycles_stepped"])
        self.cycles_fast_forwarded = int(state["cycles_fast_forwarded"])
        self._ff_retry_cycle = int(state["ff_retry_cycle"])
        self._ff_backoff = int(state["ff_backoff"])

    # ------------------------------------------------------------------
    # The per-cycle loop and the exact-mode fast path
    # ------------------------------------------------------------------

    def _step_once(self) -> None:
        # Snapshot so add/remove_component from inside a step cannot
        # skip or double-step a neighbour (mutation during iteration).
        for component in tuple(self._components):
            component.step(self.cycle)
        for transfer in self._wiring:
            transfer()
        self.cycle += 1
        self.cycles_stepped += 1

    def _idle_horizon(self) -> Optional[float]:
        """Earliest future cycle at which anything can happen.

        Returns ``None`` when some component or wiring has work *now*
        (the engine must run the normal per-cycle loop), a cycle number
        when every component is quiescent until then, or ``math.inf``
        when the whole fabric is quiescent with no scheduled events at
        all — pure time passage.
        """
        bound: Optional[float] = None
        for component in self._components:
            nxt = component.next_event_cycle(self.cycle)
            if nxt is None:
                continue
            if nxt <= self.cycle:
                return None
            if bound is None or nxt < bound:
                bound = nxt
        for check in self._wiring_idle_checks:
            if not check():
                return None
        return bound if bound is not None else math.inf

    def _try_fast_forward(self, limit: int) -> bool:
        """Jump to the next event (capped at ``limit``) if provably idle."""
        if not (self.fast_forward and self._ff_capable):
            return False
        if self.cycle < self._ff_retry_cycle:
            return False
        bound = self._idle_horizon()
        if bound is None or bound <= self.cycle:
            self._ff_retry_cycle = self.cycle + self._ff_backoff
            self._ff_backoff = min(self._ff_backoff * 2,
                                   self._FF_BACKOFF_CAP)
            return False
        jump = int(min(bound, limit))
        if jump <= self.cycle:
            return False
        self._ff_backoff = 1
        self._ff_retry_cycle = 0
        self.cycles_fast_forwarded += jump - self.cycle
        self.cycle = jump
        return True

    # ------------------------------------------------------------------
    # The event-driven scheduler
    # ------------------------------------------------------------------

    def _event_requery(self, component, now: int) -> None:
        """Re-read one component's ``next_event_cycle`` and (re)schedule.

        ``None`` unschedules; an answer at or before ``now`` schedules
        for ``now``.  Over-scheduling is always safe (stepping a
        quiescent component is a no-op by the contract), so staleness
        handling only ever errs toward extra steps, never missed ones.
        """
        if component not in self._order:
            return  # removed since the wake/sink reference was taken
        probe = getattr(component, "next_event_cycle", None)
        nxt = probe(now) if probe is not None else now
        if nxt is None:
            self._sched.pop(component, None)
            return
        when = nxt if nxt > now else now
        if self._sched.get(component) == when:
            return  # already queued for that cycle
        self._sched[component] = when
        self._push_seq += 1
        heapq.heappush(self._heap,
                       (when, self._order[component], self._push_seq,
                        component))

    def _event_full_requery(self) -> None:
        """Rebuild the queue from scratch (run entry; watcher stepped)."""
        self._heap.clear()
        self._sched.clear()
        self._pending_wakes.clear()
        now = self.cycle
        for component in self._components:
            self._event_requery(component, now)

    def _event_next_due(self) -> Optional[int]:
        """Earliest scheduled cycle, discarding stale heap entries."""
        heap = self._heap
        while heap:
            when, _, _, component = heap[0]
            if self._sched.get(component) == when:
                return when
            heapq.heappop(heap)
        return None

    def _event_wirings_idle(self) -> bool:
        """May the scheduler jump past source-less wiring right now?

        Wiring with a declared source is covered by its source's
        schedule; source-less wiring must be gated on its
        ``idle_check`` — and without one it pins per-cycle execution.
        """
        for index in self._sourceless_wirings:
            check = self._wiring_idle_checks[index]
            if check is None or not check():
                return False
        return True

    def _event_step_once(self) -> None:
        """Execute one cycle: due components, their wiring, requeries."""
        now = self.cycle
        heap = self._heap
        batch: list = []  # (order, component) min-heap: firing order
        batched: set = set()
        while heap and heap[0][0] <= now:
            when, order, _, component = heapq.heappop(heap)
            if self._sched.get(component) != when:
                continue  # superseded by a later requery
            del self._sched[component]
            if component not in batched:
                batched.add(component)
                heapq.heappush(batch, (order, component))
        stepped: list = []
        while batch:
            order, component = heapq.heappop(batch)
            component.step(now)
            stepped.append(component)
            # In-cycle cascade: a step can hand work directly to a
            # peer *later* in the firing order (a host injecting into
            # its router), which the exact engine — where everything
            # steps every executed cycle — processes this same cycle.
            # Peers earlier in the order have already had their exact
            # firing slot; they are requeried for the next cycle below.
            for partner in self._peers.get(component, ()):
                if partner in batched or partner not in self._order:
                    continue
                partner_order = self._order[partner]
                if partner_order <= order:
                    continue
                probe = getattr(partner, "next_event_cycle", None)
                nxt = probe(now) if probe is not None else now
                if nxt is not None and nxt <= now:
                    batched.add(partner)
                    heapq.heappush(batch, (partner_order, partner))
        run_indices = list(self._sourceless_wirings)
        for component in stepped:
            indices = self._source_wirings.get(component)
            if indices:
                run_indices.extend(indices)
        run_indices.sort()  # wiring order == registration order
        wiring = self._wiring
        for index in run_indices:
            wiring[index]()
        self.cycle += 1
        self.cycles_stepped += 1
        # Requery everything this cycle could have affected.  A watcher
        # step may mutate arbitrary components (fault injection,
        # retransmission), so it escalates to a full rebuild.
        if any(component in self._watchers for component in stepped):
            self._event_full_requery()
            return
        now = self.cycle
        requery = set(stepped)
        for component in stepped:
            requery.update(self._peers.get(component, ()))
        for index in run_indices:
            sinks = self._wiring_sinks[index]
            if sinks is None:
                continue
            requery.update(sinks() if callable(sinks) else sinks)
        requery.update(self._pending_wakes)
        self._pending_wakes.clear()
        for component in requery:
            self._event_requery(component, now)
        for component in self._watchers:
            self._event_requery(component, now)

    def _event_advance(self, limit: int) -> bool:
        """Jump to the next scheduled event (capped at ``limit``).

        Returns True if the clock moved; False means something is due
        right now and the caller must execute the current cycle.
        """
        due = self._event_next_due()
        if due is not None and due <= self.cycle:
            return False
        if not self._event_wirings_idle():
            return False
        jump = limit if due is None else min(due, limit)
        if jump <= self.cycle:
            return False
        self.cycles_fast_forwarded += jump - self.cycle
        self.cycle = jump
        return True

    def _event_run(self, target: int) -> None:
        self._event_full_requery()
        while self.cycle < target:
            if self._event_advance(target):
                continue
            self._event_step_once()

    def _event_run_until(self, predicate: Callable[[], bool],
                         deadline: int, max_cycles: int) -> int:
        self._event_full_requery()
        while True:
            if self.cycle >= deadline:
                raise TimeoutError(
                    f"condition not reached within {max_cycles} cycles"
                )
            if self._event_advance(deadline):
                if predicate():
                    return self.cycle
                continue
            self._event_step_once()
            if predicate():
                return self.cycle

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------

    def run(self, cycles: int) -> int:
        """Advance the fabric ``cycles`` cycles; returns the new time."""
        if cycles < 0:
            raise ValueError("cannot run a negative number of cycles")
        target = self.cycle + cycles
        if self.mode == "event":
            self._event_run(target)
            return self.cycle
        while self.cycle < target:
            if self._try_fast_forward(target):
                continue
            self._step_once()
        return self.cycle

    def run_until(self, predicate: Callable[[], bool],
                  max_cycles: int = 1_000_000) -> int:
        """Run until ``predicate()`` holds; raises on timeout.

        Evaluation contract — identical in both engine modes: the
        predicate is evaluated once *before* any stepping (so a
        condition that already holds returns immediately, advancing
        zero cycles) and then *after* every executed cycle — i.e.
        post-step, with that cycle's component work and wiring applied
        and ``self.cycle`` already incremented.  The returned cycle is
        therefore the first cycle count at which the predicate was
        observed true.

        Across a skipped span (a fast-forward jump in exact mode, a
        scheduler jump in event mode) the predicate is evaluated at the
        span's end only.  Component state is constant over such a span,
        so any predicate that is a function of component/network state
        sees no difference; a predicate that reads the raw cycle count
        (e.g. ``lambda: engine.cycle >= n``) may be observed late — use
        :meth:`run` for fixed-duration waits instead.

        ``max_cycles`` bounds the *actual cycles advanced* (stepped
        plus skipped) before :class:`TimeoutError` is raised — again
        identically in both modes.
        """
        if max_cycles < 0:
            raise ValueError("max_cycles must be non-negative")
        if predicate():
            return self.cycle
        deadline = self.cycle + max_cycles
        if self.mode == "event":
            return self._event_run_until(predicate, deadline, max_cycles)
        while True:
            if self.cycle >= deadline:
                raise TimeoutError(
                    f"condition not reached within {max_cycles} cycles"
                )
            if self._try_fast_forward(deadline):
                if predicate():
                    return self.cycle
                continue
            self._step_once()
            if predicate():
                return self.cycle
