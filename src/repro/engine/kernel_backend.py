"""Kernel backend: sans-I/O cores driven by the deterministic sim kernel.

:class:`KernelEngine` is the reference execution backend.  It owns the
messaging semantics of the paper's system model (Section 3) — authenticated
reliable channels, causal-depth accounting, metrics, the delivery log — and
delegates the event queue, the clock, the seeded RNG and the fault state to
:class:`repro.sim.SimKernel`.  It replaces the retired ``Network`` +
``SimulationRuntime`` shim pair with a single dispatch layer: one kernel
event pop, one core handler call, one :func:`~repro.engine.effects.interpret`
pass with the engine as the effect sink.  Registration, fault scripting and
the ``run_until_*`` helpers come from :class:`~repro.engine.services.EngineBase`.

Guarantees provided (matching the model):

* **Reliable channels** — every ``Send`` effect is eventually delivered
  exactly once; crashes and partitions only *hold* traffic (released on
  recovery / heal), so a fault is indistinguishable from a long delay.
* **Authenticated channels** — the receiver learns the true sender: the
  interpreter applies effects under the identity of the core that emitted
  them, so a Byzantine core cannot forge the sender field.
* **Deterministic replay** — delivery order and timing come from a pluggable
  :class:`~repro.sim.scheduler.Scheduler` driven by the kernel's seeded RNG;
  a run is a pure function of (cores, seed, scheduler, fault plan).  Seed
  runs replay the retired shim path bit for bit (golden-trace pinned).
"""

from __future__ import annotations

import time
from collections.abc import Callable, Hashable
from typing import Any

from repro.engine.delays import DelayModel
from repro.engine.effects import TimerHandle, interpret
from repro.engine.envelope import Envelope
from repro.engine.services import (
    CRASH,
    HEAL,
    INJECT,
    PARTITION,
    RECOVER,
    TIME_SIMULATED,
    EngineBase,
    RunResult,
    SimulatedClock,
)
from repro.metrics.collector import MetricsCollector
from repro.sim.events import (
    Event,
    Inject,
    MessageDelivery,
    NodeCrash,
    NodeRecover,
    PartitionHeal,
    PartitionStart,
    Timer,
)
from repro.sim.kernel import SimKernel
from repro.sim.scheduler import Scheduler


__all__ = ["KernelEngine", "RunResult"]

#: Scripted control kind -> the kernel event that carries it.
_CONTROL_EVENTS = {
    CRASH: NodeCrash,
    RECOVER: NodeRecover,
    PARTITION: PartitionStart,
    HEAL: lambda _arg: PartitionHeal(),
    INJECT: Inject,
}


class KernelEngine(EngineBase):
    """Reference backend: protocol cores on the deterministic sim kernel."""

    name = "kernel"
    time_source = TIME_SIMULATED

    def __init__(
        self,
        delay_model: DelayModel | None = None,
        seed: int = 0,
        metrics: MetricsCollector | None = None,
        scheduler: Scheduler | None = None,
    ) -> None:
        super().__init__(delay_model, metrics, scheduler)
        self._seq = 0
        self._kernel = SimKernel(seed=seed)
        self._clock = SimulatedClock(lambda: self._kernel.now)
        self._delivery_log: list[Envelope] = []

    @property
    def rng(self):
        """The run's seeded random number generator (shared with scheduler)."""
        return self._kernel.rng

    @property
    def kernel(self) -> SimKernel:
        """The underlying discrete-event kernel (queue, clock, fault state)."""
        return self._kernel

    @property
    def delivery_log(self) -> list[Envelope]:
        """Every delivered envelope, in delivery order (for trace tests)."""
        return self._delivery_log

    @property
    def _partition_groups(self) -> tuple[frozenset, ...]:
        return self._kernel.partition_groups

    # -- the effect sink -----------------------------------------------------------

    def send(self, sender: Hashable, dest: Hashable, payload: Any, depth: int) -> Envelope:
        """Queue one message from ``sender`` to ``dest`` carrying causal ``depth``."""
        if dest not in self._nodes:
            raise ValueError(f"unknown destination {dest!r}")
        kernel = self._kernel
        self._seq += 1
        envelope = Envelope(
            sender=sender,
            dest=dest,
            payload=payload,
            send_time=kernel.now,
            depth=depth,
            seq=self._seq,
            shard=self._group_of.get(sender, 0),
        )
        delay = self._scheduler.delay(envelope, kernel.rng)
        # Inline invalid_time(): this runs once per send, the hottest path.
        if delay < 0 or delay != delay or delay == float("inf"):
            raise ValueError(f"scheduler produced invalid delay {delay!r}")
        kernel.schedule_at(MessageDelivery(envelope), kernel.now + delay)
        kernel.pending_messages += 1
        self.metrics.record_send(sender, dest, envelope.mtype, envelope)
        return envelope

    def submit(self, sender: Hashable, dest: Hashable, payload: Any) -> Envelope:
        """Queue one message from ``sender`` to ``dest`` (harness API).

        The message carries ``sender``'s causal depth plus one, exactly as
        if ``sender``'s core had emitted the ``Send``.
        """
        return self.send(sender, dest, payload, self._nodes[sender].causal_depth + 1)

    def arm_timer(self, pid: Hashable, delay: float, handle: TimerHandle) -> None:
        timer = Timer(pid, handle.tag, handle.payload)
        handle.bind(timer)
        self._kernel.schedule(timer, delay)

    def _push_control(self, at: float | None, kind: int, arg: Any) -> Event:
        event = _CONTROL_EVENTS[kind](arg)
        return self._kernel.schedule_at(event, self._kernel.now if at is None else at)

    # -- running -------------------------------------------------------------------

    def pending(self) -> int:
        """Number of messages currently in flight (including held ones)."""
        return self._kernel.pending_messages

    def process_next_event(self) -> tuple[Event | None, Envelope | None]:
        """Pop and process exactly one kernel event.

        Returns ``(event, delivered_envelope)``: the envelope is non-``None``
        only when the event resulted in an actual message delivery (a
        delivery held back by a crash or partition processes the event but
        delivers nothing).  ``(None, None)`` means the queue is exhausted.
        """
        if not self._started:
            self.start()
        event = self._kernel.pop()
        if event is None:
            return None, None
        return event, self._dispatch(event)

    #: Safety valve for :meth:`step`: a scenario whose queue only ever yields
    #: non-delivery events (e.g. a self-rearming retry timer whose messages
    #: are all held by a never-healed partition) would otherwise spin forever
    #: inside one call.  Exceeding this is a scenario bug, reported loudly.
    MAX_EVENTS_PER_STEP = 100_000

    def step(self) -> Envelope | None:
        """Deliver the next message (or return ``None`` if the queue is empty).

        Non-message events (timers, faults, injections) encountered along the
        way are processed transparently, preserving the seed semantics of
        "advance the simulation by one delivery".  If ``MAX_EVENTS_PER_STEP``
        events pass without a single delivery, a :class:`RuntimeError` is
        raised instead of looping forever (use :meth:`run`, whose event valve
        stops such runs gracefully).
        """
        if not self._started:
            self.start()
        pop = self._kernel.pop
        dispatch = self._dispatch
        stalled = 0
        while True:
            event = pop()
            if event is None:
                return None
            envelope = dispatch(event)
            if envelope is not None:
                return envelope
            stalled += 1
            if stalled >= self.MAX_EVENTS_PER_STEP:
                raise RuntimeError(
                    f"no message delivered within {stalled} events: the "
                    "scenario generates timer/fault events forever while "
                    "every message stays held (crashed node or unhealed "
                    "partition?)"
                )

    def run(
        self,
        stop_when: Callable[[], bool] | None = None,
        max_messages: int = 200_000,
        max_events: int | None = None,
    ) -> RunResult:
        """Process events until the stop condition, quiescence or a cap.

        Stops when the predicate returns ``True`` (e.g. "all correct
        proposers have decided"), when the kernel queue is exhausted, or when
        the ``max_messages`` / ``max_events`` safety valves trip (which tests
        treat as a liveness failure).  Because event order is entirely
        determined by the kernel's seeded scheduler, a run is a pure function
        of (cores, seed, scheduler, fault plan).
        """
        self.start()
        if max_events is None:
            max_events = max_messages * 8
        delivered = 0
        events = 0
        stopped = False
        exhausted = False
        started_wall = time.perf_counter()
        while delivered < max_messages and events < max_events:
            if stop_when is not None and stop_when():
                stopped = True
                break
            event, envelope = self.process_next_event()
            if event is None:
                exhausted = True
                break
            events += 1
            if envelope is not None:
                delivered += 1
        return RunResult(
            delivered=delivered,
            end_time=self.now,
            stopped_by_predicate=stopped,
            pending_messages=self.pending(),
            events=events,
            events_capped=not stopped and not exhausted and events >= max_events,
            wall_time_s=time.perf_counter() - started_wall,
            metrics=self.metrics,
        )

    # -- event dispatch ---------------------------------------------------------------

    def _dispatch(self, event: Event) -> Envelope | None:
        kernel = self._kernel
        cls = event.__class__
        if cls is MessageDelivery:
            envelope = event.envelope
            dest = envelope.dest
            if dest in kernel.crashed:
                kernel.hold_for_node(dest, event)
                return None
            if kernel.partition_groups and self._link_blocked(envelope.sender, dest):
                kernel.hold_for_partition(event)
                return None
            envelope.deliver_time = kernel.now
            receiver = self._nodes[dest]
            if receiver.causal_depth < envelope.depth:
                receiver.causal_depth = envelope.depth
            kernel.pending_messages -= 1
            self.metrics.record_delivery(envelope.sender, dest, envelope.mtype)
            self._delivery_log.append(envelope)
            receiver.now = kernel.now
            receiver.on_message(envelope.sender, envelope.payload)
            if receiver._out:
                interpret(receiver, self)
            return envelope
        if cls is Timer:
            pid = event.pid
            if pid in kernel.crashed:
                kernel.hold_for_node(pid, event)
                return None
            core = self._nodes[pid]
            core.now = kernel.now
            core.on_timer(event.tag, event.payload)
            if core._out:
                interpret(core, self)
            return None
        if cls is NodeCrash:
            if event.pid not in kernel.crashed:
                kernel.apply_crash(event.pid)
                core = self._nodes[event.pid]
                core.now = kernel.now
                core.on_crash()
                if core._out:
                    interpret(core, self)
            return None
        if cls is NodeRecover:
            if event.pid in kernel.crashed:
                kernel.apply_recover(event.pid)
                core = self._nodes[event.pid]
                core.now = kernel.now
                core.on_recover()
                if core._out:
                    interpret(core, self)
            return None
        if cls is PartitionStart:
            kernel.apply_partition(event.groups)
            return None
        if cls is PartitionHeal:
            kernel.apply_heal()
            return None
        if cls is Inject:
            event.fn(self)
            return None
        raise TypeError(f"unknown event type {cls.__name__}")  # pragma: no cover
