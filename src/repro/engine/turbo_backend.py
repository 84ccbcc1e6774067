"""Turbo backend: the simulated-time event loop for protocol cores.

:class:`TurboEngine` owns the only deterministic event loop in the repo: a
seeded RNG, delay-model draws, ``(time, seq)`` tie-breaking and the
crash/partition hold semantics of the paper's model (faults only hold
traffic).  The kernel backend is this loop plus recording
(:mod:`repro.engine.kernel_backend`), and the async backend's memory
transport is the kernel on a wall clock (:mod:`repro.engine.async_backend`).
Turbo itself carries no per-message object:

* **no envelopes** — a message in flight is one calendar tuple
  ``(time, seq, kind, dest_index, sender, payload, depth)``; a single
  preallocated probe envelope is reused (fields overwritten per send) to
  interrogate :class:`~repro.engine.delays.DelayModel` strategies that
  read the envelope;
* **no per-message bucket** — the calendar (after Brown's calendar queue,
  CACM 1988) is a heap of distinct due times plus one slot per time.  An
  entry alone on its time is stored bare, as the calendar tuple itself; a
  FIFO deque exists only for a time that a second entry lands on, as a
  fixed delay's broadcast burst does.  Under a random delay almost every
  time is distinct, so a message in flight costs its tuple, its due time
  and a dict slot, not a deque besides.  Pops follow ``(time, seq)``
  exactly, whichever shape a slot has;
* **no event objects** — timers, crashes, partitions and injections are
  calendar tuples too, discriminated by an integer kind;
* **interned node ids** — destinations resolve to list indices once at send
  time; the dispatch loop indexes a flat core list;
* **no per-message accounting objects** — no delivery log, no per-type or
  per-delivery or payload-size metrics; sends are tallied as one integer
  increment per message (flushed into the collector after the run) so the
  message-complexity experiments still read ``sent_by_process``, and
  decisions/outputs are recorded as they happen, so stop predicates and
  invariant checks keep working.

Effects reach the calendar through the one shared interpreter
(:func:`repro.engine.effects.interpret`), with the engine as its sink: the
per-event work turbo sheds is objects, not a second effect path.  Its
``send`` and ``broadcast`` sink methods write calendar tuples directly, and
a core's ``members`` are interned on its first broadcast as
``(dest_index, pid)`` pairs.  Registration, fault scripting and the
``run_until_*`` helpers come from :class:`~repro.engine.services.EngineBase`.

What turbo does *not* keep is a delivery log or per-type/size metrics.  The
kernel backend keeps both through one delivery hook (:attr:`TurboEngine.
_record_delivery`, ``None`` here) and an envelope in an eighth calendar slot;
recording draws no random number and takes no sequence number, so a kernel
run and a turbo run of the same (cores, seed, delay model, fault plan) follow
one schedule.  Use the kernel backend for trace-level debugging and
message-type or payload-size analysis.  A second hook
(:attr:`TurboEngine._stamp`, ``None`` here) replaces the event's simulated
time with a clock reading in every handler's ``core.now`` and in the
delivery hook: the async memory transport sets it to its wall clock, so it
replays this schedule while reporting wall-clock times.
"""

from __future__ import annotations

import time as _time
from collections import deque
from collections.abc import Callable, Hashable
from heapq import heappop, heappush
from random import Random
from typing import Any

from repro.engine.delays import DelayModel, FixedDelay, UniformDelay
from repro.engine.effects import TimerHandle, interpret, invalid_time, members_of
from repro.engine.envelope import Envelope
from repro.engine.services import (
    CRASH,
    HEAL,
    PARTITION,
    RECOVER,
    TIME_SIMULATED,
    EngineBase,
    RunResult,
    SimulatedClock,
)
from repro.metrics.collector import MetricsCollector

#: Heap-entry kinds (slot 2 of every queue tuple); scripted controls use
#: the shared kinds of :mod:`repro.engine.services`.
_MESSAGE = 0
_TIMER = 1


class TurboEngine(EngineBase):
    """The simulated-time backend: one fused event loop, no per-message objects."""

    name = "turbo"
    time_source = TIME_SIMULATED
    #: One line of the generated ``backend`` help (:mod:`repro.engine.backends`).
    summary = "fast path: identical schedule, no per-message objects"
    #: Delivery hook ``(entry, time)``, called before ``on_message``; ``None``
    #: here, the kernel backend's recording otherwise.
    _record_delivery: Callable[[tuple, float], None] | None = None
    #: Time-stamp hook: when set, every handler's ``core.now`` (and the time
    #: handed to the delivery hook) is its reading instead of the event's
    #: simulated time.  ``None`` here; the async memory transport's wall clock.
    _stamp: Callable[[], float] | None = None

    def __init__(
        self,
        delay_model: DelayModel | None = None,
        seed: int = 0,
        metrics: MetricsCollector | None = None,
    ) -> None:
        super().__init__(delay_model, metrics)
        self.rng = Random(seed)
        #: Calendar queue: a heap of *distinct due times* plus one slot per
        #: time in ``_buckets``.  A time holding one ``(time, seq, kind, ...)``
        #: entry stores that tuple itself; a second entry on the same time
        #: turns the slot into a FIFO deque.  Same-time entries pop in
        #: append order, which equals seq order (``seq`` is monotonic), so
        #: the schedule is identical to a flat ``(time, seq)`` heap — but a
        #: large-n broadcast burst under a fixed delay costs one sift plus
        #: n-1 plain appends instead of n sifts, the heap compares bare
        #: floats instead of tuples, and a message alone on its time (the
        #: common case under a random delay) pays for no deque.
        self._times: list[float] = []
        self._buckets: dict[float, tuple | deque] = {}
        self._seq = 0
        self._now = 0.0
        self._clock = SimulatedClock(lambda: self._now)
        #: Indices of processes currently down.
        self._crashed: set = set()
        self._partition_groups: tuple[frozenset, ...] = ()
        self._held_for_node: dict[int, list[tuple]] = {}
        self._held_for_partition: list[tuple] = []
        self.pending_messages = 0
        #: Per-sender send *counts* (one int increment per send — no
        #: per-message accounting objects), flushed into ``metrics`` after a
        #: run; decisions are recorded as they happen, so stop predicates,
        #: latency invariants and the message-complexity experiments work.
        #: Per-type, per-delivery and size accounting are skipped by design
        #: (the kernel backend records those).
        self._sent: dict[Hashable, int] = {}
        #: Each broadcasting core's ``members`` as ``(dest_index, pid)``
        #: pairs, interned on its first broadcast.  A broadcast draws the
        #: same delays and seq numbers, in the same order, as one ``send``
        #: per member would.
        self._scopes: dict[Hashable, tuple[tuple[int, Hashable], ...]] = {}
        #: The one reusable envelope handed to delay models: its
        #: fields are overwritten per send and its lazy caches reset, so no
        #: per-message envelope is ever allocated.
        self._probe = Envelope(sender=None, dest=None, payload=None, send_time=0.0)
        #: Message-only ``Envelope.seq`` counter (the kernel backend numbers
        #: its envelopes with it too), so seq-reading delay models see
        #: identical values on both.
        self._msg_seq = 0
        # Envelope-free fast paths for the two stock delay models: neither
        # reads the envelope, so the probe round-trip can be skipped without
        # changing a single RNG draw (FixedDelay draws nothing; UniformDelay
        # draws exactly one ``random()`` per send on both paths).  The
        # uniform path keeps ``(low, high - low)`` and computes
        # ``low + span * random()``, which is ``Random.uniform``'s own
        # formula: the same float, minus a method call per send.  A subclass
        # may override ``delay``, so it takes the probe path.
        model = self._delay_model
        self._fixed_delay = model._value if type(model) is FixedDelay else None
        self._uniform_bounds = (model._low, model._high - model._low) if type(model) is UniformDelay else None

    # -- the calendar queue -------------------------------------------------------

    def _enqueue(self, entry: tuple) -> None:
        """File ``entry`` under its due time: bare if alone, else in a deque."""
        due = entry[0]
        slot = self._buckets.setdefault(due, entry)
        if slot is entry:
            heappush(self._times, due)
        elif slot.__class__ is tuple:
            self._buckets[due] = deque((slot, entry))
        else:
            slot.append(entry)

    def _head(self) -> tuple:
        """The calendar's earliest entry, left in place (the calendar must not be empty)."""
        head = self._buckets[self._times[0]]
        return head if head.__class__ is tuple else head[0]

    def _pop(self) -> tuple:
        """Remove and return the calendar's earliest entry (the calendar must not be empty).

        :meth:`run` inlines this; the async backend's TCP transport pops here.
        """
        due = self._times[0]
        slot = self._buckets[due]
        if slot.__class__ is tuple:
            entry = slot
        else:
            entry = slot.popleft()
            if slot:
                return entry
        heappop(self._times)
        del self._buckets[due]
        return entry

    def _delay_for(self, sender: Hashable, dest: Hashable, payload: Any, depth: int) -> float:
        """One delay-model consultation via the reusable probe envelope.

        The probe carries the same field values (including the message-only
        ``seq``) the kernel backend's envelope does, so even a delay model
        that reads every envelope field sees an identical schedule.  The
        counter lives here — every send consults the model exactly once
        on this path — and is skipped entirely by the envelope-free
        FixedDelay/UniformDelay fast paths, which never read the probe.
        """
        self._msg_seq += 1
        probe = self._probe
        probe.sender = sender
        probe.dest = dest
        probe.payload = payload
        probe.send_time = self._now
        probe.depth = depth
        probe.seq = self._msg_seq
        probe._size = None
        probe._mtype = None
        delay = self._delay_model.delay(probe, self.rng)
        if invalid_time(delay):
            raise ValueError(f"delay model produced invalid delay {delay!r}")
        return delay

    # -- the effect sink ------------------------------------------------------------

    def send(self, sender: Hashable, dest: Hashable, payload: Any, depth: int) -> None:
        dest_index = self._index.get(dest)
        if dest_index is None:
            raise ValueError(f"unknown destination {dest!r}")
        delay = self._fixed_delay
        if delay is None:
            bounds = self._uniform_bounds
            if bounds is not None:
                delay = bounds[0] + bounds[1] * self.rng.random()
            else:
                delay = self._delay_for(sender, dest, payload, depth)
        self._seq = seq = self._seq + 1
        self._enqueue((self._now + delay, seq, _MESSAGE, dest_index, sender, payload, depth))
        self.pending_messages += 1
        self._sent[sender] += 1

    def _scope(self, sender: Hashable) -> tuple[tuple[int, Hashable], ...]:
        """Intern ``sender``'s members as ``(dest_index, pid)`` pairs."""
        index = self._index
        try:
            scope = self._scopes[sender] = tuple((index[dest], dest) for dest in members_of(self._nodes[sender]))
        except KeyError as unknown:
            raise ValueError(f"unknown destination {unknown.args[0]!r}") from None
        return scope

    def broadcast(self, sender: Hashable, payload: Any, depth: int) -> None:
        # The hot fan-out: every hoisted local below is read once per
        # destination, and the stock delay models never touch the probe.
        scope = self._scopes.get(sender) or self._scope(sender)
        fixed = self._fixed_delay
        uniform = self._uniform_bounds
        if uniform is not None:
            low, span = uniform
        rng_random = self.rng.random
        times = self._times
        buckets = self._buckets
        file_under = buckets.setdefault
        now = self._now
        seq = self._seq
        for dest_index, dest in scope:
            if fixed is not None:
                delay = fixed
            elif uniform is not None:
                delay = low + span * rng_random()
            else:
                delay = self._delay_for(sender, dest, payload, depth)
            seq += 1
            due = now + delay
            entry = (due, seq, _MESSAGE, dest_index, sender, payload, depth)
            # ``_enqueue``, inlined.
            slot = file_under(due, entry)
            if slot is entry:
                heappush(times, due)
            elif slot.__class__ is tuple:
                buckets[due] = deque((slot, entry))
            else:
                slot.append(entry)
        self._seq = seq
        self.pending_messages += len(scope)
        self._sent[sender] += len(scope)

    def arm_timer(self, pid: Hashable, delay: float, handle: TimerHandle) -> None:
        self._seq += 1
        self._enqueue((self._now + delay, self._seq, _TIMER, self._index[pid], handle))

    # -- faults (held traffic is delayed, never lost) --------------------------------

    def _push_control(self, at: float | None, kind: int, arg: Any) -> None:
        due = self._now if at is None else at
        if due < self._now or invalid_time(due):
            raise ValueError(f"invalid event time {due!r} (now={self._now!r})")
        self._seq += 1
        self._enqueue((due, self._seq, kind, arg))

    def _release(self, entries: list[tuple]) -> None:
        """Re-queue held entries in hold order at the current time."""
        for entry in entries:
            if entry[2] == _TIMER and entry[4].cancelled:
                continue
            self._seq += 1
            self._enqueue((self._now, self._seq) + entry[2:])

    # -- running -------------------------------------------------------------------

    def start(self) -> None:
        """Zero the send counters, then hand every core its start event."""
        if not self._started:
            self._sent = dict.fromkeys(self._pids, 0)
        super().start()

    def run(
        self,
        stop_when: Callable[[], bool] | None = None,
        max_messages: int = 200_000,
        max_events: int | None = None,
    ) -> RunResult:
        """Process events until the stop condition, quiescence or a cap.

        Stops when the predicate returns ``True`` (e.g. "all correct
        proposers have decided"), when the calendar is exhausted, or when the
        ``max_messages`` / ``max_events`` safety valves trip (which tests
        treat as a liveness failure).  Because event order is entirely
        determined by the seeded delay model, a run is a pure function of
        (cores, seed, delay model, fault plan).
        """
        self.start()
        if max_events is None:
            max_events = max_messages * 8
        times = self._times
        buckets = self._buckets
        cores = self._cores
        crashed = self._crashed
        record_delivery = self._record_delivery
        stamp = self._stamp
        bucket = None
        delivered = 0
        events = 0
        stopped = False
        exhausted = False
        started_wall = _time.perf_counter()
        # ``while True`` with the caps tested inside: CPython 3.11 counts an
        # unconditional back edge toward specializing the loop, so a
        # process's first run is as fast as its eighth (``while cond:`` is
        # only warmed up by re-entering the function).
        while True:
            if delivered >= max_messages or events >= max_events:
                break
            if stop_when is not None and stop_when():
                stopped = True
                break
            if not times:
                exhausted = True
                break
            # A bare entry retires its time at once.  A shared time's deque
            # drains entry by entry from ``bucket``, touching the dict and
            # the heap only when it empties (a same-timestamp run costs one
            # sift in all).  While it holds entries its time is still the
            # calendar's head: nothing is ever filed before ``_now``.
            if bucket:
                entry = bucket.popleft()
            else:
                entry = buckets[times[0]]
                if entry.__class__ is not tuple:
                    bucket = entry
                    entry = bucket.popleft()
            time = entry[0]
            if not bucket:
                heappop(times)
                del buckets[time]
            kind = entry[2]
            if kind == _TIMER and entry[4].cancelled:
                continue
            if time > self._now:
                self._now = time
            if stamp is not None:
                time = stamp()
            events += 1
            if kind == _MESSAGE:
                dest_index = entry[3]
                if dest_index in crashed:
                    self._held_for_node.setdefault(dest_index, []).append(entry)
                    continue
                sender = entry[4]
                core = cores[dest_index]
                if self._partition_groups and self._link_blocked(sender, core.pid):
                    self._held_for_partition.append(entry)
                    continue
                depth = entry[6]
                if core.causal_depth < depth:
                    core.causal_depth = depth
                self.pending_messages -= 1
                if record_delivery is not None:
                    record_delivery(entry, time)
                core.now = time
                core.on_message(sender, entry[5])
                if core._out:
                    interpret(core, self)
                delivered += 1
            elif kind == _TIMER:
                dest_index = entry[3]
                if dest_index in crashed:
                    self._held_for_node.setdefault(dest_index, []).append(entry)
                    continue
                handle = entry[4]
                core = cores[dest_index]
                core.now = time
                core.on_timer(handle.tag, handle.payload)
                if core._out:
                    interpret(core, self)
            elif kind == CRASH:
                index = self._index[entry[3]]
                if index not in crashed:
                    crashed.add(index)
                    core = cores[index]
                    core.now = time
                    core.on_crash()
                    if core._out:
                        interpret(core, self)
            elif kind == RECOVER:
                index = self._index[entry[3]]
                if index in crashed:
                    crashed.discard(index)
                    # Held traffic is re-queued before the recovery hook
                    # runs, so it takes the lower seq numbers.
                    held = self._held_for_node.pop(index, None)
                    if held:
                        self._release(held)
                    core = cores[index]
                    core.now = time
                    core.on_recover()
                    if core._out:
                        interpret(core, self)
            elif kind == PARTITION:
                self._partition_groups = entry[3]
                held, self._held_for_partition = self._held_for_partition, []
                self._release(held)
            elif kind == HEAL:
                self._partition_groups = ()
                held, self._held_for_partition = self._held_for_partition, []
                self._release(held)
            else:  # INJECT
                entry[3](self)
        self._flush_send_counts()
        return RunResult(
            delivered=delivered,
            end_time=self._now,
            stopped_by_predicate=stopped,
            pending_messages=self.pending_messages,
            events=events,
            events_capped=not stopped and not exhausted and events >= max_events,
            wall_time_s=_time.perf_counter() - started_wall,
            metrics=self.metrics,
        )

    def _flush_send_counts(self) -> None:
        """Fold the per-sender send counters into the metrics collector.

        Counters are zeroed after folding, so successive ``run`` calls
        accumulate instead of double-counting.
        """
        sent_by_process = self.metrics.sent_by_process
        sent = self._sent
        for pid, count in sent.items():
            if count:
                sent_by_process[pid] += count
                self.metrics.total_sent += count
                sent[pid] = 0
