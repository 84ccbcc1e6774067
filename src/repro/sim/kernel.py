"""The discrete-event simulation kernel: one time-ordered queue of typed events.

:class:`SimKernel` owns the three things every discrete-event simulation
needs — the event heap, the simulated clock, and the seeded RNG — plus the
fault state (crashed processes, the active partition) that decides whether a
popped event may take effect now or must be *held*.

The kernel is engine-agnostic: it never looks inside an envelope and never
calls protocol code.  :class:`repro.engine.KernelEngine` drives it (pop an
event, dispatch by type, consult ``crashed`` / ``partition_groups``) and
applies the resulting core effects.

Determinism: the heap is ordered by ``(time, seq)`` where ``seq`` is a
monotone schedule counter, so ties are broken by schedule order and a run is
a pure function of (nodes, seed, scheduler, fault plan).  Held events are
re-scheduled in the order they were held, preserving per-link FIFO-ness of
the release.
"""

from __future__ import annotations

import heapq
import random
from collections.abc import Hashable

from repro.engine.effects import invalid_time
from repro.sim.events import Event, MessageDelivery


class SimKernel:
    """Time-ordered typed-event queue with crash/partition fault state."""

    __slots__ = (
        "_queue",
        "_seq",
        "_now",
        "rng",
        "crashed",
        "partition_groups",
        "_held_for_node",
        "_held_for_partition",
        "pending_messages",
        "events_processed",
    )

    def __init__(self, seed: int = 0) -> None:
        self._queue: list[tuple[float, int, Event]] = []
        self._seq = 0
        self._now = 0.0
        #: The run's seeded RNG (shared with the scheduler / delay models).
        self.rng = random.Random(seed)
        #: Processes currently down (between NodeCrash and NodeRecover).
        self.crashed: set = set()
        #: Active partition (tuple of frozensets), or () when fully connected.
        self.partition_groups: tuple[frozenset, ...] = ()
        #: Events held because their target process is down.
        self._held_for_node: dict[Hashable, list[Event]] = {}
        #: Deliveries held because they cross the active partition.
        self._held_for_partition: list[Event] = []
        #: Messages scheduled but not yet delivered (including held ones).
        #: Maintained by the network, not by :meth:`schedule`, so that a
        #: held-and-rescheduled delivery is not double-counted.
        self.pending_messages = 0
        #: Total events processed (for run caps and throughput reporting).
        self.events_processed = 0

    # -- clock & queue ----------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    def __len__(self) -> int:
        """Events still in the heap (including lazily-cancelled ones)."""
        return len(self._queue)

    def schedule(self, event: Event, delay: float = 0.0) -> Event:
        """Schedule ``event`` to fire ``delay`` time units from now."""
        return self.schedule_at(event, self._now + delay)

    def schedule_at(self, event: Event, time: float) -> Event:
        """Schedule ``event`` at absolute simulated time ``time``.

        A cancelled event stays cancelled — scheduling does not revive it
        (a timer cancelled while parked for a crashed node must not fire
        after recovery).
        """
        if time < self._now or invalid_time(time):
            raise ValueError(f"invalid event time {time!r} (now={self._now!r})")
        event.time = time
        self._seq += 1
        heapq.heappush(self._queue, (time, self._seq, event))
        return event

    def pop(self) -> Event | None:
        """Remove and return the next live event, advancing the clock.

        Cancelled events are skipped (lazy deletion).  Returns ``None`` when
        the queue is exhausted.
        """
        queue = self._queue
        while queue:
            time, _seq, event = heapq.heappop(queue)
            if event.cancelled:
                if type(event) is MessageDelivery:
                    self.pending_messages -= 1
                continue
            if time > self._now:
                self._now = time
            self.events_processed += 1
            return event
        return None

    # -- fault state --------------------------------------------------------------

    def hold_for_node(self, pid: Hashable, event: Event) -> None:
        """Park ``event`` until ``pid`` recovers (reliable redelivery)."""
        self._held_for_node.setdefault(pid, []).append(event)

    def hold_for_partition(self, event: Event) -> None:
        """Park ``event`` until the partition heals (reliable redelivery)."""
        self._held_for_partition.append(event)

    def held_count(self) -> int:
        """Events currently parked by crash or partition state."""
        return len(self._held_for_partition) + sum(
            len(events) for events in self._held_for_node.values()
        )

    def apply_crash(self, pid: Hashable) -> None:
        """Mark ``pid`` down (idempotent)."""
        self.crashed.add(pid)

    def apply_recover(self, pid: Hashable) -> None:
        """Mark ``pid`` up and re-schedule everything held for it, in order.

        Events cancelled while parked (e.g. a timer whose owner's operation
        completed another way) are dropped, not revived.
        """
        self.crashed.discard(pid)
        for event in self._held_for_node.pop(pid, []):
            if event.cancelled:
                if type(event) is MessageDelivery:
                    self.pending_messages -= 1
                continue
            self.schedule(event, 0.0)

    def apply_partition(self, groups: tuple[frozenset, ...]) -> None:
        """Install ``groups`` as the active partition (replaces any previous).

        Traffic parked by the previous partition is re-scheduled so the new
        topology re-evaluates it (it may now be deliverable — or not).
        """
        self.partition_groups = tuple(frozenset(group) for group in groups)
        self._release_partition_holds()

    def apply_heal(self) -> None:
        """Dissolve the partition and release all parked cross-traffic."""
        self.partition_groups = ()
        self._release_partition_holds()

    def _release_partition_holds(self) -> None:
        held, self._held_for_partition = self._held_for_partition, []
        for event in held:
            if event.cancelled:
                if type(event) is MessageDelivery:
                    self.pending_messages -= 1
                continue
            self.schedule(event, 0.0)
