"""The calendar: ``(time, seq)`` order and the footprint of a message in flight.

Turbo's calendar (which the kernel and the async memory transport run on)
keeps one slot per distinct due time: a lone entry is stored bare, as its
calendar tuple, and a second entry on the same time turns the slot into a
FIFO deque.  Whatever the shapes, events must pop in ``(time, seq)`` order,
and a message alone on its due time must not pay for a deque.
"""

import gc
import tracemalloc
from collections import deque
from dataclasses import dataclass
from itertools import count

import pytest

from repro.engine import ProtocolCore, UniformDelay, create_engine
from repro.engine.envelope import Envelope
from repro.sim.scheduler import Scheduler

BACKENDS = ["turbo", "kernel"]


@dataclass(frozen=True)
class Hop:
    """One message: ``ident`` is its emission number, ``ttl`` the hops left."""

    ident: int
    ttl: int


START_TTL = 3


def delay_of(hop, dest):
    """A delay that lands about half the sends on a shared half-unit grid.

    Some forwarded hops take no time at all, filed at the time being popped;
    the rest land between grid points, at multiples of 1/1024 (exact in
    binary, so equal sums are equal floats and collisions are real ones).
    """
    mix = hop.ident + int(dest[1:])
    if mix % 2:
        return 0.5 * (1 + mix % 3)
    if mix % 5 == 0 and hop.ttl < START_TTL:
        return 0.0
    return 0.5 + (hop.ident * 7 + mix) % 509 / 1024


class MixedScheduler(Scheduler):
    """Reads the delay off the payload, so the test can predict every due time."""

    def delay(self, envelope, rng):
        return delay_of(envelope.payload, envelope.dest)


class Mixer(ProtocolCore):
    """Sends, broadcasts and arms timers, noting each entry's ``(due, seq)`` key.

    The engine numbers entries in the order the effects are applied, which
    is emission order across the run; ``idents`` is shared by every core,
    so ``(due, ident, position in the fan-out)`` sorts like ``(time, seq)``.
    """

    def __init__(self, pid, members, idents, expected, log):
        super().__init__(pid)
        self.members = members
        self.idents = idents
        self.expected = expected
        self.log = log

    def _broadcast(self, ttl):
        hop = Hop(next(self.idents), ttl)
        for position, dest in enumerate(self.members):
            self.expected.append((self.now + delay_of(hop, dest), hop.ident, position, "msg", dest))
        self.broadcast(hop)

    def _send(self, dest, ttl):
        hop = Hop(next(self.idents), ttl)
        self.expected.append((self.now + delay_of(hop, dest), hop.ident, 0, "msg", dest))
        self.send(dest, hop)

    def _timer(self, delay, tag):
        ident = next(self.idents)
        self.expected.append((self.now + delay, ident, 0, "timer", self.pid))
        return self.set_timer(delay, tag, ident)

    def on_start(self):
        if self.pid == "p0":
            # The calendar's head at the first pop: alone on its time, cancelled.
            self.set_timer(0.25, "dead", next(self.idents)).cancel()
        else:
            # A cancelled timer sharing the 1.0 grid point with messages.
            self.set_timer(1.0, "dead", next(self.idents)).cancel()
        self._timer(1.0, "grid")
        self._timer(1.0 + 3 / 1024, "off")
        self._broadcast(START_TTL)

    def on_message(self, sender, payload):
        self.log.append((self.now, payload.ident, "msg", self.pid))
        if payload.ttl:
            if payload.ident % 2:
                self._broadcast(payload.ttl - 1)
            else:
                self._send(sender, payload.ttl - 1)

    def on_timer(self, tag, payload=None):
        assert tag != "dead", "a cancelled timer fired"
        self.log.append((self.now, payload, "timer", self.pid))
        if tag == "grid":
            self._send(self.members[0], 1)


@pytest.mark.parametrize("stepwise", [False, True], ids=["one-run", "stepwise"])
@pytest.mark.parametrize("backend", BACKENDS)
def test_pops_in_time_seq_order_across_bare_and_shared_slots(backend, stepwise):
    engine = create_engine(backend, scheduler=MixedScheduler(), seed=0)
    pids = tuple(f"p{i}" for i in range(4))
    idents, expected, log = count(), [], []
    for pid in pids:
        engine.add_core(Mixer(pid, pids, idents, expected, log))
    engine.start()
    # Both slot shapes are live before the first pop, a cancelled timer at the head.
    slots = engine._buckets.values()
    assert any(slot.__class__ is tuple for slot in slots)
    assert any(isinstance(slot, deque) for slot in slots)
    head = engine._buckets[engine._times[0]]
    assert head.__class__ is tuple and head[4].cancelled

    if stepwise:
        # One delivery per run: runs stop and resume inside shared times.
        while engine.run(max_messages=1).delivered:
            pass
    else:
        engine.run_until_quiescent()

    assert engine.pending() == 0 and not engine._buckets and len(log) > 300
    reference = [(due, ident, kind, pid) for due, ident, _, kind, pid in sorted(expected)]
    assert log == reference


class Burst(ProtocolCore):
    """Broadcasts one preallocated payload ``rounds`` times at start."""

    def __init__(self, pid, members, rounds):
        super().__init__(pid)
        self.members = members
        self.rounds = rounds
        self.payload = Hop(0, 0)

    def on_start(self):
        for _ in range(self.rounds):
            self.broadcast(self.payload)


def _traced(build):
    """Bytes still allocated after ``build()``, which returns what it must keep alive."""
    gc.collect()
    tracemalloc.start()
    try:
        kept = build()
        used = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del kept
    return used


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_message_alone_on_its_time_costs_no_deque(backend):
    # 20 cores x 20 members x 50 broadcasts = 20 000 messages in flight,
    # nearly every one on a due time of its own under a uniform delay.
    engine = create_engine(backend, delay_model=UniformDelay(), seed=3)
    pids = tuple(f"p{i}" for i in range(20))
    for pid in pids:
        engine.add_core(Burst(pid, pids, rounds=50))
    used = _traced(lambda: engine.start())
    in_flight = engine.pending_messages
    assert in_flight == 20_000
    if backend == "kernel":
        # The envelope the kernel keeps per message for its delivery log is
        # recording, not calendar: take it off, measured the same way.
        used -= _traced(
            lambda: [
                Envelope(sender="p0", dest="p1", payload=None, send_time=0.0, depth=1, seq=seq)
                for seq in range(1_000, 1_000 + in_flight)
            ]
        )
    # A bare calendar tuple, its due time, a dict slot and a heap slot read
    # ~190 B; a deque per due time (760 B empty on CPython 3.11) read ~950.
    assert used / in_flight < 300
