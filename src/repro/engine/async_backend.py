"""Asyncio backend: protocol cores on real event-loop I/O.

:class:`AsyncEngine` executes the same sans-I/O cores as the kernel and
turbo backends, but on a live :mod:`asyncio` event loop with wall-clock time
(see :class:`~repro.engine.services.WallClock`) and — in TCP mode — real
localhost sockets carrying length-prefixed frames in either wire framing
(:mod:`repro.engine.wire`, ``framing="json"`` or ``"binary"``).  Two
transports:

* ``transport="memory"`` (default) — **determinism-lite mode for CI and
  benchmarks**: deliveries are processed inline off a virtual-time calendar
  driven by the *same* seeded scheduler draws, sequence numbering and
  crash/partition hold semantics as the turbo backend.  Deliveries are
  therefore processed in exactly the kernel schedule's order, so decided
  values and outputs match the kernel backend for the same (cores, seed,
  scheduler, fault plan) — pinned by ``tests/engine/test_cross_backend.py``.
  Timestamps are still wall-clock: only the *order* is reproduced, not the
  simulated clock.  (Processing inline — no per-event task/queue hand-off —
  is what makes this the wire-speed row in ``BENCH_kernel.json``; the
  calendar is already a total order, so a dispatcher task added context
  switches without adding semantics.)

* ``transport="tcp"`` — the real network path: every node listens on an
  ephemeral localhost port and runs one asyncio task draining its inbox.
  Outbound frames are *coalesced*: each (sender, dest) link owns a write
  buffer plus a single writer task that flushes everything accumulated since
  its last wakeup in **one** ``writer.write`` call, then ``await
  writer.drain()`` — so a burst of effects costs one syscall, and a slow
  peer exerts backpressure through the transport's high-water mark instead
  of ballooning memory.  Inbound frames are parsed zero-copy by a buffered
  :class:`asyncio.BufferedProtocol` receiver: the OS writes into a
  preallocated buffer and the codec decodes ``memoryview`` slices in place.
  ``SetTimer``/``Cancel`` map to ``loop.call_later`` handles, and delivery
  order is whatever the OS and the loop produce.  Safety properties must
  still hold (they are schedule-independent); latency metrics are wall-clock
  measurements.

Both transports preserve the model's channel guarantees: messages are never
lost (crashes and partitions *hold* traffic; it is handed over on
recovery/heal) and the shared interpreter
(:func:`repro.engine.effects.interpret`, with the engine as its sink) stamps
the true sender, so channels stay authenticated.  Registration, fault
scripting and the ``run_until_*`` helpers come from
:class:`~repro.engine.services.EngineBase`.  The run loop stops on the
stop predicate, on quiescence (no messages in flight anywhere), on the
``max_messages``/``max_events`` valves, or on the optional ``max_wall_s``
hard timeout — a hung event loop fails fast instead of wedging CI.  Every
run reports a wall-clock decision-latency summary
(:attr:`RunResult.decision_latency`).

The multi-process sibling of the TCP transport is cluster service mode
(:mod:`repro.cluster`): same sans-I/O cores, same wire codecs, but one OS
process per node (``python -m repro cluster up``) instead of one engine
hosting every core.  This backend stays the right tool for measured,
single-process experiments (it owns the run driver, fault plan and metrics);
the cluster is the deployment story.
"""

from __future__ import annotations

import asyncio
import time as _time
from collections.abc import Callable, Hashable
from heapq import heappop, heappush
from random import Random
from typing import Any

from repro.engine import wire
from repro.engine.core import ProtocolCore
from repro.engine.delays import DelayModel
from repro.engine.effects import TimerHandle, interpret, invalid_time
from repro.engine.envelope import Envelope
from repro.engine.services import (
    CRASH,
    HEAL,
    PARTITION,
    RECOVER,
    TIME_WALL_CLOCK,
    EngineBase,
    RunResult,
    WallClock,
    latency_summary,
)
from repro.metrics.collector import MetricsCollector
from repro.sim.scheduler import Scheduler

#: Calendar-entry kinds (memory transport; mirrors the turbo backend).
#: Scripted controls use the shared kinds of :mod:`repro.engine.services`.
_MESSAGE = 0
_TIMER = 1

#: Inbox event kinds handed to node tasks (tcp transport).
_EV_START = "start"
_EV_MSG = "msg"
_EV_TIMER = "timer"

_INF = float("inf")

#: How often the TCP driver polls the stop predicate / quiescence state.
_TCP_POLL_S = 0.002

#: Per-link write high-water mark: once the transport buffers this many
#: bytes, ``drain()`` blocks the link's writer task until the peer catches
#: up — bounded memory per connection, however slow the other side reads.
_TCP_HIGH_WATER = 256 * 1024

#: Initial size of each connection's preallocated receive buffer (grows
#: geometrically if a frame outgrows it).
_RECV_BUFFER_BYTES = 64 * 1024


class _TcpLink:
    """One buffered outbound connection of the (sender, dest) pair.

    Frames are appended to :attr:`buffer` by the send path; the single
    writer task flushes whatever accumulated since its last wakeup in one
    ``writer.write`` call (frame coalescing), then awaits ``drain()`` so the
    transport's high-water mark backpressures the producer side.
    """

    __slots__ = ("buffer", "wake", "task", "writer")

    def __init__(self) -> None:
        self.buffer = bytearray()
        self.wake = asyncio.Event()
        self.task: asyncio.Task | None = None
        self.writer: asyncio.StreamWriter | None = None


class _TcpReceiver(asyncio.BufferedProtocol):
    """Server-side connection: zero-copy frame parsing.

    The event loop writes received bytes directly into a preallocated
    ``bytearray`` (no per-read ``bytes`` object); complete frames are decoded
    from ``memoryview`` slices in place and handed to the engine, and the
    incomplete tail is compacted to the front of the buffer.
    """

    __slots__ = ("_engine", "_buffer", "_view", "_filled", "transport")

    def __init__(self, engine: AsyncEngine) -> None:
        self._engine = engine
        self._buffer = bytearray(_RECV_BUFFER_BYTES)
        self._view = memoryview(self._buffer)
        self._filled = 0
        self.transport: asyncio.BaseTransport | None = None

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport
        self._engine._receivers.add(self)

    def connection_lost(self, exc: BaseException | None) -> None:
        self._engine._receivers.discard(self)

    def eof_received(self) -> bool:
        return False  # close when the peer does

    def get_buffer(self, sizehint: int) -> memoryview:
        if self._filled >= len(self._buffer):
            self._grow(max(sizehint, len(self._buffer)))
        return self._view[self._filled :]

    def buffer_updated(self, nbytes: int) -> None:
        self._filled += nbytes
        try:
            self._parse()
        except BaseException as failure:
            engine = self._engine
            if engine._node_failure is None:
                engine._node_failure = failure
            if self.transport is not None:
                self.transport.close()

    def _grow(self, extra: int) -> None:
        old, filled = self._buffer, self._filled
        self._view.release()
        grown = bytearray(len(old) + extra)
        grown[:filled] = old[:filled]
        self._buffer = grown
        self._view = memoryview(grown)

    def _parse(self) -> None:
        engine = self._engine
        view = self._view
        filled = self._filled
        offset = 0
        header = wire.HEADER_SIZE
        while filled - offset >= header:
            length, crc = wire.unpack_header(view[offset : offset + header])
            start = offset + header
            if filled - start < length:
                break
            body = view[start : start + length]
            try:
                wire.check_crc(body, crc)
            except wire.WireError:
                # A checksum mismatch is survivable only when faults are
                # being injected on purpose: count the rejection and skip
                # the frame (framing stays aligned — the header length is
                # still trusted).  On a clean wire it fails the run.
                if not engine._tolerates_wire_faults():
                    raise
                engine._count_wire_rejection("crc")
            else:
                engine._tcp_deliver(body)
            offset = start + length
        if offset:
            remaining = filled - offset
            if remaining:
                # Equal-length slice assignment: no resize, so the exported
                # memoryview stays valid.
                self._buffer[:remaining] = self._buffer[offset:filled]
            self._filled = remaining


class AsyncEngine(EngineBase):
    """Asyncio backend: wall-clock time, memory and TCP transports."""

    name = "async"
    time_source = TIME_WALL_CLOCK

    def __init__(
        self,
        delay_model: DelayModel | None = None,
        seed: int = 0,
        metrics: MetricsCollector | None = None,
        scheduler: Scheduler | None = None,
        transport: str = "memory",
        time_scale: float | None = None,
        host: str = "127.0.0.1",
        framing: str = "json",
        wire_faults: Any = None,
    ) -> None:
        super().__init__(delay_model, metrics, scheduler)
        if transport not in ("memory", "tcp"):
            raise ValueError(f"unknown transport {transport!r}; known: memory, tcp")
        self.rng = Random(seed)
        self._transport = transport
        #: Wire codec of the TCP transport (the memory transport moves
        #: Python objects and never serialises).
        self._codec = wire.get_codec(framing)
        #: Wire-fault injection (tcp only): a WireFaultPlan or DSL string
        #: (see repro.engine.wire_faults).  The send path encodes through a
        #: FaultyCodec that forges frames ahead of honest ones; the receive
        #: path counts rejections instead of failing the run.
        self._wire_faults = None
        self._send_codec: wire.Codec = self._codec
        self.wire_stats: dict[str, int] = {}
        if wire_faults:
            from repro.engine.wire_faults import FaultyCodec, coerce_wire_faults

            if transport != "tcp":
                raise ValueError("wire_faults requires transport='tcp' (real bytes)")
            plan = coerce_wire_faults(wire_faults)
            if plan.framing:
                self._codec = wire.get_codec(plan.framing)
            self._wire_faults = plan
            self._send_codec = FaultyCodec(self._codec, plan, seed=seed)
        #: Wall seconds per simulated delay unit, used to pace deliveries,
        #: timers and fault scripts.  The memory transport defaults to 0
        #: (virtual ordering only, full speed); the TCP transport defaults to
        #: 1 ms per unit so delay models and retry timers keep their shape.
        self.time_scale = (0.0 if transport == "memory" else 0.001) if time_scale is None else time_scale
        if self.time_scale < 0:
            raise ValueError(f"time_scale must be non-negative, got {self.time_scale!r}")
        self._host = host
        self._clock = WallClock()
        self.pending_messages = 0
        self.events_processed = 0
        # -- memory-transport calendar (virtual-time heap, turbo semantics) --
        self._queue: list[tuple] = []
        self._seq = 0
        self._msg_seq = 0
        self._vnow = 0.0
        self._crashed: set = set()
        self._partition_groups: tuple[frozenset, ...] = ()
        self._held_for_node: dict[int, list[tuple]] = {}
        self._held_for_partition: list[tuple] = []
        #: Fault scripts registered before the loop exists (tcp transport).
        self._scripted_controls: list[tuple[float, int, Any]] = []
        # -- live-loop state (valid only inside one run) --
        self._loop: asyncio.AbstractEventLoop | None = None
        self._inboxes: list[asyncio.Queue | None] = []
        self._tasks: list[asyncio.Task | None] = []
        self._node_failure: BaseException | None = None
        self._delivered_total = 0
        # -- tcp-transport state --
        self._servers: list[Any] = []
        self._ports: dict[Hashable, int] = {}
        self._links: dict[tuple[Hashable, Hashable], _TcpLink] = {}
        self._receivers: set[_TcpReceiver] = set()
        self._held_frames: list[tuple[Hashable, Hashable, bytes]] = []
        self._held_timers: dict[int, list[TimerHandle]] = {}
        #: Armed (not yet fired or parked) TCP timers and not-yet-applied
        #: scripted controls — the stall detector needs to know whether any
        #: future event could still release held traffic.
        self._live_timer_count = 0
        self._pending_controls = 0

    @property
    def transport(self) -> str:
        return self._transport

    @property
    def framing(self) -> str:
        """Wire framing of the TCP transport (``"json"`` or ``"binary"``)."""
        return self._codec.name

    # -- the effect sink -----------------------------------------------------------

    def send(self, sender: Hashable, dest: Hashable, payload: Any, depth: int) -> None:
        """Queue one message (authenticated: ``sender`` is the emitting core)."""
        dest_index = self._index.get(dest)
        if dest_index is None:
            raise ValueError(f"unknown destination {dest!r}")
        self._msg_seq += 1
        envelope = Envelope(
            sender=sender,
            dest=dest,
            payload=payload,
            send_time=self._vnow if self._transport == "memory" else self._clock.now(),
            depth=depth,
            seq=self._msg_seq,
            shard=self._group_of.get(sender, 0),
        )
        delay = self._scheduler.delay(envelope, self.rng)
        # Inline invalid_time(): this runs once per send, the hottest path.
        if delay < 0 or delay != delay or delay == _INF:
            raise ValueError(f"scheduler produced invalid delay {delay!r}")
        self.pending_messages += 1
        self.metrics.record_send(sender, dest, envelope.mtype, envelope)
        if self._transport == "memory":
            self._seq += 1
            heappush(self._queue, (self._vnow + delay, self._seq, _MESSAGE, dest_index, envelope))
        else:
            self._tcp_schedule_send(envelope, delay)

    def arm_timer(self, pid: Hashable, delay: float, handle: TimerHandle) -> None:
        index = self._index[pid]
        if self._transport == "memory":
            self._seq += 1
            heappush(self._queue, (self._vnow + delay, self._seq, _TIMER, index, handle))
        else:
            loop = self._loop
            if loop is None:
                raise RuntimeError("tcp timers can only be armed while the loop runs")
            # Cancellation is lazy (checked at fire time, like the simulated
            # backends) so the callback always runs and the live-timer count
            # stays exact — the stall detector depends on it.
            self._live_timer_count += 1
            loop.call_later(delay * self.time_scale, self._tcp_fire_timer, index, handle)

    def _push_control(self, at: float | None, kind: int, arg: Any) -> None:
        if self._transport == "memory":
            due = self._vnow if at is None else at
            if due < self._vnow or invalid_time(due):
                raise ValueError(f"invalid event time {due!r} (now={self._vnow!r})")
            self._seq += 1
            heappush(self._queue, (due, self._seq, kind, arg))
        else:
            due = 0.0 if at is None else at
            if invalid_time(due):
                raise ValueError(f"invalid event time {due!r}")
            self._scripted_controls.append((due, kind, arg))

    # -- running (shared driver) -----------------------------------------------------

    def run(
        self,
        stop_when: Callable[[], bool] | None = None,
        max_messages: int = 200_000,
        max_events: int | None = None,
        max_wall_s: float | None = None,
    ) -> RunResult:
        """Run the cluster on a fresh event loop until a stop condition.

        Semantics mirror :meth:`KernelEngine.run`: stop on the predicate, on
        quiescence, or on the ``max_messages``/``max_events`` valves.
        ``max_wall_s`` additionally bounds real elapsed time (reported as an
        event-cap truncation), so a hung loop fails fast instead of wedging
        the caller.  Must not be called from inside a running event loop.
        """
        if max_events is None:
            max_events = max_messages * 8
        if self._transport == "memory":
            runner = self._run_memory(stop_when, max_messages, max_events, max_wall_s)
        else:
            runner = self._run_tcp(stop_when, max_messages, max_events, max_wall_s)
        return asyncio.run(runner)

    def _decision_latency(self, start_decisions: int, origin: float) -> dict | None:
        """Wall-clock latency summary of decisions recorded during this run."""
        return latency_summary(
            record.time - origin
            for record in self.metrics.decisions[start_decisions:]
        )

    # -- node tasks (tcp transport) ---------------------------------------------------

    def _process_event(self, core: ProtocolCore, event: tuple) -> None:
        """Handle one inbox event inside the node's task."""
        kind = event[0]
        core.now = self._clock.now()
        if kind is _EV_MSG:
            envelope = event[1]
            if core.causal_depth < envelope.depth:
                core.causal_depth = envelope.depth
            self.pending_messages -= 1
            self._delivered_total += 1
            envelope.deliver_time = core.now
            self.metrics.record_delivery(envelope.sender, core.pid, envelope.mtype)
            core.on_message(envelope.sender, envelope.payload)
        elif kind is _EV_TIMER:
            handle = event[1]
            core.on_timer(handle.tag, handle.payload)
        elif kind is _EV_START:
            core.on_start()
        if core._out:
            interpret(core, self)

    async def _node_loop(self, index: int) -> None:
        """One task per node: drain the inbox and run the core."""
        core = self._cores[index]
        inbox = self._inboxes[index]
        while True:
            event = await inbox.get()
            try:
                self._process_event(core, event)
            except BaseException as failure:
                if self._node_failure is None:
                    self._node_failure = failure
                raise

    def _spawn_node(self, index: int) -> None:
        # Reuse a surviving inbox: on the TCP transport frames keep arriving
        # while a node is down, queueing in its inbox — a respawn after a
        # crash must hand them over, not drop them (reliable channels).
        if self._inboxes[index] is None:
            self._inboxes[index] = asyncio.Queue()
        self._tasks[index] = asyncio.get_running_loop().create_task(
            self._node_loop(index), name=f"repro-node-{self._pids[index]}"
        )

    async def _cancel_node(self, index: int) -> None:
        task = self._tasks[index]
        if task is None:
            return
        task.cancel()
        try:
            await task
        except (asyncio.CancelledError, Exception):
            pass
        self._tasks[index] = None

    async def _teardown(self) -> None:
        for index in range(len(self._tasks)):
            await self._cancel_node(index)
        for link in self._links.values():
            if link.task is not None:
                link.task.cancel()
                try:
                    await link.task
                except (asyncio.CancelledError, Exception):
                    pass
            if link.writer is not None:
                link.writer.close()
        self._links = {}
        for server in self._servers:
            server.close()
            await server.wait_closed()
        self._servers = []
        for receiver in list(self._receivers):
            if receiver.transport is not None:
                receiver.transport.close()
        self._receivers = set()
        self._ports = {}
        # Inboxes are kept: a crashed node's queued frames must survive into
        # a follow-up run (the run drivers swap in fresh loop-bound queues).
        self._loop = None

    # -- memory transport: deterministic virtual-time dispatch -----------------------

    async def _run_memory(
        self,
        stop_when: Callable[[], bool] | None,
        max_messages: int,
        max_events: int,
        max_wall_s: float | None,
    ) -> RunResult:
        self._loop = asyncio.get_running_loop()
        self._clock.start()
        started_wall = _time.perf_counter()
        start_decisions = len(self.metrics.decisions)
        latency_origin = self._clock.now()
        deadline = None if max_wall_s is None else started_wall + max_wall_s
        delivered = 0
        events = 0
        stopped = False
        exhausted = False
        timed_out = False
        scale = self.time_scale
        # Pace against the absolute wall schedule (anchor + vtime * scale),
        # not per-gap sleeps: event-loop timer granularity would otherwise
        # accumulate across thousands of calendar entries, and a run that
        # falls behind schedule must catch up by not sleeping at all.
        wall_anchor = started_wall - self._vnow * scale
        queue = self._queue
        crashed = self._crashed
        cores = self._cores
        clock_now = self._clock.now
        record_delivery = self.metrics.record_delivery
        try:
            # Start events run inline, in registration order — the same
            # sequential semantics the kernel backend gives on_start.
            self.start()
            while delivered < max_messages and events < max_events:
                if stop_when is not None and stop_when():
                    stopped = True
                    break
                if deadline is not None and _time.perf_counter() > deadline:
                    timed_out = True
                    break
                if not queue:
                    exhausted = True
                    break
                entry = heappop(queue)
                vtime = entry[0]
                kind = entry[2]
                if kind == _TIMER and entry[4].cancelled:
                    continue
                if vtime > self._vnow:
                    if scale:
                        remaining = wall_anchor + vtime * scale - _time.perf_counter()
                        if remaining > 0.0:
                            await asyncio.sleep(remaining)
                    self._vnow = vtime
                events += 1
                self.events_processed += 1
                if kind == _MESSAGE:
                    dest_index = entry[3]
                    envelope = entry[4]
                    if dest_index in crashed:
                        self._held_for_node.setdefault(dest_index, []).append(entry)
                        continue
                    if self._partition_groups and self._link_blocked(
                        envelope.sender, envelope.dest
                    ):
                        self._held_for_partition.append(entry)
                        continue
                    # Inline delivery: the calendar already serialises every
                    # event, so the core runs right here in the driver — no
                    # task hand-off, no queue, no done-event round trip.
                    core = cores[dest_index]
                    now = clock_now()
                    core.now = now
                    if core.causal_depth < envelope.depth:
                        core.causal_depth = envelope.depth
                    self.pending_messages -= 1
                    self._delivered_total += 1
                    envelope.deliver_time = now
                    record_delivery(envelope.sender, core.pid, envelope.mtype)
                    core.on_message(envelope.sender, envelope.payload)
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
                    core.now = clock_now()
                    core.on_timer(handle.tag, handle.payload)
                    if core._out:
                        interpret(core, self)
                elif kind == CRASH:
                    index = self._index[entry[3]]
                    if index not in crashed:
                        crashed.add(index)
                        core = cores[index]
                        core.now = clock_now()
                        core.on_crash()
                        if core._out:
                            interpret(core, self)
                elif kind == RECOVER:
                    index = self._index[entry[3]]
                    if index in crashed:
                        crashed.discard(index)
                        # Held traffic is re-queued before the recovery hook
                        # runs, mirroring the simulated backends' ordering.
                        held = self._held_for_node.pop(index, None)
                        if held:
                            self._release(held)
                        core = cores[index]
                        core.now = clock_now()
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
        finally:
            await self._teardown()
        return RunResult(
            delivered=delivered,
            end_time=self._clock.now(),
            stopped_by_predicate=stopped,
            pending_messages=self.pending_messages,
            events=events,
            events_capped=timed_out
            or (not stopped and not exhausted and events >= max_events),
            wall_time_s=_time.perf_counter() - started_wall,
            metrics=self.metrics,
            decision_latency=self._decision_latency(start_decisions, latency_origin),
        )

    def _release(self, entries: list[tuple]) -> None:
        """Re-queue held calendar entries in hold order at the current time."""
        for entry in entries:
            if entry[2] == _TIMER and entry[4].cancelled:
                continue
            self._seq += 1
            heappush(self._queue, (self._vnow, self._seq) + entry[2:])

    # -- tcp transport: coalesced length-prefixed frames over localhost ----------------

    def _tcp_schedule_send(self, envelope: Envelope, delay: float) -> None:
        """Pace one frame onto the wire after the scheduler's delay."""
        loop = self._loop
        if loop is None:
            raise RuntimeError("tcp sends require a running engine loop")
        frame = self._send_codec.encode_frame(
            {
                "sender": envelope.sender,
                "dest": envelope.dest,
                "depth": envelope.depth,
                "seq": envelope.seq,
                "payload": envelope.payload,
            }
        )
        wall_delay = delay * self.time_scale
        if wall_delay <= 0.0:
            # Unpaced: straight into the link buffer, so every frame emitted
            # in this task step rides the writer task's next single write.
            self._tcp_enqueue(envelope.sender, envelope.dest, frame)
        else:
            loop.call_later(
                wall_delay, self._tcp_enqueue, envelope.sender, envelope.dest, frame
            )

    def _tcp_enqueue(self, sender: Hashable, dest: Hashable, frame: bytes) -> None:
        """Append one frame to the (sender, dest) link buffer (or hold it)."""
        if self._loop is None or self._index[dest] in self._crashed or (
            self._partition_groups and self._link_blocked(sender, dest)
        ):
            # Channels are reliable: hold the frame, release on recover/heal.
            # (A paced frame whose call_later fires after the run tore down
            # lands here too — it stays pending instead of vanishing.)
            self._held_frames.append((sender, dest, frame))
            return
        link = self._links.get((sender, dest))
        if link is None:
            link = _TcpLink()
            self._links[(sender, dest)] = link
            link.task = self._loop.create_task(
                self._tcp_link_writer(link, dest),
                name=f"repro-link-{sender}-{dest}",
            )
        link.buffer += frame
        link.wake.set()

    async def _tcp_link_writer(self, link: _TcpLink, dest: Hashable) -> None:
        """Flush one link: everything accumulated per wakeup in one write.

        Frames keep landing in ``link.buffer`` while ``drain()`` awaits a
        slow peer, so backpressure automatically widens the batches instead
        of growing the kernel-side socket buffer without bound.
        """
        try:
            _reader, writer = await asyncio.open_connection(self._host, self._ports[dest])
            writer.transport.set_write_buffer_limits(high=_TCP_HIGH_WATER)
            link.writer = writer
            buffer = link.buffer
            wake = link.wake
            while True:
                if not buffer:
                    wake.clear()
                    await wake.wait()
                chunk = bytes(buffer)
                buffer.clear()
                writer.write(chunk)  # one write per batch, not per frame
                await writer.drain()  # blocks above the high-water mark
        except asyncio.CancelledError:
            raise  # engine teardown, not a node failure
        except BaseException as failure:
            if self._node_failure is None:
                self._node_failure = failure

    def _tcp_release_held(self) -> None:
        held, self._held_frames = self._held_frames, []
        for sender, dest, frame in held:
            # Re-enqueue (and re-filter: still-blocked links hold again).
            self._tcp_enqueue(sender, dest, frame)

    def _tcp_fire_timer(self, index: int, handle: TimerHandle) -> None:
        self._live_timer_count -= 1
        if handle.cancelled:
            return
        if index in self._crashed:
            # Timers are held for a crashed process, not lost.  Parked
            # handles leave the live count; the recovery path re-adds them
            # before re-firing, so the stall detector stays exact.
            self._held_timers.setdefault(index, []).append(handle)
            return
        self._inboxes[index].put_nowait((_EV_TIMER, handle))

    def _tcp_deliver(self, body) -> None:
        """Decode one received frame body into the destination's inbox.

        ``body`` is a ``memoryview`` into the receiver's buffer, valid only
        for the duration of this call — the codec materialises every decoded
        object, so nothing retains a reference into the buffer.
        """
        try:
            message = self._codec.decode_body(body)
            dest_index = self._index[message["dest"]]
            envelope = Envelope(
                sender=message["sender"],
                dest=message["dest"],
                payload=message["payload"],
                send_time=0.0,
                depth=message["depth"],
                seq=message["seq"],
            )
        except (wire.WireError, KeyError, TypeError) as failure:
            # A frame that passed the checksum but will not decode into an
            # envelope: survivable only under deliberate fault injection
            # (e.g. a re-headered truncation forged by FaultyCodec).
            if self._wire_faults is None:
                raise
            if not isinstance(failure, wire.WireError):
                self._count_wire_rejection("envelope")
            else:
                self._count_wire_rejection("decode")
            return
        if isinstance(message, dict) and "wf" in message:
            # An injected duplicate/replay/tamper frame was never counted as
            # a send; balance the decrement its delivery will apply.
            self.pending_messages += 1
            self._count_wire_rejection("injected_delivered")
        self._inboxes[dest_index].put_nowait((_EV_MSG, envelope))

    def _tolerates_wire_faults(self) -> bool:
        """Whether receive-path corruption is expected (injection active)."""
        return self._wire_faults is not None

    def _count_wire_rejection(self, kind: str) -> None:
        self.wire_stats[kind] = self.wire_stats.get(kind, 0) + 1

    @property
    def wire_fault_stats(self) -> dict[str, int]:
        """Receive-side rejection counts plus send-side injection counts."""
        stats = dict(self.wire_stats)
        for mode, count in getattr(self._send_codec, "stats", {}).items():
            stats[f"sent_{mode}"] = count
        return stats

    def _tcp_apply_control(self, kind: int, arg: Any) -> None:
        self._pending_controls -= 1
        if kind == CRASH:
            index = self._index[arg]
            if index not in self._crashed:
                self._crashed.add(index)
                task = self._tasks[index]
                if task is not None:
                    task.cancel()
                    self._tasks[index] = None
                core = self._cores[index]
                core.now = self._clock.now()
                core.on_crash()
                if core._out:
                    interpret(core, self)
        elif kind == RECOVER:
            index = self._index[arg]
            if index in self._crashed:
                self._crashed.discard(index)
                self._tcp_release_held()
                self._spawn_node(index)
                held_timers = self._held_timers.pop(index, ())
                self._live_timer_count += len(held_timers)  # re-fire decrements
                for handle in held_timers:
                    self._tcp_fire_timer(index, handle)
                core = self._cores[index]
                core.now = self._clock.now()
                core.on_recover()
                if core._out:
                    interpret(core, self)
        elif kind == PARTITION:
            self._partition_groups = arg
            # Re-evaluate parked traffic against the new groups: a link that
            # was blocked may now be internal to one side (the simulated
            # backends release-and-refilter on repartition too).
            self._tcp_release_held()
        elif kind == HEAL:
            self._partition_groups = ()
            self._tcp_release_held()
        else:  # INJECT
            arg(self)

    async def _run_tcp(
        self,
        stop_when: Callable[[], bool] | None,
        max_messages: int,
        max_events: int,
        max_wall_s: float | None,
    ) -> RunResult:
        loop = asyncio.get_running_loop()
        self._loop = loop
        self._clock.start()
        started_wall = _time.perf_counter()
        start_decisions = len(self.metrics.decisions)
        latency_origin = self._clock.now()
        start_delivered = self._delivered_total  # per-run delivery counting
        # Every node gets an inbox up front — even a crashed one, so frames
        # already in flight on the sockets queue there and are handed over on
        # recovery instead of being dropped; only live nodes get a task.
        # Queues bind to the event loop on first await, so a follow-up run
        # (fresh loop) gets fresh queues with any leftovers drained over.
        prior_inboxes = self._inboxes
        self._inboxes = [asyncio.Queue() for _core in self._cores]
        if len(prior_inboxes) == len(self._cores):
            for index, prior in enumerate(prior_inboxes):
                while prior is not None and not prior.empty():
                    self._inboxes[index].put_nowait(prior.get_nowait())
        self._tasks = [None] * len(self._cores)
        stopped = False
        timed_out = False
        stalled = False
        try:
            # One listening socket per node; ports are ephemeral.  The
            # receiver is a BufferedProtocol so reads land in a preallocated
            # buffer and frames decode from memoryview slices in place.
            for pid in self._pids:
                server = await loop.create_server(
                    lambda: _TcpReceiver(self), host=self._host, port=0
                )
                self._servers.append(server)
                self._ports[pid] = server.sockets[0].getsockname()[1]
            for index in range(len(self._cores)):
                if index not in self._crashed:
                    self._spawn_node(index)
            # Fault scripts registered before the loop existed fire now,
            # paced by the same time scale as message delays.
            self._pending_controls += len(self._scripted_controls)
            for due, kind, arg in self._scripted_controls:
                loop.call_later(
                    due * self.time_scale, self._tcp_apply_control, kind, arg
                )
            self._scripted_controls = []
            if not self._started:
                self._started = True
                for index in range(len(self._cores)):
                    if index not in self._crashed:
                        self._inboxes[index].put_nowait((_EV_START,))
            deadline = None if max_wall_s is None else started_wall + max_wall_s
            # Quiescence: nothing in flight (scheduler-paced sends, held
            # frames, queued-but-unprocessed inbox events all count) after at
            # least one settle poll.
            while True:
                if self._node_failure is not None:
                    raise self._node_failure
                if stop_when is not None and stop_when():
                    stopped = True
                    break
                delivered = self._delivered_total - start_delivered
                if delivered >= max_messages or delivered >= max_events:
                    break
                if deadline is not None and _time.perf_counter() > deadline:
                    timed_out = True
                    break
                if self.pending_messages == 0:
                    # Double-check after one extra loop turn: a frame may be
                    # between the socket and an inbox (pending stays > 0
                    # until the destination task actually processes it, so
                    # pending == 0 means nothing is in flight anywhere).
                    await asyncio.sleep(_TCP_POLL_S)
                    if (
                        self.pending_messages == 0
                        and self._node_failure is None
                        and (stop_when is None or not stop_when())
                    ):
                        break
                    continue
                if self._tcp_stalled():
                    # Everything still pending is parked behind a crash or
                    # partition that nothing scheduled will ever lift: return
                    # non-quiescent (the simulated backends' exhaustion exit)
                    # instead of polling until max_wall_s.
                    stalled = True
                    break
                await asyncio.sleep(_TCP_POLL_S)
            if self._node_failure is not None:
                raise self._node_failure
        finally:
            await self._teardown()
        delivered = self._delivered_total - start_delivered
        return RunResult(
            delivered=delivered,
            end_time=self._clock.now(),
            stopped_by_predicate=stopped,
            pending_messages=self.pending_messages,
            events=delivered,
            events_capped=timed_out,
            wall_time_s=_time.perf_counter() - started_wall,
            metrics=self.metrics,
            decision_latency=self._decision_latency(start_decisions, latency_origin),
        )

    def _tcp_stalled(self) -> bool:
        """Whether every pending message is held with no future release.

        True when all pending traffic sits in the held-frame list or in a
        crashed node's inbox while no scripted control, armed timer or live
        inbox event remains that could ever release it.  ``stalled`` is the
        TCP analogue of the simulated backends' queue-exhaustion exit: the
        run ends non-quiescent rather than polling forever.
        """
        if self._pending_controls > 0 or self._live_timer_count > 0:
            return False
        held = len(self._held_frames)
        for index in self._crashed:
            inbox = self._inboxes[index]
            if inbox is not None:
                held += inbox.qsize()
        return self.pending_messages > 0 and self.pending_messages == held
