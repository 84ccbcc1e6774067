"""Wall-clock backend: protocol cores on real elapsed time, in memory or over TCP.

:class:`AsyncEngine` executes the same sans-I/O cores as the kernel and
turbo backends, but with wall-clock time (see
:class:`~repro.engine.services.WallClock`) and — in TCP mode — a live
:mod:`asyncio` event loop with real localhost sockets carrying
length-prefixed frames in either wire framing (:mod:`repro.engine.wire`,
``framing="json"`` or ``"binary"``).  Two transports:

* ``transport="memory"`` (default) — **determinism-lite mode for CI and
  benchmarks**: the kernel backend on a wall clock.  :class:`AsyncEngine`
  subclasses :class:`~repro.engine.kernel_backend.KernelEngine` and, on this
  transport, runs its sink methods, calendar and event loop
  (:meth:`TurboEngine.run`) unchanged: the same seeded delay draws,
  sequence numbers and crash/partition holds, so the schedule is the
  kernel's by construction.  Decided values, outputs and the order of the
  :attr:`delivery_log` match the kernel's for the same (cores, seed,
  delay model, fault plan) — pinned by ``tests/engine/test_cross_backend.py``
  and ``tests/transport/test_golden_trace.py``.  Only time differs: the
  loop's stamp hook (:attr:`TurboEngine._stamp`) is the wall clock, so every
  ``core.now``, decision time and ``deliver_time`` is real elapsed seconds
  (``send_time`` stays the schedule's simulated time).  ``time_scale > 0``
  paces the run: an event due at simulated time ``t`` runs no earlier than
  ``t * time_scale`` wall seconds after the run's anchor.  The default 0 runs
  at full speed.  No event loop is involved, so this transport may also run
  from inside one.

* ``transport="tcp"`` — the real network path, on the cluster's link layer
  (:mod:`repro.engine.wire`): every node listens on an ephemeral localhost
  port and runs one asyncio task draining its inbox, and every (sender,
  dest) pair gets one :class:`~repro.engine.wire.FrameLink` that says
  ``hello`` as the sender before anything else.  The listener runs the
  shared peer-frame reader (:func:`~repro.engine.wire.read_peer_frames`),
  which stamps the sender from that hello: a frame carries its payload and
  causal depth, no sender and no destination, so a connection speaks only
  for the node that dialed it and delivers only to the node that listens.
  A ``Broadcast`` is encoded once and the same bytes are queued on every
  destination's link, and a body another listener decoded a moment ago is
  looked up in the engine's :class:`~repro.engine.wire.FrameTable` instead
  of parsed.  Each link flushes whatever accumulated since its last wakeup
  in one ``write`` and then awaits ``drain()``, so a burst of effects costs
  one syscall and a slow peer exerts backpressure instead of ballooning
  memory; reads are plain :class:`asyncio.StreamReader` reads (no
  ``BufferedProtocol``).  A message to oneself skips the wire: a node has
  no link to itself.  Paced messages, ``SetTimer`` timers and scripted
  controls wait on the calendar the engine inherits from
  :class:`~repro.engine.turbo_backend.TurboEngine`, due at ``loop.time()``
  seconds; one ``loop.call_at`` is armed for its head and hands each due
  entry over in ``(time, seq)`` order.  The calendar belongs to the engine,
  not to the run's event loop, so what a run leaves on it is due in the
  next run.  ``Cancel`` is lazy, as on the simulated backends.  Delivery
  order is whatever the OS and the loop produce.
  Safety properties must still hold (they are schedule-independent);
  latency metrics are wall-clock measurements.  A run owns a fresh event
  loop, so it must not be called from inside a running one.  The kernel's
  :attr:`delivery_log` and :meth:`submit` belong to the memory transport:
  on this one the attribute does not exist and ``submit`` raises.

Both transports preserve the model's channel guarantees: messages are never
lost (crashes and partitions *hold* traffic before it reaches a link; it is
handed over on recovery/heal) and the shared interpreter
(:func:`repro.engine.effects.interpret`, with the engine as its sink) stamps
the true sender, so channels stay authenticated.  Registration, fault
scripting and the ``run_until_*`` helpers come from
:class:`~repro.engine.services.EngineBase`.  The run loop stops on the
stop predicate, on quiescence (no messages in flight anywhere and no
live timer or scripted control still to come), on the
``max_messages``/``max_events`` valves, or on the optional ``max_wall_s``
hard timeout — a hung run fails fast instead of wedging CI.  Every
run reports a wall-clock decision-latency summary
(:attr:`RunResult.decision_latency`).

The multi-process sibling of the TCP transport is cluster service mode
(:mod:`repro.cluster`): same sans-I/O cores, same codecs and links, but one
OS process per node (``python -m repro cluster up``) instead of one engine
hosting every core.  This backend stays the right tool for measured,
single-process experiments (it owns the run driver, fault plan and metrics);
the cluster is the deployment story.
"""

from __future__ import annotations

import asyncio
import time as _time
from collections.abc import Callable, Hashable, Iterable
from functools import partial
from typing import Any

from repro.engine import wire
from repro.engine.core import ProtocolCore
from repro.engine.delays import DelayModel
from repro.engine.effects import TimerHandle, interpret, invalid_time, members_of
from repro.engine.envelope import Envelope
from repro.engine.kernel_backend import KernelEngine
from repro.engine.services import (
    CRASH,
    HEAL,
    PARTITION,
    RECOVER,
    TIME_WALL_CLOCK,
    RunResult,
    WallClock,
    latency_summary,
)
from repro.engine.turbo_backend import _MESSAGE, _TIMER
from repro.metrics.collector import MetricsCollector

#: Inbox event kinds handed to node tasks (tcp transport).
_EV_START = "start"
_EV_MSG = "msg"
_EV_TIMER = "timer"

#: How often the TCP driver polls the stop predicate / quiescence state.
_TCP_POLL_S = 0.002

_INFINITY = float("inf")


class AsyncEngine(KernelEngine):
    """Wall-clock backend: the kernel's loop in memory, asyncio over TCP."""

    name = "async"
    time_source = TIME_WALL_CLOCK

    def __init__(
        self,
        delay_model: DelayModel | None = None,
        seed: int = 0,
        metrics: MetricsCollector | None = None,
        transport: str = "memory",
        time_scale: float | None = None,
        host: str = "127.0.0.1",
        framing: str = "json",
        wire_faults: Any = None,
    ) -> None:
        super().__init__(delay_model, seed, metrics)
        if transport not in ("memory", "tcp"):
            raise ValueError(f"unknown transport {transport!r}; known: memory, tcp")
        self._transport = transport
        #: Wire codec of the TCP transport (the memory transport moves
        #: Python objects and never serialises).
        self._codec = wire.get_codec(framing)
        #: Wire-fault injection (tcp only): a WireFaultPlan or DSL string
        #: (see repro.engine.wire_faults).  The send path puts a FaultyCodec's
        #: forgeries ahead of the honest bytes on each link; the receive path
        #: counts rejections instead of failing the run.
        self._forger = None
        self.wire_stats: dict[str, int] = {}
        if wire_faults:
            from repro.engine.wire_faults import FaultyCodec, coerce_wire_faults

            if transport != "tcp":
                raise ValueError("wire_faults requires transport='tcp' (real bytes)")
            plan = coerce_wire_faults(wire_faults)
            if plan.framing:
                self._codec = wire.get_codec(plan.framing)
            self._forger = FaultyCodec(self._codec, plan, seed=seed)
        #: Wall seconds per simulated delay unit, used to pace deliveries,
        #: timers and fault scripts.  The memory transport defaults to 0
        #: (virtual ordering only, full speed); the TCP transport defaults to
        #: 1 ms per unit so delay models and retry timers keep their shape.
        self.time_scale = (0.0 if transport == "memory" else 0.001) if time_scale is None else time_scale
        if self.time_scale < 0:
            raise ValueError(f"time_scale must be non-negative, got {self.time_scale!r}")
        self._host = host
        self._clock = WallClock()
        #: The loop's stamp hook: cores, decisions and deliveries see wall time.
        self._stamp = self._clock.now
        if transport == "tcp":
            # The tcp sinks, bound once here: the memory transport runs the
            # kernel's sink methods with no per-call transport test.
            self.send = self._tcp_send
            self.broadcast = self._tcp_broadcast
            self.arm_timer = self._tcp_arm_timer
            self._push_control = self._tcp_push_control
            # Kernel recording the tcp transport does not honour fails loudly
            # instead of reading as a run with no traffic.
            self.submit = self._tcp_submit
            del self.delivery_log
        #: Fault scripts registered before the loop exists (tcp transport).
        self._scripted_controls: list[tuple[float, int, Any]] = []
        # -- live-loop state (tcp transport, valid only inside one run) --
        self._loop: asyncio.AbstractEventLoop | None = None
        self._inboxes: list[asyncio.Queue | None] = []
        self._tasks: list[asyncio.Task | None] = []
        self._node_failure: BaseException | None = None
        self._delivered_total = 0
        # -- tcp-transport state --
        self._servers: list[asyncio.Server] = []
        self._ports: dict[Hashable, int] = {}
        #: One outbound link per (sender, dest) pair, dialed on first use.
        self._links: dict[tuple[Hashable, Hashable], wire.FrameLink] = {}
        #: Accepted inbound connections, closed before the servers at teardown.
        self._conns: set[asyncio.StreamWriter] = set()
        #: Decoded peer frames by body, shared by every node's listener.
        self._frames = wire.FrameTable()
        #: Messages held before any link (crashed or partitioned destination):
        #: ``(sender, dest, item)`` with ``item`` as :meth:`_tcp_enqueue` takes it.
        self._held_frames: list[tuple[Hashable, Hashable, Any]] = []
        self._held_timers: dict[int, list[TimerHandle]] = {}
        #: The one asyncio timer of the tcp transport, armed for the calendar's
        #: head (at ``_wake_at``, in ``loop.time()`` seconds) by :meth:`_tcp_file`.
        self._wake: asyncio.TimerHandle | None = None
        self._wake_at = _INFINITY

    @property
    def transport(self) -> str:
        return self._transport

    @property
    def framing(self) -> str:
        """Wire framing of the TCP transport (``"json"`` or ``"binary"``)."""
        return self._codec.name

    # -- running ---------------------------------------------------------------------

    def run(
        self,
        stop_when: Callable[[], bool] | None = None,
        max_messages: int = 200_000,
        max_events: int | None = None,
        max_wall_s: float | None = None,
    ) -> RunResult:
        """Run until a stop condition, with wall-clock times.

        Semantics are :meth:`TurboEngine.run`'s: stop on the predicate, on
        quiescence, or on the ``max_messages``/``max_events`` valves.
        ``max_wall_s`` additionally bounds real elapsed time (reported as an
        event-cap truncation), so a hung run fails fast instead of wedging
        the caller.  The memory transport runs the kernel's loop inline; the
        tcp transport runs a fresh event loop and must not be called from
        inside a running one.
        """
        if self._transport == "tcp":
            if max_events is None:
                max_events = max_messages * 8
            return asyncio.run(self._run_tcp(stop_when, max_messages, max_events, max_wall_s))
        self._clock.start()
        started_wall = _time.perf_counter()
        start_decisions = len(self.metrics.decisions)
        latency_origin = self._clock.now()
        timed_out = False
        until = stop_when
        if self.time_scale > 0 or max_wall_s is not None:
            # Pacing and the wall budget ride on the stop predicate, which the
            # loop consults before every pop.  Pace against the absolute wall
            # schedule (anchor + time * scale), not per-gap sleeps: sleep
            # granularity would otherwise accumulate across thousands of
            # events, and a run behind schedule catches up by not sleeping.
            scale = self.time_scale
            times = self._times
            anchor = started_wall - self._now * scale
            deadline = None if max_wall_s is None else started_wall + max_wall_s

            def until() -> bool:
                nonlocal timed_out
                if stop_when is not None and stop_when():
                    return True
                wall = _time.perf_counter()
                if deadline is not None and wall > deadline:
                    timed_out = True
                    return True
                if scale and times:
                    head = self._head()
                    if head[2] == _TIMER and head[4].cancelled:
                        return False  # the loop skips it: nothing to wait for
                    remaining = anchor + head[0] * scale - wall
                    if remaining > 0.0:
                        _time.sleep(remaining)
                return False

        result = super().run(until, max_messages, max_events)
        result.end_time = self._clock.now()
        result.wall_time_s = _time.perf_counter() - started_wall
        result.decision_latency = self._decision_latency(start_decisions, latency_origin)
        if timed_out:
            result.stopped_by_predicate = False
            result.events_capped = True
        return result

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
        # The calendar outlives the loop: what is left on it is due in the
        # next run.
        if self._wake is not None:
            self._wake.cancel()
            self._wake = None
        self._wake_at = _INFINITY
        for index in range(len(self._tasks)):
            await self._cancel_node(index)
        # Both ends of every connection close before the servers do: from
        # Python 3.12.1, Server.wait_closed() waits for every connection the
        # server accepted.
        for link in self._links.values():
            await link.close()
        self._links = {}
        for writer in self._conns:
            writer.close()
        self._conns = set()
        for server in self._servers:
            server.close()
            await server.wait_closed()
        self._servers = []
        self._ports = {}
        # Inboxes are kept: a crashed node's queued frames must survive into
        # a follow-up run (the run drivers swap in fresh loop-bound queues).
        self._loop = None

    # -- tcp transport: peer frames on FrameLinks over localhost -----------------------

    def _tcp_send(self, sender: Hashable, dest: Hashable, payload: Any, depth: int) -> None:
        """Queue one message (authenticated: ``sender`` is the emitting core)."""
        self._tcp_fanout(sender, (dest,), payload, depth)

    def _tcp_broadcast(self, sender: Hashable, payload: Any, depth: int) -> None:
        """One message per member of ``sender``'s core, one frame for every link."""
        self._tcp_fanout(sender, members_of(self._nodes[sender]), payload, depth)

    def _tcp_submit(self, sender: Hashable, dest: Hashable, payload: Any) -> None:
        raise RuntimeError("submit() belongs to the memory transport; tcp traffic comes from the cores")

    def _tcp_arm_timer(self, pid: Hashable, delay: float, handle: TimerHandle) -> None:
        loop = self._loop
        if loop is None:
            raise RuntimeError("tcp timers can only be armed while the loop runs")
        # Cancellation is lazy (checked at fire time, like the simulated
        # backends): a cancelled timer stays on the calendar until its time.
        self._seq += 1
        self._tcp_file((loop.time() + delay * self.time_scale, self._seq, _TIMER, self._index[pid], handle))

    def _tcp_push_control(self, at: float | None, kind: int, arg: Any) -> None:
        due = 0.0 if at is None else at
        if invalid_time(due):
            raise ValueError(f"invalid event time {due!r}")
        self._scripted_controls.append((due, kind, arg))

    def _admit(self, sender: Hashable, dest: Hashable, payload: Any, depth: int) -> tuple[Envelope, float]:
        """Count one message to ``dest`` as sent and draw its delay."""
        if dest not in self._index:
            raise ValueError(f"unknown destination {dest!r}")
        self._msg_seq += 1
        envelope = Envelope(
            sender=sender,
            dest=dest,
            payload=payload,
            send_time=self._clock.now(),
            depth=depth,
            seq=self._msg_seq,
        )
        delay = self._delay_model.delay(envelope, self.rng)
        if invalid_time(delay):
            raise ValueError(f"delay model produced invalid delay {delay!r}")
        self.pending_messages += 1
        self.metrics.record_send(sender, dest, envelope.mtype, envelope)
        return envelope, delay

    def _tcp_fanout(self, sender: Hashable, dests: Iterable[Hashable], payload: Any, depth: int) -> None:
        """One message per destination, each paced by its own drawn delay.

        The frame is encoded once and the same bytes go on every link; a
        message to the sender itself is handed over as its inbox event.
        Under ``wire_faults`` each link's forgeries are drawn for that link,
        so a replay re-sends an earlier frame of the same link (the receiver
        stamps the link's sender on it).
        """
        loop = self._loop
        if loop is None:
            raise RuntimeError("tcp sends require a running engine loop")
        data = None
        for dest in dests:
            envelope, delay = self._admit(sender, dest, payload, depth)
            if dest == sender:
                item = (_EV_MSG, envelope)
            else:
                if data is None:
                    frame = wire.peer_frame(payload)
                    frame["depth"] = depth
                    data = self._codec.encode_frame(frame)
                item = data if self._forger is None else self._forger.forge(frame, data, (sender, dest)) + data
            wall_delay = delay * self.time_scale
            if wall_delay <= 0.0:
                # Unpaced: straight into the link buffer, so every frame
                # emitted in this task step rides the link's next write.
                self._tcp_enqueue(sender, dest, item)
            else:
                self._seq += 1
                self._tcp_file((loop.time() + wall_delay, self._seq, _MESSAGE, sender, dest, item))

    # -- tcp transport: the calendar ------------------------------------------------------

    def _tcp_file(self, entry: tuple) -> None:
        """File one paced message or timer on the engine's calendar, and
        re-arm the wake-up if it is now the head.

        Due times are ``loop.time()`` seconds, the monotonic clock every
        event loop reads, so an entry left over when a run's loop closes is
        still due at the right moment in the next run.
        """
        self._enqueue(entry)
        if entry[0] < self._wake_at:
            self._tcp_arm(entry[0])

    def _tcp_arm(self, due: float) -> None:
        """Point the one asyncio timer at ``due``."""
        if self._wake is not None:
            self._wake.cancel()
        self._wake_at = due
        self._wake = self._loop.call_at(due, self._tcp_due)

    def _tcp_due(self) -> None:
        """Hand every calendar entry now due to its handler, in ``(time, seq)``
        order, then re-arm for the new head."""
        self._wake = None
        # Entries filed by the handlers below wait for the re-arm at the end.
        self._wake_at = -_INFINITY
        times = self._times
        now = self._loop.time()
        try:
            while times and times[0] <= now:
                entry = self._pop()
                kind = entry[2]
                if kind == _MESSAGE:
                    self._tcp_enqueue(entry[3], entry[4], entry[5])
                elif kind == _TIMER:
                    self._tcp_fire_timer(entry[3], entry[4])
                else:
                    self._tcp_apply_control(kind, entry[3])
        except Exception as failure:
            # A core's crash/recover hook or an injection raised: fail the
            # run, as a failing message handler does.
            if self._node_failure is None:
                self._node_failure = failure
        finally:
            self._wake_at = _INFINITY
            if times:
                self._tcp_arm(times[0])

    def _tcp_enqueue(self, sender: Hashable, dest: Hashable, item: Any) -> None:
        """Queue one message on the (sender, dest) link, or hold it.

        ``item`` is the encoded frame, or for a message to oneself (a node
        has no link to itself) the inbox event.
        """
        index = self._index[dest]
        if self._loop is None or index in self._crashed or (
            self._partition_groups and self._link_blocked(sender, dest)
        ):
            # Channels are reliable: hold the frame, release on recover/heal.
            self._held_frames.append((sender, dest, item))
            return
        if dest == sender:
            self._inboxes[index].put_nowait(item)
            return
        link = self._links.get((sender, dest))
        if link is None:
            link = self._links[sender, dest] = wire.FrameLink(
                self._host, self._ports[dest], self._codec, hello=wire.hello_frame(sender)
            )
            link.start()
        link.send_encoded(item)

    async def _serve_link(self, index: int, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        """One connection to node ``index``'s listener, read by the shared
        peer-frame reader with the engine's pids as the membership.

        On a clean wire a checksum, decode or protocol violation fails the
        run; under ``wire_faults`` it is counted in :attr:`wire_fault_stats`
        and the frame skipped.
        """
        self._conns.add(writer)
        try:
            await wire.read_peer_frames(
                reader,
                self._codec,
                self._frames,
                self._pids[index],
                self._index,
                partial(self._receive, index),
                on_reject=None if self._forger is None else self._count_wire_rejection,
            )
        except (OSError, asyncio.CancelledError):
            # A reset, or loop shutdown after teardown: end quietly instead of
            # surfacing the cancellation through the stream server's callback.
            pass
        except Exception as failure:
            if self._node_failure is None:
                self._node_failure = failure
        finally:
            self._conns.discard(writer)
            writer.close()

    def _receive(self, index: int, sender: Hashable, frame: dict) -> None:
        """Queue one peer frame, stamped with its connection's sender."""
        if "wf" in frame:
            # An injected duplicate/replay/tamper frame (marked with
            # wire_faults.INJECTED_KEY) was never counted as a send; balance
            # the decrement its delivery will apply.
            self.pending_messages += 1
            self._count_wire_rejection("injected_delivered")
        envelope = Envelope(sender, self._pids[index], frame["payload"], 0.0, depth=frame["depth"])
        self._inboxes[index].put_nowait((_EV_MSG, envelope))

    def _tcp_release_held(self) -> None:
        held, self._held_frames = self._held_frames, []
        for sender, dest, item in held:
            # Re-enqueue (and re-filter: still-blocked links hold again).
            self._tcp_enqueue(sender, dest, item)

    def _tcp_fire_timer(self, index: int, handle: TimerHandle) -> None:
        if handle.cancelled:
            return
        if index in self._crashed:
            # Timers are held for a crashed process, not lost: the recovery
            # path fires them.
            self._held_timers.setdefault(index, []).append(handle)
            return
        self._inboxes[index].put_nowait((_EV_TIMER, handle))

    def _count_wire_rejection(self, kind: str) -> None:
        self.wire_stats[kind] = self.wire_stats.get(kind, 0) + 1

    @property
    def wire_fault_stats(self) -> dict[str, int]:
        """Receive-side rejection counts plus send-side injection counts."""
        stats = dict(self.wire_stats)
        if self._forger is not None:
            for mode, count in self._forger.stats.items():
                stats[f"sent_{mode}"] = count
        return stats

    def _tcp_apply_control(self, kind: int, arg: Any) -> None:
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
                for handle in self._held_timers.pop(index, ()):
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
            # One listening socket per node; ports are ephemeral.
            for index, pid in enumerate(self._pids):
                server = await asyncio.start_server(partial(self._serve_link, index), self._host, 0)
                self._servers.append(server)
                self._ports[pid] = server.sockets[0].getsockname()[1]
            for index in range(len(self._cores)):
                if index not in self._crashed:
                    self._spawn_node(index)
            # Fault scripts registered before the loop existed join the
            # calendar, due on this run's clock at the time scale of message
            # delays; entries an earlier run left there are due as filed.
            started = loop.time()
            for due, kind, arg in self._scripted_controls:
                self._seq += 1
                self._enqueue((started + due * self.time_scale, self._seq, kind, arg))
            self._scripted_controls = []
            if self._times:
                self._tcp_arm(self._times[0])
            if not self._started:
                self._started = True
                for index in range(len(self._cores)):
                    if index not in self._crashed:
                        self._inboxes[index].put_nowait((_EV_START,))
            deadline = None if max_wall_s is None else started_wall + max_wall_s
            # Quiescence: nothing in flight (delay-paced sends, held
            # frames, queued-but-unprocessed inbox events all count) after at
            # least one settle poll, and no timer or scripted control still
            # to run, as on the simulated backends.
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
                        and not self._tcp_timers_live()
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

    def _tcp_timers_live(self) -> bool:
        """Whether a timer or scripted control is still to run: on the
        calendar and not cancelled, or come due and queued in a live node's
        inbox.  Read only when no message is pending, so no paced message
        is on the calendar and a live inbox holds no message."""
        for slot in self._buckets.values():
            for entry in (slot,) if slot.__class__ is tuple else slot:
                if entry[2] != _TIMER or not entry[4].cancelled:
                    return True
        return any(
            inbox.qsize() for index, inbox in enumerate(self._inboxes) if index not in self._crashed
        )

    def _tcp_stalled(self) -> bool:
        """Whether every pending message is held with no future release.

        True when the calendar is empty (no paced message, timer or scripted
        control is still to come) and all pending traffic sits in the
        held-frame list or in a crashed node's inbox.  ``stalled`` is the
        TCP analogue of the simulated backends' queue-exhaustion exit: the
        run ends non-quiescent rather than polling forever.
        """
        if self._times:
            return False
        held = len(self._held_frames)
        for index in self._crashed:
            inbox = self._inboxes[index]
            if inbox is not None:
                held += inbox.qsize()
        return self.pending_messages > 0 and self.pending_messages == held
