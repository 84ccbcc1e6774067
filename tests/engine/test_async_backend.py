"""AsyncEngine: asyncio node tasks, wall-clock time, memory and TCP transports."""

import asyncio
import time
from collections import defaultdict

import pytest

from repro.engine import AsyncEngine, FixedDelay, ProtocolCore, UniformDelay, create_engine
from repro.sim.faults import FaultPlan


class Echoer(ProtocolCore):
    """Replies once to every ping; p0 seeds the conversation."""

    def __init__(self, pid, peers):
        super().__init__(pid)
        self.peers = peers
        self.seen = []

    def on_start(self):
        if self.pid == "p0":
            for peer in self.peers:
                if peer != self.pid:
                    self.send(peer, ("ping", self.pid))

    def on_message(self, sender, payload):
        self.seen.append((sender, payload))
        if payload[0] == "ping":
            self.send(sender, ("pong", self.pid))


class Relay(ProtocolCore):
    """Passes a token around the ring ``pids`` for ``hops`` deliveries."""

    def __init__(self, pid, pids, hops):
        super().__init__(pid)
        self.pids = pids
        self.hops = hops

    def _forward(self, hops_left):
        self.send(self.pids[(self.pids.index(self.pid) + 1) % len(self.pids)], hops_left)

    def on_start(self):
        if self.pid == self.pids[0]:
            self._forward(self.hops - 1)

    def on_message(self, sender, hops_left):
        if hops_left:
            self._forward(hops_left - 1)


class TimerCore(ProtocolCore):
    def __init__(self, pid):
        super().__init__(pid)
        self.fired = []
        self.cancelled_handle = None

    def on_start(self):
        self.set_timer(5.0, "keep", {"x": 1})
        self.cancelled_handle = self.set_timer(1.0, "dropped")
        self.cancel_timer(self.cancelled_handle)

    def on_timer(self, tag, payload=None):
        self.fired.append((tag, payload))


class CrashWitness(ProtocolCore):
    def __init__(self, pid):
        super().__init__(pid)
        self.lifecycle = []
        self.received = []

    def on_crash(self):
        self.lifecycle.append("crash")

    def on_recover(self):
        self.lifecycle.append("recover")

    def on_message(self, sender, payload):
        self.received.append(payload)


def _wts_cluster(engine, n):
    """``n`` WTS cores (f = (n - 1) // 3) on ``engine``, each proposing its own value."""
    from repro.core.wts import WTSProcess
    from repro.lattice.set_lattice import SetLattice

    lattice = SetLattice()
    pids = [f"p{i}" for i in range(n)]
    return [
        engine.add_core(WTSProcess(pid, lattice, pids, (n - 1) // 3, proposal=frozenset({f"v-{pid}"})))
        for pid in pids
    ]


def _cluster(transport="memory", **kwargs):
    engine = AsyncEngine(
        delay_model=FixedDelay(1.0), seed=0, transport=transport, **kwargs
    )
    pids = ["p0", "p1", "p2"]
    nodes = [engine.add_core(Echoer(pid, pids)) for pid in pids]
    return engine, nodes


class TestConstruction:
    def test_unknown_transport_rejected(self):
        with pytest.raises(ValueError, match="unknown transport"):
            AsyncEngine(transport="carrier-pigeon")

    def test_negative_time_scale_rejected(self):
        with pytest.raises(ValueError, match="time_scale"):
            AsyncEngine(time_scale=-1.0)

    def test_delay_model_and_scheduler_are_exclusive(self):
        from repro.sim.scheduler import RandomScheduler

        with pytest.raises(ValueError, match="not both"):
            AsyncEngine(delay_model=UniformDelay(), scheduler=RandomScheduler())

    def test_duplicate_pid_rejected(self):
        engine = AsyncEngine()
        engine.add_core(ProtocolCore("p0"))
        with pytest.raises(ValueError, match="duplicate process id"):
            engine.add_core(ProtocolCore("p0"))

    def test_tcp_has_no_kernel_recording(self):
        engine = AsyncEngine(transport="tcp")
        engine.add_core(ProtocolCore("p0"))
        assert not hasattr(engine, "delivery_log")
        with pytest.raises(RuntimeError, match="memory transport"):
            engine.submit("p0", "p0", "x")

    def test_unknown_framing_rejected(self):
        with pytest.raises(ValueError, match="unknown framing"):
            AsyncEngine(framing="morse")  # WireError is a ValueError

    def test_framing_property_reports_the_codec(self):
        assert AsyncEngine().framing == "json"
        assert AsyncEngine(framing="binary").framing == "binary"


class TestMemoryTransport:
    def test_runs_to_quiescence(self):
        engine, nodes = _cluster()
        result = engine.run_until_quiescent()
        assert result.quiescent and result.delivered == 4  # 2 pings + 2 pongs
        assert sorted(p for _s, p in nodes[0].seen) == [("pong", "p1"), ("pong", "p2")]

    def test_wall_clock_semantics(self):
        engine, _nodes = _cluster()
        assert engine.now == 0.0  # before the run the wall clock is unanchored
        result = engine.run_until_quiescent()
        assert engine.clock.time_source == "wall-clock"
        assert 0.0 < result.end_time <= result.wall_time_s + 1e-6
        # Decision-free run: outputs empty, but metrics counted wall deliveries.
        assert engine.metrics.total_delivered == 4

    def test_timers_fire_and_cancellation_sticks(self):
        engine = AsyncEngine(delay_model=FixedDelay(1.0), seed=0)
        core = engine.add_core(TimerCore("p0"))
        result = engine.run_until_quiescent()
        assert core.fired == [("keep", {"x": 1})]
        assert result.quiescent

    def test_crash_holds_traffic_until_recovery(self):
        engine = AsyncEngine(delay_model=FixedDelay(1.0), seed=0)
        witness = engine.add_core(CrashWitness("p0"))

        class Talker(ProtocolCore):
            def on_start(self):
                self.send("p0", "before-crash-window")

        engine.add_core(Talker("p1"))
        # Crash p0 immediately; its message is held, then handed over.
        engine.crash_node("p0", at=0.5)
        engine.recover_node("p0", at=10.0)
        result = engine.run_until_quiescent()
        assert witness.lifecycle == ["crash", "recover"]
        assert witness.received == ["before-crash-window"]  # reliable channels
        assert result.quiescent

    def test_fault_plan_applies(self):
        engine, nodes = _cluster()
        plan = FaultPlan().crash("p1", at=0.2, recover_at=5.0)
        engine.apply_fault_plan(plan)
        result = engine.run_until_quiescent()
        # Everything still delivers after recovery (hold, not loss).
        assert result.quiescent and result.delivered == 4

    @pytest.mark.parametrize("stop_when", [None, lambda: False], ids=["no-predicate", "never-true"])
    def test_max_wall_s_fails_fast(self, stop_when):
        class Rearming(ProtocolCore):
            def on_start(self):
                self.set_timer(1.0, "tick")

            def on_timer(self, tag, payload=None):
                self.set_timer(1.0, "tick")  # forever

        engine = AsyncEngine(delay_model=FixedDelay(1.0), seed=0)
        engine.add_core(Rearming("p0"))
        result = engine.run(stop_when=stop_when, max_wall_s=0.05)
        # A wall timeout is an event-cap truncation, not the predicate firing...
        assert result.events_capped and not result.quiescent
        assert not result.stopped_by_predicate
        # ...and it trips long before the default valve (8 x 200_000 events).
        assert result.events < 1_600_000 // 10

    def test_time_scale_paces_a_forwarding_chain_in_the_kernel_order(self):
        hops, scale = 10, 0.01

        def chain(backend, **kwargs):
            engine = create_engine(backend, delay_model=FixedDelay(1.0), seed=0, **kwargs)
            pids = ["p0", "p1", "p2"]
            for pid in pids:
                engine.add_core(Relay(pid, pids, hops))
            # The calendar's tail: a far-off timer, cancelled before it is due.
            engine.schedule_timer("p0", 1000.0, "far").cancel()
            return engine, engine.run_until_quiescent()

        kernel, kernel_result = chain("kernel")
        paced, result = chain("async", time_scale=scale)
        assert result.quiescent and result.delivered == hops
        assert result.events == kernel_result.events
        # Delivery k is due at simulated time k, so no earlier than k * scale
        # wall seconds after the run's anchor, and is stamped with that wall time.
        assert result.wall_time_s >= (hops - 1) * scale
        # ...but the cancelled timer is not waited for (that would take 10 s).
        assert result.wall_time_s < 2.0
        for k, env in enumerate(paced.delivery_log, start=1):
            assert k * scale - 1e-6 <= env.deliver_time <= result.end_time
        assert [(env.sender, env.dest, env.seq) for env in paced.delivery_log] == [
            (env.sender, env.dest, env.seq) for env in kernel.delivery_log
        ]

    def test_time_scale_paces_a_random_delay_chain_past_cancelled_head_timers(self):
        # Under a random delay every due time is distinct, so the pacing
        # peek reads lone entries, stored bare in the calendar.
        hops, scale = 10, 0.01

        def chain(backend, **kwargs):
            engine = create_engine(backend, delay_model=UniformDelay(0.5, 1.5), seed=4, **kwargs)
            pids = ["p0", "p1", "p2"]
            for pid in pids:
                engine.add_core(Relay(pid, pids, hops))
            # The calendar's head at the first pop, and its last entry (the
            # head once the chain is done): both cancelled before they are due.
            engine.schedule_timer("p1", 0.1, "near").cancel()
            engine.schedule_timer("p0", 1000.0, "far").cancel()
            return engine, engine.run_until_quiescent()

        kernel, kernel_result = chain("kernel")
        paced, result = chain("async", time_scale=scale)
        assert result.quiescent and result.delivered == hops
        assert result.events == kernel_result.events
        assert [(env.sender, env.dest, env.seq) for env in paced.delivery_log] == [
            (env.sender, env.dest, env.seq) for env in kernel.delivery_log
        ]
        # Each delivery waits for its simulated due time, scaled...
        for env, reference in zip(paced.delivery_log, kernel.delivery_log):
            assert reference.deliver_time * scale - 1e-6 <= env.deliver_time <= result.end_time
        assert result.wall_time_s >= kernel.delivery_log[-1].deliver_time * scale
        # ...but no cancelled timer is waited for (the far one would take 10 s).
        assert result.wall_time_s < 2.0

    def test_run_until_decided(self):
        class Decider(ProtocolCore):
            def on_message(self, sender, payload):
                self.decide(payload)

        engine = AsyncEngine(delay_model=FixedDelay(1.0), seed=0)
        engine.add_core(Echoer("p0", ["p0", "p1"]))
        engine.add_core(Decider("p1"))
        result = engine.run_until_decided(["p1"])
        assert result.stopped_by_predicate
        [record] = engine.metrics.decisions
        assert record.pid == "p1" and record.time >= 0.0
        # Wall-clock backends report the decision-latency histogram.
        latency = result.decision_latency
        assert latency["count"] == 1
        assert 0.0 <= latency["p50"] <= latency["p95"] <= latency["p99"] <= latency["max"]

    def test_decision_free_run_has_no_latency_summary(self):
        engine, _nodes = _cluster()
        result = engine.run_until_quiescent()
        assert result.decision_latency is None

    def test_schedule_timer_harness_api(self):
        engine = AsyncEngine(delay_model=FixedDelay(1.0), seed=0)
        core = engine.add_core(TimerCore("p0"))
        engine.schedule_timer("p0", 2.0, "external", "payload")
        engine.run_until_quiescent()
        assert ("external", "payload") in core.fired
        with pytest.raises(ValueError, match="unknown process"):
            engine.schedule_timer("ghost", 1.0, "t")


class TestTcpTransport:
    """Real localhost sockets: frames, decisions, held traffic."""

    @pytest.mark.parametrize("framing", ["json", "binary"])
    def test_cluster_exchanges_frames_and_reaches_quiescence(self, framing):
        engine, nodes = _cluster(transport="tcp", time_scale=0.0, framing=framing)
        result = engine.run(max_wall_s=30.0)
        assert result.delivered == 4
        assert sorted(p for _s, p in nodes[0].seen) == [("pong", "p1"), ("pong", "p2")]
        # The sender identity was stamped by the engine, not the payload.
        assert {s for s, _p in nodes[1].seen} == {"p0"}

    def test_wts_cluster_over_sockets_is_safe(self):
        """End to end: the paper's WTS decides over real TCP and the
        decisions are pairwise comparable (safety is schedule-independent,
        so it must survive genuine network nondeterminism)."""
        from repro.core.wts import WTSProcess
        from repro.lattice.set_lattice import SetLattice

        lattice = SetLattice()
        pids = ["p0", "p1", "p2", "p3"]
        engine = AsyncEngine(
            delay_model=FixedDelay(1.0), seed=0, transport="tcp", time_scale=0.0002
        )
        nodes = {
            pid: engine.add_core(
                WTSProcess(pid, lattice, pids, 1, proposal=frozenset({f"v-{pid}"}))
            )
            for pid in pids
        }
        result = engine.run(
            stop_when=lambda: all(n.has_decided for n in nodes.values()),
            max_wall_s=60.0,
        )
        assert result.stopped_by_predicate
        decisions = [n.decisions[0] for n in nodes.values()]
        assert all(a <= b or b <= a for a in decisions for b in decisions)
        # Comparability must contain every correct proposal's join witness:
        biggest = max(decisions, key=len)
        assert any(f"v-{pid}" in biggest for pid in pids)

    def test_unrecovered_crash_ends_the_run_non_quiescent(self):
        """A permanently crashed destination must not hang the driver: once
        nothing scheduled can release the held traffic, run() returns with
        the pending count intact (the simulated backends' exhaustion exit).
        No max_wall_s is passed on purpose — the stall detector is the exit."""
        engine = AsyncEngine(
            delay_model=FixedDelay(1.0), seed=0, transport="tcp", time_scale=0.0
        )
        engine.add_core(CrashWitness("p0"))

        class Talker(ProtocolCore):
            def on_start(self):
                self.send("p0", "into-the-void")

        engine.add_core(Talker("p1"))
        engine.crash_node("p0", at=0.0)  # never recovered
        result = engine.run(max_messages=100)
        assert result.pending_messages == 1
        assert not result.quiescent and not result.stopped_by_predicate

    def test_repartition_releases_newly_internal_traffic(self):
        """Changing the partition (not just healing it) must re-evaluate held
        frames: a link blocked by the old groups but internal to a new group
        delivers without waiting for a heal."""
        engine = AsyncEngine(
            delay_model=FixedDelay(1.0), seed=0, transport="tcp", time_scale=0.001
        )
        witness = engine.add_core(CrashWitness("p0"))

        class Talker(ProtocolCore):
            def on_start(self):
                self.send("p0", "cross-partition")

        engine.add_core(Talker("p1"))
        engine.add_core(ProtocolCore("p2"))
        engine.start_partition(["p1"], ["p0", "p2"], at=0.0)
        # Repartition so p0 and p1 share a side; never heal.
        engine.start_partition(["p0", "p1"], ["p2"], at=30.0)
        result = engine.run(max_wall_s=30.0)
        assert witness.received == ["cross-partition"]
        assert result.pending_messages == 0

    def test_second_run_reports_per_run_deliveries(self):
        engine, nodes = _cluster(transport="tcp", time_scale=0.0)
        first = engine.run(max_wall_s=30.0)
        assert first.delivered == 4
        # Nothing new in flight: the follow-up run must not re-report run 1.
        second = engine.run(max_wall_s=30.0)
        assert second.delivered == 0

    def test_crashed_node_gets_held_traffic_on_recovery(self):
        engine = AsyncEngine(
            delay_model=FixedDelay(1.0), seed=0, transport="tcp", time_scale=0.001
        )
        witness = engine.add_core(CrashWitness("p0"))

        class Talker(ProtocolCore):
            def on_start(self):
                self.send("p0", "hello")

        engine.add_core(Talker("p1"))
        engine.crash_node("p0", at=0.0)
        engine.recover_node("p0", at=50.0)  # 50ms at this time scale
        result = engine.run(max_wall_s=30.0)
        assert witness.lifecycle == ["crash", "recover"]
        assert witness.received == ["hello"]
        assert result.pending_messages == 0

    def test_duplicated_broadcasts_keep_the_pending_count_exact(self):
        """Every frame on every link is preceded by an injected duplicate.  A
        broadcast's duplicate reaches each listener as the same bytes, so
        most are frame-table hits: a hit that lost the injected marker would
        leave the count unbalanced and the run never quiescent."""
        from repro.core.wts import WTSProcess
        from repro.lattice.set_lattice import SetLattice

        lattice = SetLattice()
        pids = ["p0", "p1", "p2", "p3"]
        engine = AsyncEngine(
            delay_model=FixedDelay(1.0), seed=0, transport="tcp", time_scale=0.0, wire_faults="dup:1.0"
        )
        for pid in pids:
            engine.add_core(WTSProcess(pid, lattice, pids, 1, proposal=frozenset({f"v-{pid}"})))
        result = engine.run(max_wall_s=30.0)
        assert result.quiescent and result.pending_messages == 0
        stats = engine.wire_fault_stats
        assert stats["injected_delivered"] == stats["sent_dup"] > 0
        assert engine._frames.hits > 0

    def test_two_runs_tear_down_every_link_and_connection(self, monkeypatch, caplog):
        """Both ends of every connection close before the servers do (from
        Python 3.12.1 ``Server.wait_closed()`` waits for them), so each run
        returns within its cap and leaves no link task or socket behind."""
        import gc
        import time
        import warnings

        from repro.engine import wire

        links = []
        start = wire.FrameLink.start

        def recording_start(link):
            links.append(link)
            start(link)

        monkeypatch.setattr(wire.FrameLink, "start", recording_start)
        engine, nodes = _cluster(transport="tcp", time_scale=0.0)
        # Run 1 holds p2's pong until the heal that run 2 opens with, so
        # both runs dial links.
        engine.start_partition(["p0", "p1"], ["p2"], at=0.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            results = []
            for run in range(2):
                if run:
                    engine.heal_partition()
                dialed = len(links)
                started = time.perf_counter()
                results.append(engine.run(max_wall_s=10.0))
                assert time.perf_counter() - started < 10.0
                assert len(links) > dialed
                assert all(link.closed and link._task is None for link in links)
            gc.collect()
        assert sum(result.delivered for result in results) == 4
        assert results[0].pending_messages == 1 and results[1].quiescent
        assert sorted(p for _s, p in nodes[0].seen) == [("pong", "p1"), ("pong", "p2")]
        assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []
        # A connection handler cancelled at loop shutdown must end quietly.
        assert [record.getMessage() for record in caplog.records if record.name == "asyncio"] == []

    # -- pacing on the engine's calendar --------------------------------------------------

    def test_paced_frames_in_flight_when_a_run_ends_arrive_in_the_next_run(self):
        """The calendar lives on the engine, not on the run's event loop: a
        frame still waiting out its delay when ``asyncio.run`` closes the loop
        is delivered by the next run."""
        engine = AsyncEngine(
            delay_model=FixedDelay(1.0), seed=0, transport="tcp", time_scale=0.05, framing="json"
        )
        nodes = _wts_cluster(engine, 4)
        first = engine.run(stop_when=lambda: engine.pending_messages > 0, max_wall_s=10.0)
        # Every core's first reliable broadcast (4 x 4 messages) is in flight.
        assert first.stopped_by_predicate and first.pending_messages == 16 and first.delivered == 0
        second = engine.run(max_wall_s=10.0)
        assert second.quiescent and second.pending_messages == 0
        assert not second.events_capped
        assert all(node.has_decided for node in nodes)

    def test_no_paced_frame_reaches_its_link_before_it_is_due(self):
        """A message sent at wall time t with delay d is handed over no
        earlier than t + d * time_scale.  With random delays a link's
        messages may overtake each other, so the check counts: by the
        moment of a link's k-th handover, at least k of its messages must
        have been due."""
        engine = AsyncEngine(delay_model=UniformDelay(0.5, 2.0), seed=3, transport="tcp", time_scale=0.002)
        nodes = _wts_cluster(engine, 4)
        due = defaultdict(list)
        handed = defaultdict(list)
        admit, enqueue = engine._admit, engine._tcp_enqueue

        def timed_admit(sender, dest, payload, depth):
            sent = time.monotonic()
            envelope, delay = admit(sender, dest, payload, depth)
            due[sender, dest].append(sent + delay * engine.time_scale)
            return envelope, delay

        def timed_enqueue(sender, dest, item):
            handed[sender, dest].append(time.monotonic())
            enqueue(sender, dest, item)

        engine._admit = timed_admit
        engine._tcp_enqueue = timed_enqueue
        result = engine.run(stop_when=lambda: all(node.has_decided for node in nodes), max_wall_s=30.0)
        assert result.stopped_by_predicate
        assert sum(map(len, handed.values())) >= result.delivered > 0
        for link, moments in handed.items():
            for count, moment in enumerate(moments, start=1):
                assert sum(1 for when in due[link] if when <= moment) >= count, link

    def test_a_timer_due_after_its_run_fires_in_the_next_run(self):
        engine = AsyncEngine(delay_model=FixedDelay(1.0), seed=0, transport="tcp", time_scale=0.01)
        core = engine.add_core(TimerCore("p0"))
        # The run stops once the core armed its timers, long before the
        # 50 ms timer is due.
        first = engine.run(stop_when=lambda: core.cancelled_handle is not None, max_wall_s=10.0)
        assert first.stopped_by_predicate and core.fired == []
        time.sleep(0.06)
        engine.run(stop_when=lambda: bool(core.fired), max_wall_s=10.0)
        # The cancelled timer stays cancelled.
        assert core.fired == [("keep", {"x": 1})]

    def test_an_armed_timer_keeps_the_run_from_being_quiescent(self):
        """With nothing in flight, a run still waits for an armed timer to
        fire, as the simulated backends do."""
        engine = AsyncEngine(delay_model=FixedDelay(1.0), seed=0, transport="tcp", time_scale=0.01)
        core = engine.add_core(TimerCore("p0"))
        result = engine.run(max_wall_s=10.0)
        assert result.quiescent and core.fired == [("keep", {"x": 1})]
        assert 0.05 <= result.wall_time_s < 5.0

    def test_an_rsm_run_waits_for_its_replicas_hold_timers(self):
        """A replica holding a command opens its round on a timer, with no
        message in flight: the run must not end there."""
        from repro.harness import build_scenario
        from repro.rsm.crdt import GCounterObject

        counter = GCounterObject("hits")
        scripts = {f"c{i}": [("update", counter.op_inc(k + 1)) for k in range(3)] for i in range(2)}
        scenario = build_scenario(
            "rsm", 4, 1, inputs=scripts, rounds=20, seed=3, backend="async", transport="tcp",
            time_scale=0.01, max_wall_s=60.0,
        )
        result = scenario.run()
        assert result.run.stopped_by_predicate
        assert sum(len(client.completed_operations()) for client in scenario.extras["clients"].values()) == 6

    def test_pacing_takes_far_fewer_asyncio_timers_than_messages(self, monkeypatch):
        """One asyncio timer serves the calendar's head, not one per paced
        message.  ``call_later`` arms through ``call_at``, so wrapping
        ``call_at`` counts both (the driver's poll sleeps included)."""
        handles = 0
        call_at = asyncio.BaseEventLoop.call_at

        def counting_call_at(loop, *args, **kwargs):
            nonlocal handles
            handles += 1
            return call_at(loop, *args, **kwargs)

        monkeypatch.setattr(asyncio.BaseEventLoop, "call_at", counting_call_at)
        engine = AsyncEngine(seed=0, transport="tcp")
        nodes = _wts_cluster(engine, 7)
        result = engine.run(stop_when=lambda: all(node.has_decided for node in nodes), max_wall_s=60.0)
        assert result.stopped_by_predicate
        assert 0 < handles < result.delivered / 10
