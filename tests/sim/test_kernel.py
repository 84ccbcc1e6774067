"""Unit tests for the simulated-time event loop: calendar, timers, crashes, partitions."""

import pytest

from repro.engine import FixedDelay, KernelEngine, ProtocolCore, create_engine


class Recorder(ProtocolCore):
    """Records every message, timer and crash/recover hook invocation."""

    def __init__(self, pid):
        super().__init__(pid)
        self.received = []
        self.timers = []
        self.crashes = 0
        self.recoveries = 0

    def on_message(self, sender, payload):
        self.received.append((self.now, sender, payload))

    def on_timer(self, tag, payload=None):
        self.timers.append((self.now, tag, payload))

    def on_crash(self):
        self.crashes += 1

    def on_recover(self):
        self.recoveries += 1


def build(n=3, delay=1.0, seed=0):
    network = KernelEngine(delay_model=FixedDelay(delay), seed=seed)
    nodes = [network.add_node(Recorder(f"p{i}")) for i in range(n)]
    return network, nodes


@pytest.mark.parametrize("backend", ["kernel", "turbo", "async"])
class TestCalendar:
    """The one calendar, on every engine that runs it (async: its memory
    transport, where ``core.now`` is a wall-clock reading)."""

    def _engine(self, backend):
        engine = create_engine(backend, delay_model=FixedDelay(1.0), seed=0)
        core = engine.add_core(Recorder("a"))
        engine.start()
        return engine, core

    def test_timers_fire_in_time_order_and_same_time_timers_in_arm_order(self, backend):
        engine, core = self._engine(backend)
        engine.schedule_timer("a", 5.0, "t1")
        engine.schedule_timer("a", 3.0, "t2")
        engine.schedule_timer("a", 5.0, "t3")  # same time as t1, armed later
        result = engine.run_until_quiescent()
        assert [tag for _now, tag, _payload in core.timers] == ["t2", "t1", "t3"]
        assert result.events == 3
        if engine.time_source == "simulated":
            assert core.timers == [(3.0, "t2", None), (5.0, "t1", None), (5.0, "t3", None)]
            assert engine.now == pytest.approx(5.0)
        else:  # wall-clock readings, not the simulated due times
            assert all(0.0 <= now <= engine.now for now, _tag, _payload in core.timers)

    def test_cancelled_timer_is_skipped(self, backend):
        engine, core = self._engine(backend)
        handle = engine.schedule_timer("a", 1.0, "t")
        engine.schedule_timer("a", 2.0, "k")
        handle.cancel()
        result = engine.run_until_quiescent()
        assert result.events == 1  # the cancelled entry is not an event
        if engine.time_source == "simulated":
            assert core.timers == [(2.0, "k", None)]
        else:  # a wall-clock reading, not the simulated due time
            assert [tag for _now, tag, _payload in core.timers] == ["k"]

    def test_crash_scheduled_in_the_past_rejected(self, backend):
        engine, _ = self._engine(backend)
        engine.schedule_timer("a", 5.0, "t")
        engine.run_until_quiescent()
        with pytest.raises(ValueError, match="invalid event time"):
            engine.crash_node("a", at=1.0)


class TestTimers:
    def test_set_timer_fires_on_timer(self):
        network, nodes = build()
        network.start()
        network.schedule_timer("p0", 4.0, "wake", {"k": 1})
        network.run_until_quiescent()
        assert nodes[0].timers == [(4.0, "wake", {"k": 1})]

    def test_cancelled_timer_never_fires(self):
        network, nodes = build()
        network.start()
        handle = network.schedule_timer("p0", 4.0, "wake")
        handle.cancel()
        network.run_until_quiescent()
        assert nodes[0].timers == []

    def test_timers_do_not_count_as_pending_messages(self):
        network, nodes = build()
        network.start()
        network.schedule_timer("p0", 1.0, "wake")
        assert network.pending() == 0
        result = network.run_until_quiescent()
        assert result.quiescent
        assert result.events == 1 and result.delivered == 0

    def test_timers_interleave_with_deliveries_in_time_order(self):
        network, nodes = build(delay=2.0)
        network.start()
        network.submit("p0", "p1", "msg")  # arrives at 2.0
        network.schedule_timer("p1", 1.0, "early")
        network.schedule_timer("p1", 3.0, "late")
        network.run_until_quiescent()
        assert nodes[1].timers[0][1] == "early"
        assert nodes[1].received[0][0] == pytest.approx(2.0)
        assert nodes[1].timers[1][1] == "late"


class TestCrashRecover:
    def test_crashed_node_messages_held_until_recovery(self):
        network, nodes = build(delay=1.0)
        network.crash_node("p1", at=0.0)
        network.recover_node("p1", at=10.0)
        network.start()
        network.submit("p0", "p1", "while-down")
        result = network.run_until_quiescent()
        assert result.quiescent
        # The message was held (not lost) and handed over at recovery time.
        assert nodes[1].received == [(10.0, "p0", "while-down")]
        assert nodes[1].crashes == 1 and nodes[1].recoveries == 1

    def test_crashed_node_timers_held_until_recovery(self):
        network, nodes = build()
        network.start()
        network.schedule_timer("p1", 2.0, "alarm")
        network.crash_node("p1", at=1.0)
        network.recover_node("p1", at=8.0)
        network.run_until_quiescent()
        assert nodes[1].timers == [(8.0, "alarm", None)]

    def test_pending_counts_held_messages_as_in_flight(self):
        network, nodes = build(delay=1.0)
        network.crash_node("p1", at=0.0)
        network.start()
        network.submit("p0", "p1", "x")
        # Drain: crash event + held delivery; no recovery scheduled.
        result = network.run_until_quiescent()
        assert result.events == 2 and result.delivered == 0
        assert not result.quiescent
        assert network.pending() == 1  # still in flight, waiting for recovery
        assert nodes[1].received == []

    def test_timer_cancelled_while_held_does_not_fire_after_recovery(self):
        network, nodes = build()
        network.start()
        handle = network.schedule_timer("p1", 2.0, "alarm")
        network.crash_node("p1", at=1.0)
        network.recover_node("p1", at=8.0)
        # Cancel while the timer is parked for the crashed node.
        network.inject(lambda net: handle.cancel(), at=5.0)
        network.run_until_quiescent()
        assert nodes[1].timers == []

    def test_crash_and_recover_are_idempotent(self):
        network, nodes = build()
        network.crash_node("p0", at=1.0)
        network.crash_node("p0", at=2.0)
        network.recover_node("p0", at=3.0)
        network.recover_node("p0", at=4.0)
        network.run_until_quiescent()
        assert nodes[0].crashes == 1 and nodes[0].recoveries == 1


class TestPartitions:
    def test_cross_partition_traffic_held_until_heal(self):
        network, nodes = build(n=4, delay=1.0)
        network.start_partition(["p0", "p1"], ["p2", "p3"], at=0.0)
        network.heal_partition(at=20.0)
        network.start()
        network.submit("p0", "p2", "cross")
        network.submit("p0", "p1", "local")
        result = network.run_until_quiescent()
        assert result.quiescent
        assert nodes[1].received == [(1.0, "p0", "local")]
        assert nodes[2].received == [(20.0, "p0", "cross")]

    def test_unlisted_pid_keeps_full_connectivity(self):
        network, nodes = build(n=3, delay=1.0)
        network.start_partition(["p0"], ["p1"], at=0.0)
        network.start()
        network.submit("p2", "p0", "a")
        network.submit("p0", "p2", "b")
        network.run_until_quiescent()
        assert [payload for _, _, payload in nodes[0].received] == ["a"]
        assert [payload for _, _, payload in nodes[2].received] == ["b"]

    def test_partition_replacement_reevaluates_held_traffic(self):
        network, nodes = build(n=3, delay=1.0)
        network.start_partition(["p0"], ["p1", "p2"], at=0.0)
        network.start()
        network.submit("p0", "p1", "x")  # held by the first partition
        # New partition no longer separates p0 from p1: the held message flows.
        network.start_partition(["p0", "p1"], ["p2"], at=5.0)
        network.run_until_quiescent()
        assert nodes[1].received == [(5.0, "p0", "x")]


class TestStepSafetyValve:
    def test_overlapping_groups_rejected_by_network(self):
        network, _ = build(n=3)
        with pytest.raises(ValueError, match="overlap"):
            network.start_partition(["p0", "p1"], ["p1", "p2"], at=0.0)

    def test_single_message_run_stops_on_event_cap_in_timer_only_scenarios(self):
        class Rearming(Recorder):
            def on_start(self):
                self.set_timer(1.0, "tick")

            def on_timer(self, tag, payload=None):
                self.set_timer(1.0, "tick")  # re-arms forever, sends nothing

        network = KernelEngine(delay_model=FixedDelay(1.0), seed=0)
        network.add_node(Rearming("p0"))
        network.start()
        # "Advance by one delivery" returns after max_messages * 8 events
        # instead of spinning, and says so.
        result = network.run(max_messages=1)
        assert result.events_capped and result.events == 8
        assert result.delivered == 0 and not result.quiescent

    def test_runtime_reports_event_cap_instead_of_fake_quiescence(self):
        class Rearming(Recorder):
            def on_start(self):
                self.set_timer(1.0, "tick")

            def on_timer(self, tag, payload=None):
                self.set_timer(1.0, "tick")

        network = KernelEngine(delay_model=FixedDelay(1.0), seed=0)
        network.add_node(Rearming("p0"))
        result = network.run(max_messages=100)
        assert result.events_capped
        assert not result.quiescent  # truncation must not masquerade as done
        assert result.delivered == 0


class TestInject:
    def test_inject_runs_callback_at_time(self):
        network, nodes = build()
        seen = []
        network.inject(lambda net: seen.append(net.now), at=7.0)
        network.start()
        network.run_until_quiescent()
        assert seen == [7.0]


class TestDeterminismWithFaults:
    def _run_once(self, seed):
        network, nodes = build(n=4, delay=1.0, seed=seed)
        network.start_partition(["p0", "p1"], ["p2", "p3"], at=2.0)
        network.heal_partition(at=9.0)
        network.crash_node("p3", at=10.0)
        network.recover_node("p3", at=15.0)
        network.start()
        for node in nodes:
            for peer in ("p0", "p1", "p2", "p3"):
                if peer != node.pid:
                    network.submit(node.pid, peer, f"hello-{node.pid}")
        network.run_until_quiescent()
        return [
            (env.sender, env.dest, env.payload, round(env.deliver_time, 9))
            for env in network.delivery_log
        ]

    def test_same_seed_same_trace_under_faults(self):
        assert self._run_once(3) == self._run_once(3)

    def test_fault_events_do_not_consume_rng(self):
        # A run with faults and one without must draw identical delays for
        # the same sends under a stochastic model (faults only hold traffic).
        from repro.engine import UniformDelay

        def trace(with_faults):
            network = KernelEngine(delay_model=UniformDelay(0.5, 2.0), seed=11)
            nodes = [network.add_node(Recorder(f"p{i}")) for i in range(2)]
            if with_faults:
                network.crash_node("p1", at=100.0)
                network.recover_node("p1", at=101.0)
            network.start()
            network.submit("p0", "p1", "a")
            network.submit("p0", "p1", "b")
            network.run_until_quiescent()
            return [round(e.deliver_time, 9) for e in network.delivery_log]

        assert trace(False) == trace(True)
