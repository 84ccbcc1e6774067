"""Unit tests for the kernel engine backend (topology, delivery, driver)."""

import pytest

from repro.engine import FixedDelay, KernelEngine, ProtocolCore


class Echo(ProtocolCore):
    """Replies 'pong' to every 'ping'."""

    def __init__(self, pid):
        super().__init__(pid)
        self.received = []

    def on_message(self, sender, payload):
        self.received.append((sender, payload))
        if payload == "ping":
            self.send(sender, "pong")


class Greeter(ProtocolCore):
    members = ("g", "s")

    def on_start(self):
        self.broadcast("hello")


class Chatter(ProtocolCore):
    """Sends `budget` messages in a chain (each reply triggers the next)."""

    def __init__(self, pid, peer, budget):
        super().__init__(pid)
        self.peer = peer
        self.budget = budget

    def on_start(self):
        if self.budget > 0:
            self.send(self.peer, self.budget)

    def on_message(self, sender, payload):
        if payload > 1:
            self.send(sender, payload - 1)


class Decider(ProtocolCore):
    def on_start(self):
        self.decide("v")


class TestTopology:
    def test_add_core_and_membership(self):
        engine = KernelEngine()
        a = engine.add_core(Echo("a"))
        b = engine.add_node(Echo("b"))  # alias spelling
        assert engine.pids == ("a", "b")
        assert engine.node("a") is a
        assert engine.node("b") is b

    def test_duplicate_pid_rejected(self):
        engine = KernelEngine()
        engine.add_core(Echo("a"))
        with pytest.raises(ValueError):
            engine.add_core(Echo("a"))

    def test_add_after_start_rejected(self):
        engine = KernelEngine()
        engine.add_core(Echo("a"))
        engine.start()
        with pytest.raises(RuntimeError):
            engine.add_core(Echo("b"))

    def test_unknown_destination_rejected(self):
        engine = KernelEngine()
        engine.add_core(Echo("a"))
        with pytest.raises(ValueError):
            engine.submit("a", "ghost", "hi")


class TestDelivery:
    def test_reliable_exactly_once_delivery(self):
        engine = KernelEngine(delay_model=FixedDelay(1.0), seed=0)
        a = engine.add_core(Echo("a"))
        b = engine.add_core(Echo("b"))
        engine.start()
        engine.submit("a", "b", "ping")
        engine.run_until_quiescent()
        assert b.received == [("a", "ping")]
        assert a.received == [("b", "pong")]

    def test_sender_identity_is_authentic(self):
        """The receiver sees the true sender even if the payload lies."""
        engine = KernelEngine(delay_model=FixedDelay(1.0), seed=0)
        engine.add_core(Echo("liar"))
        victim = engine.add_core(Echo("victim"))
        engine.start()
        engine.submit("liar", "victim", {"claimed_sender": "somebody-else"})
        engine.run_until_quiescent()
        assert victim.received[0][0] == "liar"

    def test_broadcast_effect_reaches_every_member_self_included(self):
        engine = KernelEngine(delay_model=FixedDelay(1.0), seed=0)
        nodes = [engine.add_core(Echo(f"p{i}")) for i in range(3)]

        class Noter(Echo):
            members = ("p0", "p1", "p2", "n")

            def on_start(self):
                self.broadcast("note")

        noter = engine.add_core(Noter("n"))
        engine.run_until_quiescent()
        assert sum(len(n.received) for n in nodes) == 3
        assert len(noter.received) == 1  # its own copy

    def test_on_start_hook_runs_once(self):
        engine = KernelEngine(delay_model=FixedDelay(1.0), seed=0)
        engine.add_core(Greeter("g"))
        sink = engine.add_core(Echo("s"))
        engine.start()
        engine.start()  # idempotent
        engine.run_until_quiescent()
        assert sink.received == [("g", "hello")]

    def test_time_is_monotone_and_follows_delays(self):
        engine = KernelEngine(delay_model=FixedDelay(2.0), seed=0)
        engine.add_core(Echo("a"))
        engine.add_core(Echo("b"))
        engine.start()
        engine.submit("a", "b", "ping")
        times = []
        while engine.run(max_messages=1).delivered:
            times.append(engine.now)
        assert times == sorted(times)
        assert times[0] == pytest.approx(2.0)
        assert times[-1] == pytest.approx(4.0)

    def test_metrics_hooked_into_sends_and_deliveries(self):
        engine = KernelEngine(delay_model=FixedDelay(1.0), seed=0)
        engine.add_core(Echo("a"))
        engine.add_core(Echo("b"))
        engine.start()
        engine.submit("a", "b", "ping")
        engine.run_until_quiescent()
        assert engine.metrics.total_sent == 2  # ping + pong
        assert engine.metrics.total_delivered == 2

    def test_delivery_log_records_envelopes(self):
        engine = KernelEngine(delay_model=FixedDelay(1.0), seed=0)
        engine.add_core(Echo("a"))
        engine.add_core(Echo("b"))
        engine.start()
        engine.submit("a", "b", "ping")
        engine.run_until_quiescent()
        assert [e.payload for e in engine.delivery_log] == ["ping", "pong"]


class TestCausalDepth:
    def test_depth_counts_causal_chains(self):
        engine = KernelEngine(delay_model=FixedDelay(1.0), seed=0)
        a = engine.add_core(Echo("a"))
        b = engine.add_core(Echo("b"))
        engine.start()
        engine.submit("a", "b", "ping")  # depth 1
        engine.run_until_quiescent()
        # b received depth-1 message; its pong has depth 2; a ends at depth 2.
        assert b.causal_depth == 1
        assert a.causal_depth == 2

    def test_depth_is_max_over_received(self):
        engine = KernelEngine(delay_model=FixedDelay(1.0), seed=0)
        engine.add_core(Echo("a"))
        b = engine.add_core(Echo("b"))
        engine.add_core(Echo("c"))
        engine.start()
        engine.submit("a", "b", "ping")
        engine.submit("c", "b", "note")
        engine.run_until_quiescent()
        assert b.causal_depth == 1


def build_pair(budget=10):
    engine = KernelEngine(delay_model=FixedDelay(1.0), seed=0)
    a = engine.add_core(Chatter("a", "b", budget))
    b = engine.add_core(Chatter("b", "a", 0))
    return engine, a, b


class TestRun:
    def test_run_until_quiescent_delivers_everything(self):
        engine, _, _ = build_pair(budget=6)
        result = engine.run_until_quiescent()
        assert result.quiescent
        assert result.delivered == 6
        assert not result.stopped_by_predicate

    def test_stop_predicate_halts_early(self):
        engine, _, _ = build_pair(budget=10)
        delivered_cap = 3
        result = engine.run(stop_when=lambda: engine.metrics.total_delivered >= delivered_cap)
        assert result.stopped_by_predicate
        assert result.delivered == delivered_cap
        assert result.pending_messages >= 1

    def test_max_messages_safety_valve(self):
        engine, _, _ = build_pair(budget=100)
        result = engine.run(max_messages=5)
        assert result.delivered == 5
        assert not result.quiescent

    def test_run_until_decided(self):
        engine = KernelEngine(delay_model=FixedDelay(1.0), seed=0)
        engine.add_core(Decider("d"))
        engine.add_core(Chatter("x", "d", 0))
        result = engine.run_until_decided(["d"])
        assert result.stopped_by_predicate
        assert engine.metrics.decisions[0].value == "v"

    def test_result_exposes_metrics(self):
        engine, _, _ = build_pair(budget=2)
        result = engine.run_until_quiescent()
        assert result.metrics is engine.metrics
        assert result.end_time >= 0.0
