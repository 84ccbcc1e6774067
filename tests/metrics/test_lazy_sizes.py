"""Metrics-gated size accounting and the incremental decided-pid set."""

from repro.engine import Envelope, FixedDelay, KernelEngine, ProtocolCore
from repro.metrics.collector import MetricsCollector


class Flood(ProtocolCore):
    def __init__(self, pid, peer, count):
        super().__init__(pid)
        self.peer = peer
        self.count = count

    def on_start(self):
        for index in range(self.count):
            self.send(self.peer, ("payload", index, frozenset({"a", "b"})))


class TestLazySizes:
    def test_envelope_size_is_lazy_and_cached(self):
        env = Envelope(sender="a", dest="b", payload=[1, 2, 3], send_time=0.0)
        assert env._size is None  # not computed at construction
        assert env.size == 4
        assert env._size == 4  # cached

    def test_no_size_estimation_unless_metrics_read(self, monkeypatch):
        calls = []
        import repro.engine.envelope as envelope_module

        original = envelope_module.estimate_size

        def counting(payload, *args):
            calls.append(1)
            return original(payload, *args)

        monkeypatch.setattr(envelope_module, "estimate_size", counting)
        network = KernelEngine(delay_model=FixedDelay(1.0), seed=0)
        network.add_node(Flood("a", "b", 10))
        network.add_node(Flood("b", "a", 0))
        network.run_until_quiescent()
        assert calls == []  # nothing read the size views
        assert network.metrics.max_payload_size > 0  # flush on read
        assert len(calls) == 10

    def test_int_sizes_accounted_immediately(self):
        metrics = MetricsCollector()
        metrics.record_send("p0", "p1", "ack", 3)
        metrics.record_send("p0", "p2", "ack", 5)
        assert metrics.bytes_by_process["p0"] == 8
        assert metrics.max_payload_size == 5

    def test_mixed_int_and_envelope_sources(self):
        metrics = MetricsCollector()
        metrics.record_send("p0", "p1", "m", 2)
        env = Envelope(sender="p0", dest="p1", payload=[1, 2, 3], send_time=0.0)
        metrics.record_send("p0", "p1", "m", env)
        assert metrics.bytes_by_process["p0"] == 2 + 4
        assert metrics.max_payload_size == 4


class TestIncrementalDecidedSet:
    def test_decided_set_tracks_decisions(self):
        metrics = MetricsCollector()
        assert metrics.decided == set()
        metrics.record_decision("p0", "v", time=1.0, causal_depth=2)
        metrics.record_decision("p0", "w", time=2.0, causal_depth=3)
        metrics.record_decision("p1", "v", time=3.0, causal_depth=1)
        assert metrics.decided == {"p0", "p1"}
        assert sorted(metrics.decided_pids()) == ["p0", "p1"]
