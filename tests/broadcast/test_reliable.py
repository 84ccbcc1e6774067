"""Unit and adversarial tests for the Bracha reliable broadcast."""

import pytest

from repro.broadcast import RBEcho, RBInit, RBReady, ReliableBroadcaster, is_rb_message
from repro.engine import FixedDelay, KernelEngine, ProtocolCore, UniformDelay


class RBHost(ProtocolCore):
    """Honest host embedding one reliable-broadcast endpoint.

    Its members, which its broadcasts reach, are ``p0`` .. ``p{n-1}``.
    """

    def __init__(self, pid, n, f, to_broadcast=None):
        super().__init__(pid)
        self.members = tuple(f"p{i}" for i in range(n))
        self.n = n
        self.f = f
        self.to_broadcast = to_broadcast or []
        self.delivered = []
        self.rb = None

    def on_start(self):
        self.rb = ReliableBroadcaster(
            node=self, n=self.n, f=self.f,
            deliver=lambda origin, tag, value: self.delivered.append((origin, tag, value)),
        )
        for tag, value in self.to_broadcast:
            self.rb.broadcast(tag, value)

    def on_message(self, sender, payload):
        self.rb.handle(sender, payload)


class EquivocatingOrigin(ProtocolCore):
    """Byzantine origin sending different INIT values to different halves."""

    def __init__(self, pid, members, tag, value_a, value_b):
        super().__init__(pid)
        self.members = members
        self.tag = tag
        self.value_a = value_a
        self.value_b = value_b

    def on_start(self):
        half = len(self.members) // 2
        for index, dest in enumerate(self.members):
            value = self.value_a if index < half else self.value_b
            self.send(dest, RBInit(origin=self.pid, tag=self.tag, value=value))

    def on_message(self, sender, payload):
        pass


class ForgingRelay(ProtocolCore):
    """Byzantine node injecting INITs that claim to originate from a victim."""

    def __init__(self, pid, members, victim):
        super().__init__(pid)
        self.members = members
        self.victim = victim

    def on_start(self):
        for dest in self.members:
            self.send(dest, RBInit(origin=self.victim, tag="forged", value="evil"))

    def on_message(self, sender, payload):
        pass


def build(n, f, hosts=None, extra=None, delay=None, seed=0):
    network = KernelEngine(delay_model=delay or FixedDelay(1.0), seed=seed)
    members = [f"p{i}" for i in range(n)]
    nodes = []
    for pid in members:
        spec = (hosts or {}).get(pid, [])
        node = RBHost(pid, n, f, to_broadcast=spec)
        nodes.append(network.add_core(node))
    for node in extra or []:
        network.add_core(node)
    return network, members, nodes


class TestHelpers:
    def test_is_rb_message(self):
        assert is_rb_message(RBInit("a", "t", 1))
        assert is_rb_message(RBEcho("a", "t", 1))
        assert is_rb_message(RBReady("a", "t", 1))
        assert not is_rb_message(("ack", 1))

    def test_quorum_sizes(self):
        rb = ReliableBroadcaster(node=ProtocolCore("x"), n=7, f=2, deliver=lambda *a: None)
        assert rb.echo_quorum == 5
        assert rb.ready_amplify == 3
        assert rb.ready_quorum == 5
        assert not rb.under_provisioned

    def test_under_provisioned_flag(self):
        rb = ReliableBroadcaster(node=ProtocolCore("x"), n=3, f=1, deliver=lambda *a: None)
        assert rb.under_provisioned


class TestValidity:
    def test_honest_broadcast_delivered_by_all(self):
        network, members, nodes = build(4, 1, hosts={"p0": [("t", "hello")]})
        network.run_until_quiescent()
        for node in nodes:
            assert node.delivered == [("p0", "t", "hello")]

    def test_multiple_origins_and_tags(self):
        hosts = {"p0": [("t0", "a"), ("t1", "b")], "p1": [("t0", "c")]}
        network, members, nodes = build(4, 1, hosts=hosts)
        network.run_until_quiescent()
        for node in nodes:
            assert set(node.delivered) == {("p0", "t0", "a"), ("p0", "t1", "b"), ("p1", "t0", "c")}

    def test_works_under_random_delays(self):
        network, members, nodes = build(
            7, 2, hosts={"p0": [("t", 42)]}, delay=UniformDelay(0.1, 5.0), seed=11
        )
        network.run_until_quiescent()
        for node in nodes:
            assert node.delivered == [("p0", "t", 42)]

    def test_delivered_instances_introspection(self):
        network, members, nodes = build(4, 1, hosts={"p0": [("t", "x")]})
        network.run_until_quiescent()
        assert ("p0", "t") in nodes[1].rb.delivered_instances()


class TestAgreementUnderEquivocation:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_equivocating_origin_cannot_split_correct_processes(self, seed):
        n, f = 4, 1
        members = [f"p{i}" for i in range(n)]
        byz = EquivocatingOrigin("p3", members, tag="t", value_a="A", value_b="B")
        network = KernelEngine(delay_model=UniformDelay(0.1, 3.0), seed=seed)
        honest = []
        for pid in members[:-1]:
            honest.append(network.add_core(RBHost(pid, n, f)))
        network.add_core(byz)
        network.run_until_quiescent()
        delivered_values = {value for node in honest for (_, _, value) in node.delivered}
        # Agreement: at most one of the two equivocated values is ever delivered.
        assert len(delivered_values) <= 1

    def test_forged_origin_is_ignored(self):
        n, f = 4, 1
        members = [f"p{i}" for i in range(n)]
        network = KernelEngine(delay_model=FixedDelay(1.0), seed=0)
        honest = [network.add_core(RBHost(pid, n, f)) for pid in members[:-1]]
        network.add_core(ForgingRelay("p3", members, victim="p0"))
        network.run_until_quiescent()
        for node in honest:
            assert node.delivered == []

    def test_duplicate_votes_from_same_peer_not_counted(self):
        """A Byzantine peer repeating ECHO/READY cannot fake a quorum."""
        n, f = 4, 1
        host = RBHost("p0", n, f)
        network = KernelEngine(delay_model=FixedDelay(1.0), seed=0)
        network.add_core(host)
        spammer_pids = ["p1"]
        for pid in spammer_pids + ["p2", "p3"]:
            network.add_core(RBHost(pid, n, f))
        network.start()
        # p1 sends the same READY five times: only one vote should count, so
        # no delivery can happen from these alone (needs 2f+1 = 3 distinct).
        for _ in range(5):
            network.submit("p1", "p0", RBReady(origin="p9", tag="t", value="v"))
        network.run_until_quiescent()
        assert host.delivered == []


class TestDeliveredInstancesLetGo:
    def test_delivery_drops_the_vote_tables_and_keeps_the_flags(self):
        network, members, nodes = build(4, 1, hosts={"p0": [("t", "x")]})
        network.run_until_quiescent()
        for node in nodes:
            state = node.rb._instances[("p0", "t")]
            assert (state.sent_echo, state.sent_ready, state.delivered) == (True, True, True)
            assert state.echo_votes is state.ready_votes is state.echo_senders is state.ready_senders is None

    def test_late_and_equivocated_votes_for_a_delivered_instance_change_nothing(self):
        network, members, nodes = build(4, 1, hosts={"p0": [("t", "x")]})
        network.run_until_quiescent()
        sent_before = sum(network.metrics.sent_by_process.values())
        for cls in (RBEcho, RBReady):
            for value in ("x", "equivocated"):
                for sender in members:
                    network.submit(sender, "p1", cls(origin="p0", tag="t", value=value))
        network.run_until_quiescent()
        assert nodes[1].delivered == [("p0", "t", "x")]
        # Sixteen injected votes were delivered and answered by nothing.
        assert sum(network.metrics.sent_by_process.values()) == sent_before + 16
