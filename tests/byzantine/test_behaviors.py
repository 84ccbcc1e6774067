"""Unit tests for the Byzantine behaviour classes themselves."""


from repro.byzantine import (
    AlwaysAckAcceptor,
    CrashByzantine,
    EquivocatingProposer,
    FastForwardGWTS,
    FlipFloppingAcceptor,
    GarbageProposer,
    NackSpamAcceptor,
    SbSEquivocatingProposer,
    SilentByzantine,
    ValueInjectorProposer,
)
from repro.broadcast.reliable import RBInit
from repro.core.gwts import GWTSProcess
from repro.core.wts import WTSProcess
from repro.crypto import KeyRegistry
from repro.engine import Deliver, FixedDelay, KernelEngine, Start
from repro.lattice import SetLattice


MEMBERS = ["p0", "p1", "p2", "p3"]
LAT = SetLattice()


def build_network():
    return KernelEngine(delay_model=FixedDelay(1.0), seed=0)


class TestFlags:
    def test_all_behaviours_are_marked_byzantine(self):
        registry = KeyRegistry(seed=0)
        nodes = [
            SilentByzantine("b"),
            CrashByzantine(WTSProcess("b", LAT, ["b"] + MEMBERS[1:], 1), 3),
            EquivocatingProposer("b", LAT, ["b"] + MEMBERS[1:], 1,
                                 value_a=frozenset({"a"}), value_b=frozenset({"b"})),
            GarbageProposer("b", LAT, ["b"] + MEMBERS[1:], 1),
            ValueInjectorProposer("b", LAT, ["b"] + MEMBERS[1:], 1, proposal=frozenset({"x"})),
            NackSpamAcceptor("b", LAT, ["b"] + MEMBERS[1:], 1),
            AlwaysAckAcceptor("b", LAT, ["b"] + MEMBERS[1:], 1),
            FlipFloppingAcceptor("b", LAT, ["b"] + MEMBERS[1:], 1),
            FastForwardGWTS("b", LAT, MEMBERS),
            SbSEquivocatingProposer("b", LAT, ["b"] + MEMBERS[1:], 1, registry=registry,
                                    value_a=frozenset({"a"}), value_b=frozenset({"b"})),
        ]
        for node in nodes:
            assert node.is_byzantine

    def test_honest_process_is_not_byzantine(self):
        assert not WTSProcess("p0", LAT, MEMBERS, 1).is_byzantine


class TestSilentAndCrash:
    def test_silent_sends_nothing(self):
        network = build_network()
        silent = network.add_core(SilentByzantine("b"))
        network.add_core(SilentByzantine("x"))
        network.start()
        silent.on_message("x", "poke")
        assert network.pending() == 0

    def test_crash_byzantine_stops_after_budget(self):
        network = build_network()
        inner = WTSProcess("b", LAT, ["b", "p1", "p2", "p3"], 1, proposal=frozenset({"c"}))
        wrapper = CrashByzantine(inner, crash_after_deliveries=2)
        network.add_core(wrapper)
        for pid in ("p1", "p2", "p3"):
            network.add_core(WTSProcess(pid, LAT, ["b", "p1", "p2", "p3"], 1,
                                        proposal=frozenset({pid})))
        network.run(max_messages=500)
        assert wrapper.crashed

    def test_crash_with_zero_budget_never_starts(self):
        network = build_network()
        inner = WTSProcess("b", LAT, ["b", "p1"], 0, proposal=frozenset({"c"}))
        wrapper = CrashByzantine(inner, crash_after_deliveries=0)
        network.add_core(wrapper)
        network.add_core(SilentByzantine("p1"))
        network.start()
        assert wrapper.crashed
        assert network.pending() == 0


class TestEquivocator:
    def test_sends_different_values_to_different_halves(self):
        network = build_network()
        eq = EquivocatingProposer("p0", LAT, MEMBERS, 1,
                                  value_a=frozenset({"A"}), value_b=frozenset({"B"}))
        network.add_core(eq)
        for pid in MEMBERS[1:]:
            network.add_core(SilentByzantine(pid))
        network.start()
        # Inspect the outgoing init messages directly from the queue's metrics.
        assert network.metrics.sent_by_type["rb_init"] == len(MEMBERS)

    def test_garbage_proposer_discloses_non_element(self):
        network = build_network()
        garbage = GarbageProposer("p0", LAT, MEMBERS, 1, garbage="junk")
        network.add_core(garbage)
        honest = [network.add_core(WTSProcess(pid, LAT, MEMBERS, 1, proposal=frozenset({pid})))
                  for pid in MEMBERS[1:]]
        network.run(max_messages=2000)
        for node in honest:
            assert "p0" not in node.svs  # garbage never enters any SvS


class TestAcceptorAttacks:
    def test_nack_spammer_always_nacks(self):
        from repro.core.messages import AckRequest, Nack

        network = build_network()
        spammer = NackSpamAcceptor("b", LAT, MEMBERS[:3] + ["b"], 1)
        network.add_core(spammer)
        network.add_core(SilentByzantine("p0"))
        network.add_core(SilentByzantine("p1"))
        network.add_core(SilentByzantine("p2"))
        network.start()
        network.submit("p0", "b", AckRequest(proposed_set=frozenset({"v"}), ts=0))
        network.run_until_quiescent()
        replies = [
            e.payload
            for e in network.delivery_log
            if e.dest == "p0" and e.sender == "b" and e.mtype in ("ack", "nack")
        ]
        assert replies and all(isinstance(p, Nack) for p in replies)
        # The junk it nacks with is never a disclosed (safe) value.
        assert all("undisclosed-junk" in str(sorted(p.accepted_set)) for p in replies)

    def test_always_ack_acks_anything(self):
        from repro.core.messages import Ack, AckRequest

        network = build_network()
        acker = AlwaysAckAcceptor("b", LAT, MEMBERS[:3] + ["b"], 1)
        network.add_core(acker)
        network.add_core(SilentByzantine("p0"))
        network.add_core(SilentByzantine("p1"))
        network.add_core(SilentByzantine("p2"))
        network.start()
        network.submit("p0", "b", AckRequest(proposed_set=frozenset({"anything"}), ts=9))
        network.run_until_quiescent()
        deliveries = [e for e in network.delivery_log if e.dest == "p0"]
        assert len(deliveries) == 1 and isinstance(deliveries[0].payload, Ack)
        assert deliveries[0].payload.ts == 9


class TestFastForward:
    def test_floods_future_rounds(self):
        network = build_network()
        ff = FastForwardGWTS("b", LAT, MEMBERS, rounds_ahead=3,
                             values=[frozenset({"x"})])
        network.add_core(ff)
        for pid in MEMBERS:
            network.add_core(SilentByzantine(pid))
        network.start()
        # 3 rounds x (disclosure + ack_req + fake ack) x 4 destinations.
        assert network.pending() == 3 * 3 * 4

    def test_its_forged_acks_count_one_acceptor_and_never_advance_safe_round(self):
        """Each forged ack names the request it flooded, so a correct process
        resolves and stores it (the attack is not dropped as malformed), but
        with one acceptor, far below a quorum."""
        ff = FastForwardGWTS("p3", LAT, MEMBERS, rounds_ahead=3, values=[frozenset({"x"})])
        process = GWTSProcess("p0", LAT, MEMBERS, 1)
        process.handle(Start())
        for effect in ff.handle(Start()):
            if effect.dest != "p0":
                continue
            if isinstance(effect.payload, RBInit):
                # As if the reliable broadcast delivered it.
                process._on_rb_deliver("p3", effect.payload.tag, effect.payload.value)
            else:
                process.handle(Deliver("p3", effect.payload))
        forged = {key: acceptors for key, acceptors in process.ack_history.items() if key[1] == "p3"}
        assert sorted((ts, round_no) for _, _, ts, round_no in forged) == [(1, 0), (2, 1), (3, 2)]
        assert all(acceptors == {"p3"} for acceptors in forged.values())
        assert process.safe_round == 0
