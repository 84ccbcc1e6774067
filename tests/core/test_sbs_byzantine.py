"""SbS under signature-level Byzantine attacks (Lemma 13 / Lemma 14)."""

import pytest

from repro.byzantine import ForgedSafetyByzantine, SbSEquivocatingProposer, SilentByzantine
from repro.core.messages import InitPhase, ProvenValue, SafeAck, SbSAckRequest, SbSNack
from repro.core.sbs import PROPOSING, SbSProcess, safe_ack_body
from repro.engine import Deliver, Start
from repro.harness import build_scenario
from repro.lattice import SetLattice


def silent(pid, lat, members, f, registry):
    return SilentByzantine(pid)


def sig_equivocator(pid, lat, members, f, registry):
    return SbSEquivocatingProposer(
        pid, lat, members, f, registry=registry,
        value_a=frozenset({"byz-a"}), value_b=frozenset({"byz-b"}),
    )


def forger(pid, lat, members, f, registry):
    return ForgedSafetyByzantine(
        pid, lat, members, victim=members[0], injected=frozenset({"forged-value"})
    )


BEHAVIOURS = {"silent": silent, "sig_equivocator": sig_equivocator, "forger": forger}


class TestByzantineSbS:
    @pytest.mark.parametrize("name", sorted(BEHAVIOURS))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_la_properties_hold(self, name, seed):
        scenario = build_scenario(
            "sbs", 4, 1, byzantine_factories=[BEHAVIOURS[name]], seed=seed
        ).run()
        check = scenario.check_la()
        assert check.ok, f"{name}: {check}"

    def test_lemma13_at_most_one_equivocated_value_decided(self):
        """Lemma 13: of two values signed by the same process, at most one can
        ever become safe, so decisions never contain both."""
        for seed in range(4):
            scenario = build_scenario(
                "sbs", 4, 1, byzantine_factories=[sig_equivocator], seed=seed
            ).run()
            for decs in scenario.decisions().values():
                decided = decs[0]
                assert not ({"byz-a", "byz-b"} <= set(decided))

    def test_forged_values_never_decided(self):
        """Fabricated signatures / proofs of safety are rejected everywhere."""
        scenario = build_scenario("sbs", 4, 1, byzantine_factories=[forger], seed=5).run()
        for decs in scenario.decisions().values():
            assert "forged-value" not in decs[0]

    def test_lemma14_own_value_always_in_own_decision(self):
        """Lemma 14: a correct process's signed value is in its decision."""
        scenario = build_scenario("sbs", 4, 1, byzantine_factories=[sig_equivocator], seed=6).run()
        for pid, proposal in scenario.proposals().items():
            assert proposal <= scenario.decisions()[pid][0]

    def test_two_byzantines_n7(self):
        scenario = build_scenario(
            "sbs", 7, 2, byzantine_factories=[sig_equivocator, forger], seed=7
        ).run()
        assert scenario.check_la().ok


def proof(registry, signed, acceptors):
    """A valid proof of safety for ``signed``: one honest safe_ack per acceptor."""
    body = safe_ack_body(frozenset({signed}), frozenset(), 0)
    return ProvenValue(value=signed, safe_acks=frozenset(
        SafeAck(rcvd_set=frozenset({signed}), conflicts=frozenset(), request_id=0,
                signature=registry.register(name).sign(body))
        for name in acceptors
    ))


class TestMalformedCarriers:
    """A Byzantine ``p3`` sends carriers that break one proof per signed value,
    or hold something that is not a proof at all.  Each member is validly
    signed; honest processes still reject the carrier, and never raise."""

    MEMBERS = ["p0", "p1", "p2", "p3"]

    def proposing(self, registry):
        process = SbSProcess("p0", SetLattice(), self.MEMBERS, 1, registry=registry, proposal=frozenset({"a"}))
        process.handle(Start())
        for sender in ("p1", "p2"):
            process.handle(Deliver(sender, InitPhase(payload=registry.register(sender).sign(frozenset({sender})))))
        body = safe_ack_body(process.safety_set, frozenset(), 0)
        for sender in ("p1", "p2", "p3"):
            ack = SafeAck(rcvd_set=process.safety_set, conflicts=frozenset(), request_id=0,
                          signature=registry.register(sender).sign(body))
            process.handle(Deliver(sender, ack))
        assert process.state == PROPOSING
        return process

    def two_proofs(self, registry):
        signed = registry.register("p3").sign(frozenset({"z"}))
        return frozenset({proof(registry, signed, ("p1", "p2", "p3")), proof(registry, signed, ("p0", "p1", "p2"))})

    def not_a_proof(self, registry):
        signed = registry.register("p3").sign(frozenset({"z"}))
        return frozenset({proof(registry, signed, ("p1", "p2", "p3")), signed})

    @pytest.mark.parametrize("carrier", ["two_proofs", "not_a_proof"])
    def test_ack_request_gets_no_answer(self, registry, carrier):
        process = self.proposing(registry)
        accepted = process.accepted_set
        sent = process.handle(Deliver("p3", SbSAckRequest(proposed_set=getattr(self, carrier)(registry), ts=1)))
        assert sent == []
        assert process.accepted_set == accepted

    @pytest.mark.parametrize("carrier", ["two_proofs", "not_a_proof"])
    def test_nack_marks_its_sender_byzantine(self, registry, carrier):
        process = self.proposing(registry)
        proposed, ts = process.proposed_set, process.ts
        sent = process.handle(Deliver("p3", SbSNack(accepted_set=getattr(self, carrier)(registry), ts=ts)))
        assert sent == []
        assert "p3" in process.byz
        assert (process.proposed_set, process.ts, process.refinements) == (proposed, ts, 0)

    def test_nack_with_only_a_new_proof_of_a_known_value_marks_its_sender(self, registry):
        process = self.proposing(registry)
        proposed, ts = process.proposed_set, process.ts
        known = next(iter(proposed)).value
        other = frozenset({proof(registry, known, ("p0", "p2", "p3"))})
        assert not other <= proposed
        sent = process.handle(Deliver("p3", SbSNack(accepted_set=other, ts=ts)))
        assert sent == []
        assert "p3" in process.byz
        assert (process.proposed_set, process.ts, process.refinements) == (proposed, ts, 0)
