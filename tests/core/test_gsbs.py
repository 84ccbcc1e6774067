"""Tests for the generalized signature-based algorithm (Section 8.2)."""

import pytest

from repro.core.gsbs import PROPOSING, SAFETYING, GSbSProcess, gsbs_ack_body, verify_certificate, verify_gsbs_ack
from repro.core.messages import (
    DecidedCertificate,
    GSbSAck,
    GSbSAckRequest,
    GSbSInit,
    GSbSNack,
    GSbSSafeAck,
    GSbSSafeRequest,
    ProvenValue,
)
from repro.core.sbs import safe_ack_body
from repro.crypto import SignedValue
from repro.engine import Deliver, Start
from repro.harness import build_scenario
from repro.lattice import SetLattice


class TestFailureFreeRuns:
    @pytest.mark.parametrize("n,rounds", [(4, 2), (4, 3), (7, 2)])
    def test_gla_properties_hold(self, n, rounds):
        f = (n - 1) // 3
        scenario = build_scenario("gsbs", n, f, values_per_process=1, rounds=rounds, seed=n).run()
        check = scenario.check_gla()
        assert check.ok, str(check)

    def test_one_decision_per_round(self):
        scenario = build_scenario("gsbs", 4, 1, values_per_process=1, rounds=3, seed=2).run()
        for decisions in scenario.decisions().values():
            assert len(decisions) == 3

    def test_decisions_non_decreasing(self):
        scenario = build_scenario("gsbs", 4, 1, values_per_process=2, rounds=3, seed=3).run()
        for decisions in scenario.decisions().values():
            for earlier, later in zip(decisions, decisions[1:], strict=False):
                assert earlier <= later

    def test_cheaper_than_gwts_in_messages(self):
        """The point of GSbS: fewer messages per decision than GWTS."""
        gwts = build_scenario("gwts", 4, 1, values_per_process=1, rounds=2, seed=4).run()
        gsbs = build_scenario("gsbs", 4, 1, values_per_process=1, rounds=2, seed=4).run()
        gwts_msgs = gwts.metrics.mean_messages_per_process(gwts.correct_pids)
        gsbs_msgs = gsbs.metrics.mean_messages_per_process(gsbs.correct_pids)
        assert gsbs_msgs < gwts_msgs

    def test_certificates_observed_for_every_finished_round(self):
        scenario = build_scenario("gsbs", 4, 1, values_per_process=1, rounds=3, seed=5).run()
        for node in scenario.correct_nodes():
            assert set(node.certificates) >= {0, 1}

    def test_n7_three_rounds_on_turbo(self):
        """A size whose signing bodies used to take seconds: GLA holds, every certificate checks out."""
        scenario = build_scenario("gsbs", 7, 2, values_per_process=2, rounds=3, seed=7, backend="turbo").run()
        check = scenario.check_gla()
        assert check.ok, str(check)
        for node in scenario.correct_nodes():
            assert sorted(node.certificates) == [0, 1, 2]
            for certificate in node.certificates.values():
                assert verify_certificate(node.registry, certificate, node.quorum)

    def test_trusted_round_advances(self):
        scenario = build_scenario("gsbs", 4, 1, values_per_process=1, rounds=3, seed=6).run()
        for node in scenario.correct_nodes():
            assert node.trusted_round >= 2


class TestCertificates:
    def _make_ack(self, registry, acceptor_name, accepted_set, dest, ts, round_no):
        acceptor = registry.register(acceptor_name)
        body = gsbs_ack_body(accepted_set, dest, ts, round_no)
        return GSbSAck(accepted_set=accepted_set, destination=dest, ts=ts, round=round_no,
                       signature=acceptor.sign(body))

    def test_valid_certificate_accepted(self, registry):
        accepted = frozenset()
        acks = frozenset(
            self._make_ack(registry, f"a{i}", accepted, "p0", 1, 0) for i in range(3)
        )
        cert = DecidedCertificate(accepted_set=accepted, destination="p0", ts=1, round=0, acks=acks)
        assert verify_certificate(registry, cert, quorum=3)

    def test_certificate_needs_distinct_signers(self, registry):
        accepted = frozenset()
        ack = self._make_ack(registry, "a0", accepted, "p0", 1, 0)
        cert = DecidedCertificate(accepted_set=accepted, destination="p0", ts=1, round=0,
                                  acks=frozenset({ack}))
        assert not verify_certificate(registry, cert, quorum=3)

    def test_certificate_rejects_mismatched_acks(self, registry):
        accepted = frozenset()
        acks = frozenset(
            self._make_ack(registry, f"a{i}", accepted, "p0", 1, 0) for i in range(3)
        )
        cert = DecidedCertificate(accepted_set=accepted, destination="p0", ts=2, round=0, acks=acks)
        assert not verify_certificate(registry, cert, quorum=3)

    def test_forged_ack_rejected(self, registry):
        registry.register("honest-acceptor")
        accepted = frozenset()
        forged = GSbSAck(
            accepted_set=accepted, destination="p0", ts=1, round=0,
            signature=SignedValue(value=("junk",), signer="honest-acceptor", tag=b"zz"),
        )
        assert not verify_gsbs_ack(registry, forged)


class TestMalformedByzantineMessages:
    """A Byzantine ``p3`` sends wrongly shaped fields, signed with its own valid key.

    Honest processes reject such messages like any invalid proof; they never
    raise.
    """

    MEMBERS = ["p0", "p1", "p2", "p3"]

    def started(self, registry):
        process = GSbSProcess("p0", SetLattice(), self.MEMBERS, 1, registry=registry,
                              initial_values=[frozenset({"a"})])
        process.handle(Start())
        return process

    def proposing(self, registry):
        """``p0`` in round 0's proposing phase, its safety set vetted by real acceptors."""
        process = self.started(registry)
        effects = []
        for sender in ("p1", "p2"):
            value = registry.register(sender).sign((0, frozenset({sender})))
            effects += process.handle(Deliver(sender, GSbSInit(payload=value, round=0)))
        assert process.state == SAFETYING
        request = next(effect.payload for effect in effects if isinstance(effect.payload, GSbSSafeRequest))
        for pid in ("p1", "p2", "p3"):
            acceptor = GSbSProcess(pid, SetLattice(), self.MEMBERS, 1, registry=registry)
            for effect in acceptor.handle(Deliver("p0", request)):
                process.handle(Deliver(pid, effect.payload))
        assert process.state == PROPOSING
        return process

    def test_signed_ack_whose_accepted_set_is_not_a_set(self, registry):
        process = self.proposing(registry)
        signature = registry.register("p3").sign(("gsbs_ack", 5, "p0", process.ts, 0))
        ack = GSbSAck(accepted_set=5, destination="p0", ts=process.ts, round=0, signature=signature)
        process.handle(Deliver("p3", ack))
        assert "p3" not in process.ack_records
        assert process.state == PROPOSING

    def test_certificate_whose_acks_are_not_a_set(self, registry):
        process = self.started(registry)
        certificate = DecidedCertificate(accepted_set=frozenset(), destination="p3", ts=1, round=0, acks=5)
        process.handle(Deliver("p3", certificate))
        assert process.certificates == {}

    def test_acceptor_drops_a_tuple_proposed_set(self, registry):
        process = self.started(registry)
        sent = process.handle(Deliver("p3", GSbSAckRequest(proposed_set=(), ts=1, round=0)))
        assert sent == []
        assert process.accepted_set == frozenset()
        assert process.waiting_msgs == []


def gsbs_proof(registry, signed, acceptors):
    """A valid round-0 proof of safety for ``signed``: one honest safe_ack per acceptor."""
    body = safe_ack_body(frozenset({signed}), frozenset(), 0, 0)
    return ProvenValue(value=signed, safe_acks=frozenset(
        GSbSSafeAck(rcvd_set=frozenset({signed}), conflicts=frozenset(), request_id=0, round=0,
                    signature=registry.register(name).sign(body))
        for name in acceptors
    ))


class TestMalformedCarriers:
    """Carriers that break one proof per signed value, or hold a member that
    is not a proof: every member validly signed, the carrier still dropped."""

    MEMBERS = TestMalformedByzantineMessages.MEMBERS
    started = TestMalformedByzantineMessages.started
    proposing = TestMalformedByzantineMessages.proposing

    def two_proofs(self, registry):
        signed = registry.register("p3").sign((0, frozenset({"z"})))
        return frozenset({
            gsbs_proof(registry, signed, ("p1", "p2", "p3")),
            gsbs_proof(registry, signed, ("p0", "p1", "p2")),
        })

    def not_a_proof(self, registry):
        signed = registry.register("p3").sign((0, frozenset({"z"})))
        return frozenset({gsbs_proof(registry, signed, ("p1", "p2", "p3")), signed})

    CARRIERS = pytest.mark.parametrize("carrier", ["two_proofs", "not_a_proof"])

    @CARRIERS
    def test_ack_request_gets_no_answer(self, registry, carrier):
        process = self.started(registry)
        request = GSbSAckRequest(proposed_set=getattr(self, carrier)(registry), ts=1, round=0)
        sent = process.handle(Deliver("p3", request))
        assert sent == []
        assert process.accepted_set == frozenset()
        assert process.waiting_msgs == []

    @CARRIERS
    def test_nack_causes_no_refinement(self, registry, carrier):
        process = self.proposing(registry)
        proposed, ts = process.proposed_set, process.ts
        nack = GSbSNack(accepted_set=getattr(self, carrier)(registry), ts=ts, round=0)
        assert process.handle(Deliver("p3", nack)) == []
        assert (process.proposed_set, process.ts) == (proposed, ts)
        assert process.refinements_by_round[0] == 0

    def test_nack_with_only_a_new_proof_of_a_known_value_causes_no_refinement(self, registry):
        process = self.proposing(registry)
        proposed, ts = process.proposed_set, process.ts
        other = frozenset({gsbs_proof(registry, next(iter(proposed)).value, ("p0", "p2", "p3"))})
        assert not other <= proposed
        assert process.handle(Deliver("p3", GSbSNack(accepted_set=other, ts=ts, round=0))) == []
        assert (process.proposed_set, process.ts) == (proposed, ts)

    @CARRIERS
    def test_certificate_is_not_kept(self, registry, carrier):
        process = self.started(registry)
        accepted = getattr(self, carrier)(registry)
        acks = frozenset(
            GSbSAck(accepted_set=accepted, destination="p3", ts=1, round=0,
                    signature=registry.register(name).sign(gsbs_ack_body(accepted, "p3", 1, 0)))
            for name in ("p1", "p2", "p3")
        )
        certificate = DecidedCertificate(accepted_set=accepted, destination="p3", ts=1, round=0, acks=acks)
        assert verify_certificate(registry, certificate, quorum=3)
        process.handle(Deliver("p3", certificate))
        assert process.certificates == {}
