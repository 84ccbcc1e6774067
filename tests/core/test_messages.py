"""Unit tests for the algorithm message dataclasses."""

from repro.core.messages import (
    Ack,
    AckRequest,
    DecidedCertificate,
    Nack,
    ProvenValue,
    RoundAck,
    RoundAckRequest,
    RoundNack,
    SbSAckRequest,
)
from repro.crypto import KeyRegistry


class TestMTypes:
    def test_wts_message_types(self):
        assert AckRequest(frozenset(), 0).mtype == "ack_req"
        assert Ack(frozenset(), 0).mtype == "ack"
        assert Nack(frozenset(), 0).mtype == "nack"

    def test_gwts_message_types(self):
        assert RoundAckRequest(frozenset(), 1, 0).mtype == "ack_req"
        assert RoundAck("H00", "p0", "p1", 1, 0).mtype == "ack"
        assert RoundNack(frozenset(), 1, 0).mtype == "nack"

    def test_messages_are_hashable_and_frozen(self):
        a = Ack(frozenset({1}), 3)
        b = Ack(frozenset({1}), 3)
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1


class TestProvenValue:
    def test_raw_exposes_underlying_value(self):
        registry = KeyRegistry(seed=0)
        signed = registry.register("p0").sign(frozenset({"x"}))
        proven = ProvenValue(value=signed, safe_acks=frozenset())
        assert proven.raw == frozenset({"x"})

    def test_sbs_request_holds_frozensets(self):
        request = SbSAckRequest(proposed_set=frozenset(), ts=1)
        assert request.proposed_set == frozenset()

    def test_certificate_fields(self):
        cert = DecidedCertificate(
            accepted_set=frozenset(), destination="p0", ts=1, round=0, acks=frozenset()
        )
        assert cert.mtype == "decided"
