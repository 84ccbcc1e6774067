"""Unit tests for the simulated PKI (Section 8's Sign/Verify interface)."""

import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import pytest

from repro.core.gsbs import gsbs_ack_body, verify_gsbs_ack
from repro.core.messages import GSbSAck, ProvenValue, SafeAck
from repro.core.sbs import all_safe, safe_ack_body
from repro.crypto import KeyRegistry, SignatureError, SignedValue, canonical_bytes, signatures
from repro.harness import build_scenario
from repro.lattice import SetLattice


class TestCanonicalBytes:
    def test_deterministic_for_equal_values(self):
        a = canonical_bytes(("x", frozenset({1, 2, 3}), {"k": 1}))
        b = canonical_bytes(("x", frozenset({3, 2, 1}), {"k": 1}))
        assert a == b

    def test_distinguishes_types(self):
        assert canonical_bytes(1) != canonical_bytes("1")
        assert canonical_bytes(True) != canonical_bytes(1)
        assert canonical_bytes(None) != canonical_bytes(0)

    def test_nested_structures(self):
        value = {"a": [1, 2, (3, frozenset({"x"}))], "b": b"raw"}
        assert canonical_bytes(value) == canonical_bytes(dict(value))

    def test_different_values_differ(self):
        assert canonical_bytes({1, 2}) != canonical_bytes({1, 3})

    def test_plain_values_keep_their_encoding(self):
        value = ("p0", frozenset({"b", "a"}), 1, None, b"\x01", True, 1.5, [2], {"k": 3})
        assert canonical_bytes(value) == b"(S2:p0,{S1:a,S1:b},I1,N,Y01,B1,F1.5,(I2),<S1:k:I3>)"

    def test_dataclasses_encode_by_class_and_fields_not_repr(self):
        signed = SignedValue(value=frozenset({"a"}), signer="p0", tag=b"t")
        assert canonical_bytes(signed) == canonical_bytes(SignedValue(frozenset({"a"}), "p0", b"t"))
        # The tag is not in the repr, but it is in the encoding.
        assert canonical_bytes(signed) != canonical_bytes(SignedValue(frozenset({"a"}), "p0", b"u"))
        assert canonical_bytes(Box(items=("p0", b"t"))) != canonical_bytes(Pair(items=("p0", b"t")))
        assert canonical_bytes(signed) != canonical_bytes((frozenset({"a"}), "p0", b"t"))

    def test_a_frozen_dataclass_caches_its_digest(self):
        signed = SignedValue(value=frozenset({"a"}), signer="p0", tag=b"t")
        encoded = canonical_bytes(signed)
        assert signatures._DIGEST_KEY in vars(signed)
        assert canonical_bytes(signed) == encoded
        assert canonical_bytes(ProvenValue(value=signed, safe_acks=frozenset())) == canonical_bytes(
            ProvenValue(value=SignedValue(frozenset({"a"}), "p0", b"t"), safe_acks=frozenset())
        )

    def test_a_frozen_dataclass_over_a_list_is_encoded_afresh(self):
        box = Box(items=[1, 2])
        outer = Box(items=(box, "tail"))
        before, outer_before = canonical_bytes(box), canonical_bytes(outer)
        box.items.append(3)
        assert canonical_bytes(box) != before
        assert canonical_bytes(box) == canonical_bytes(Box(items=[1, 2, 3]))
        assert canonical_bytes(outer) != outer_before
        assert canonical_bytes(outer) == canonical_bytes(Box(items=(Box(items=[1, 2, 3]), "tail")))

    def test_a_mutable_dataclass_is_encoded_afresh(self):
        cell = Cell(value=1)
        box = Box(items=(cell,))
        before = canonical_bytes(box)
        cell.value = 2
        assert canonical_bytes(box) != before
        assert canonical_bytes(box) == canonical_bytes(Box(items=(Cell(value=2),)))


@dataclass(frozen=True)
class Box:
    items: Any


@dataclass(frozen=True)
class Pair:
    items: Any


@dataclass
class Cell:
    value: Any


#: Signs hash-seed-sensitive bodies (frozensets of strings inside signed
#: values) and prints the tags, then a SafeAck's frames in both framings.
SIGN_SCRIPT = """
from repro.core.gsbs import gsbs_ack_body
from repro.core.messages import ProvenValue, SafeAck
from repro.core.sbs import return_conflicts, safe_ack_body
from repro.crypto import KeyRegistry
from repro.engine import wire

registry = KeyRegistry(seed=1)
signers = [registry.register(name) for name in ("p0", "p1", "p2", "acc", "a2", "a3")]
value = signers[0].sign(frozenset({"a", "b", "c", "d"}))
print(signers[3].sign(safe_ack_body(frozenset({value}), frozenset(), 0)).tag.hex())
acks = frozenset(
    SafeAck(rcvd_set=frozenset({value}), conflicts=frozenset(), request_id=0,
            signature=signer.sign(safe_ack_body(frozenset({value}), frozenset(), 0)))
    for signer in signers[3:]
)
proven = ProvenValue(value=value, safe_acks=acks)
print(signers[3].sign(gsbs_ack_body(frozenset({proven}), "p0", 1, 0)).tag.hex())
equivocation = {signers[2].sign(frozenset({"x", "y"})), signers[2].sign(frozenset({"z", "w", "v"}))}
rcvd = frozenset({value, signers[1].sign(frozenset({"e", "f", "g"}))})
conflicts = return_conflicts(registry, rcvd | equivocation)
ack = SafeAck(rcvd_set=rcvd, conflicts=conflicts, request_id=0,
              signature=signers[3].sign(safe_ack_body(rcvd, conflicts, 0)))
for framing in wire.FRAMINGS:
    print(framing, wire.get_codec(framing).encode_frame(ack)[wire.HEADER_SIZE:].hex())
"""

#: Reads the SIGN_SCRIPT's frames from stdin and verifies each decoded SafeAck.
VERIFY_SCRIPT = """
import sys
from repro.core.sbs import verify_safe_ack
from repro.crypto import KeyRegistry
from repro.engine import wire

registry = KeyRegistry(seed=1)
for name in ("p0", "p1", "p2", "acc", "a2", "a3"):
    registry.register(name)
for line in sys.stdin.read().split("\\n")[2:]:
    if line:
        framing, body = line.split()
        ack = wire.get_codec(framing).decode_body(bytes.fromhex(body))
        print(framing, len(ack.conflicts), verify_safe_ack(registry, ack, "acc"))
"""


def run_with_hash_seed(script, seed, stdin=""):
    src = str(Path(__file__).resolve().parents[2] / "src")
    return subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
        input=stdin,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    ).stdout


class TestHashSeedIndependence:
    """A signature made in one interpreter verifies in any other."""

    def test_signed_bodies_do_not_depend_on_the_hash_seed(self):
        outputs = [run_with_hash_seed(SIGN_SCRIPT, seed).split("\n")[:2] for seed in ("1", "2")]
        assert outputs[0] == outputs[1] and all(len(tag) == 64 for tag in outputs[0])

    def test_a_safe_ack_verifies_after_a_wire_trip_to_another_seed(self):
        frames = run_with_hash_seed(SIGN_SCRIPT, "1")
        verdicts = run_with_hash_seed(VERIFY_SCRIPT, "2", stdin=frames).split()
        assert verdicts == ["json", "1", "True", "binary", "1", "True"]


class TestSigning:
    def test_sign_and_verify_roundtrip(self, registry):
        signer = registry.register("p0")
        signed = signer.sign(frozenset({"hello"}))
        assert registry.verify(signed)
        assert signed.signer == "p0"
        assert signed.sender == "p0"

    def test_verify_rejects_tampered_value(self, registry):
        signer = registry.register("p0")
        signed = signer.sign("original")
        forged = SignedValue(value="tampered", signer="p0", tag=signed.tag)
        assert not registry.verify(forged)

    def test_verify_rejects_wrong_signer_claim(self, registry):
        registry.register("victim")
        attacker = registry.register("attacker")
        signed = attacker.sign("payload")
        forged = SignedValue(value="payload", signer="victim", tag=signed.tag)
        assert not registry.verify(forged)

    def test_verify_rejects_unknown_identity(self, registry):
        forged = SignedValue(value="x", signer="ghost", tag=b"\x00" * 32)
        assert not registry.verify(forged)

    def test_verify_rejects_non_signed_value(self, registry):
        assert not registry.verify("not-a-signature")

    def test_signer_can_verify_others(self, registry):
        alice = registry.register("alice")
        bob = registry.register("bob")
        assert bob.verify(alice.sign(42))

    def test_cannot_forge_without_key(self, registry):
        """A Byzantine process holding only its own signer cannot produce a
        valid signature for another identity."""
        registry.register("honest")
        byz = registry.register("byz")
        fake_tag = byz.sign(("anything",)).tag
        forged = SignedValue(value=("anything",), signer="honest", tag=fake_tag)
        assert not registry.verify(forged)

    def test_reregistering_keeps_key(self, registry):
        first = registry.register("p0")
        signed = first.sign("v")
        second = registry.register("p0")
        assert second.verify(signed)

    def test_signer_for_unknown_raises(self, registry):
        with pytest.raises(SignatureError):
            registry.signer_for("nobody")

    def test_signer_for_known(self, registry):
        registry.register("p0")
        assert registry.signer_for("p0").identity == "p0"

    def test_knows(self, registry):
        assert not registry.knows("p9")
        registry.register("p9")
        assert registry.knows("p9")


class TestDeterminism:
    def test_seeded_registries_are_reproducible(self):
        a = KeyRegistry(seed=5).register("p0").sign("payload")
        b = KeyRegistry(seed=5).register("p0").sign("payload")
        assert a.tag == b.tag

    def test_different_seeds_differ(self):
        a = KeyRegistry(seed=5).register("p0").sign("payload")
        b = KeyRegistry(seed=6).register("p0").sign("payload")
        assert a.tag != b.tag

    def test_unseeded_registry_still_verifies(self):
        registry = KeyRegistry()
        signed = registry.register("p0").sign("x")
        assert registry.verify(signed)

    def test_verify_memo_is_identity_safe(self, registry):
        signer = registry.register("p0")
        signed = signer.sign("v")
        assert registry.verify(signed)
        # A different (forged) object must not reuse the memo entry.
        forged = SignedValue(value="other", signer="p0", tag=signed.tag)
        assert not registry.verify(forged)
        # And the original still verifies after the failed attempt.
        assert registry.verify(signed)


class TestValidationMemo:
    """The identity-anchored verdict memos of SbS ``AllSafe`` and GSbS acks."""

    def _carrier(self, registry, quorum=3):
        value = registry.register("p1").sign(frozenset({"v"}))
        acks = []
        for name in ("a1", "a2", "a3")[:quorum]:
            body = safe_ack_body(frozenset({value}), frozenset(), 0)
            acks.append(SafeAck(rcvd_set=frozenset({value}), conflicts=frozenset(),
                                request_id=0, signature=registry.register(name).sign(body)))
        return value, acks, frozenset({ProvenValue(value=value, safe_acks=frozenset(acks))})

    def test_rejected_carrier_stays_rejected(self, registry):
        _, _, carrier = self._carrier(registry, quorum=2)
        assert not all_safe(registry, SetLattice(), carrier, quorum=3)
        assert not all_safe(registry, SetLattice(), carrier, quorum=3)
        assert all_safe(registry, SetLattice(), carrier, quorum=2)

    def test_equal_looking_carrier_is_rechecked(self, registry):
        value, acks, carrier = self._carrier(registry)
        assert all_safe(registry, SetLattice(), carrier, quorum=3)
        # Same value, same bodies, same reprs (a tag is not in the repr): only
        # one ack's tag is tampered with.
        bad = acks[0].signature
        tampered = SafeAck(rcvd_set=acks[0].rcvd_set, conflicts=acks[0].conflicts, request_id=0,
                           signature=SignedValue(value=bad.value, signer=bad.signer, tag=b"x" * 32))
        forged_acks = frozenset([tampered, *acks[1:]])
        assert set(map(repr, forged_acks)) == set(map(repr, acks))
        forged = frozenset({ProvenValue(value=value, safe_acks=forged_acks)})
        assert not all_safe(registry, SetLattice(), forged, quorum=3)
        assert all_safe(registry, SetLattice(), carrier, quorum=3)

    def test_list_carrier_is_never_memoised(self, registry):
        value, acks, carrier = self._carrier(registry)
        carrier_list = list(carrier)
        assert all_safe(registry, SetLattice(), carrier_list, quorum=3)
        carrier_list.append(ProvenValue(value=value, safe_acks=frozenset(acks[:1])))
        assert not all_safe(registry, SetLattice(), carrier_list, quorum=3)
        assert not any(key[0] == "all_safe" for key in registry.validation_memo)

    def test_gsbs_ack_memo_is_identity_safe(self, registry):
        body = gsbs_ack_body(frozenset(), "p0", 1, 0)
        signed = registry.register("acc").sign(body)
        ack = GSbSAck(accepted_set=frozenset(), destination="p0", ts=1, round=0, signature=signed)
        assert verify_gsbs_ack(registry, ack)
        tampered = GSbSAck(accepted_set=frozenset(), destination="p0", ts=1, round=0,
                           signature=SignedValue(value=body, signer="acc", tag=b"x" * 32))
        assert repr(tampered) == repr(ack)
        assert not verify_gsbs_ack(registry, tampered)
        assert verify_gsbs_ack(registry, ack)


class TestMemoisedRunsDoNotMove:
    """Exact counts of seeded kernel runs: memoised checks change no verdict."""

    def test_sbs_n10(self):
        scenario = build_scenario("sbs", 10, 3, seed=3).run()
        assert scenario.metrics.total_delivered == 773
        assert len(scenario.metrics.decisions) == 10
        assert scenario.check_la().ok

    def test_gsbs_n7(self):
        scenario = build_scenario("gsbs", 7, 2, seed=3, rounds=3, values_per_process=2).run()
        assert scenario.metrics.total_delivered == 1157
        assert len(scenario.metrics.decisions) == 21
        assert scenario.check_gla().ok
