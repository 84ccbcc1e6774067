"""The wire codecs (tagged JSON and compact binary): round-trip fidelity
for every protocol payload, framing integrity, and loud corruption failures."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from enum import IntEnum
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broadcast.reliable import RBEcho, RBInit, RBReady
from repro.core.messages import (
    Ack,
    AckRequest,
    Nack,
    ProvenValue,
    RoundAck,
    RoundNack,
    SafeAck,
    SafeRequest,
    SbSAckRequest,
)
from repro.crypto.signatures import KeyRegistry
from repro.engine import wire
from repro.rsm.commands import make_command
from repro.rsm.replica import ConfirmRequest, UpdateRequest


@pytest.fixture(params=wire.FRAMINGS)
def codec(request):
    """Every round-trip assertion runs once per framing."""
    return wire.get_codec(request.param)


def roundtrip(value, codec=None):
    codec = codec or wire.get_codec("json")
    return codec.decode_body(codec.encode_frame(value)[wire.HEADER_SIZE:])


def decode_json(data):
    """Decode hand-written tagged JSON data through the one JSON decoder."""
    return wire.decode_body(json.dumps(data).encode("utf-8"))


class TestPrimitivesAndContainers:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            -17,
            3.5,
            "text",
            "",
            [1, 2, 3],
            ("a", 1, None),
            frozenset({"x", "y"}),
            {"plain": "dict", "nested": [1, (2, 3)]},
            {1: "int-key", ("t",): "tuple-key"},
            {"~": "reserved-tag-collision"},
            b"\x00\xffbytes",
            frozenset({frozenset({"inner"}), frozenset()}),
            (("deep", frozenset({("nested", 1)})),),
        ],
    )
    def test_roundtrip_identity(self, value, codec):
        decoded = roundtrip(value, codec)
        assert decoded == value
        assert type(decoded) is type(value)

    def test_sets_roundtrip(self, codec):
        assert roundtrip({1, 2}, codec) == {1, 2}

    def test_set_encoding_is_deterministic(self, codec):
        """Equal frozensets built in different orders produce identical frames."""
        a = frozenset(["x", "y", "z"])
        b = frozenset(["z", "x", "y"])
        assert codec.encode_frame(a) == codec.encode_frame(b)


class TestDataclassPayloads:
    def test_wts_messages(self, codec):
        for message in (
            AckRequest(proposed_set=frozenset({"v"}), ts=3),
            Ack(accepted_set=frozenset({"v"}), ts=3),
            Nack(accepted_set=frozenset({"v", "w"}), ts=4),
            RoundAck(proposal="H00ff", destination="p0", sender="p1", ts=2, round=1),
            RoundNack(accepted_set=frozenset({"v"}), ts=2, round=1),
        ):
            assert roundtrip(message, codec) == message

    def test_reliable_broadcast_wrappers(self, codec):
        init = RBInit(origin="p0", tag="disclose", value=frozenset({"v"}))
        assert roundtrip(init, codec) == init
        echo = RBEcho(origin="p0", tag=("t", 1), value=1)
        assert roundtrip(echo, codec) == echo
        assert isinstance(roundtrip(RBReady(origin="p0", tag="t", value=1), codec), RBReady)

    def test_signed_values_still_verify_after_the_trip(self, codec):
        registry = KeyRegistry(seed=1)
        signer = registry.register("p0")
        signed = signer.sign(("round", 3, frozenset({"a", "b"})))
        decoded = roundtrip(signed, codec)
        assert decoded == signed
        assert registry.verify(decoded)

    def test_sbs_proof_bundles(self, codec):
        registry = KeyRegistry(seed=2)
        signer = registry.register("p0")
        acceptor = registry.register("p1")
        value = signer.sign(frozenset({"v"}))
        body = (frozenset({value}), frozenset(), 7)
        ack = SafeAck(
            rcvd_set=frozenset({value}),
            conflicts=frozenset(),
            request_id=7,
            signature=acceptor.sign(body),
        )
        proven = ProvenValue(value=value, safe_acks=frozenset({ack}))
        request = SbSAckRequest(proposed_set=frozenset({proven}), ts=1)
        decoded = roundtrip(request, codec)
        assert decoded == request
        [proven_back] = decoded.proposed_set
        assert registry.verify(proven_back.value)
        assert roundtrip(SafeRequest(safety_set=frozenset({value}), request_id=1), codec) is not None

    def test_rsm_messages(self, codec):
        command = make_command("client0", 1, ("inc", 1))
        update = UpdateRequest(command=command)
        assert roundtrip(update, codec) == update
        confirm = ConfirmRequest(accepted_set=frozenset({command}))
        assert roundtrip(confirm, codec) == confirm


class TestFraming:
    def test_frame_has_length_prefix(self, codec):
        frame = codec.encode_frame({"k": 1})
        assert len(frame) == wire.HEADER_SIZE + int.from_bytes(frame[:4], "big")

    def test_oversized_frame_rejected(self, codec):
        with pytest.raises(wire.WireError, match="exceeds"):
            codec.encode_frame("x" * (wire.MAX_FRAME_BYTES + 1))

    def test_binary_frames_are_smaller_than_json(self):
        registry = KeyRegistry(seed=9)
        signer = registry.register("p0")
        value = signer.sign(frozenset({"v"}))
        bundle = SbSAckRequest(
            proposed_set=frozenset({ProvenValue(value=value, safe_acks=frozenset())}),
            ts=3,
        )
        binary = wire.get_codec("binary").encode_frame(bundle)
        json_frame = wire.get_codec("json").encode_frame(bundle)
        assert len(binary) < len(json_frame)


class TestNegativePaths:
    def test_unregistered_dataclass_rejected(self):
        @dataclasses.dataclass(frozen=True)
        class Private:
            x: int

        with pytest.raises(wire.WireError, match="not wire-registered"):
            wire.encode_frame(Private(x=1))

    def test_unencodable_object_rejected(self):
        class Opaque:
            pass

        with pytest.raises(wire.WireError, match="not wire-encodable"):
            wire.encode_frame(Opaque())

    def test_unknown_tag_rejected(self):
        with pytest.raises(wire.WireError, match="unknown wire tag"):
            decode_json({"~": "martian", "v": []})

    def test_unknown_dataclass_rejected(self):
        with pytest.raises(wire.WireError, match="unknown wire dataclass"):
            decode_json({"~": "dc:Martian", "v": {}})

    def test_name_collisions_rejected(self):
        @dataclasses.dataclass(frozen=True)
        class Ack:  # collides with repro.core.messages.Ack
            x: int = 0

        with pytest.raises(wire.WireError, match="collision"):
            wire.register_wire_dataclass(Ack)

    def test_non_dataclass_registration_rejected(self):
        with pytest.raises(wire.WireError, match="not a dataclass"):
            wire.register_wire_dataclass(int)


class TestTaggedBodyValidation:
    """Satellite: a tagged JSON object with a missing or mistyped body must
    fail loudly at the codec, not as a confusing downstream TypeError."""

    @pytest.mark.parametrize("tag", ["tuple", "frozenset", "set", "dict", "bytes", "dc:Ack"])
    def test_missing_v_body_rejected(self, tag):
        with pytest.raises(wire.WireError, match="missing its 'v' body"):
            decode_json({"~": tag})

    @pytest.mark.parametrize(
        "data",
        [
            {"~": "tuple", "v": 5},
            {"~": "frozenset", "v": "not-a-list"},
            {"~": "set", "v": {"a": 1}},
            {"~": "dict", "v": 3.5},
            {"~": "bytes", "v": ["00"]},
            {"~": "dc:Ack", "v": []},
        ],
    )
    def test_wrong_body_type_rejected(self, data):
        with pytest.raises(wire.WireError, match="expected"):
            decode_json(data)

    def test_non_string_tag_rejected(self):
        with pytest.raises(wire.WireError, match="non-string wire tag"):
            decode_json({"~": 7, "v": []})

    def test_invalid_hex_bytes_rejected(self):
        with pytest.raises(wire.WireError, match="invalid hex"):
            decode_json({"~": "bytes", "v": "zz"})

    def test_malformed_dict_pairs_rejected(self):
        with pytest.raises(wire.WireError, match="malformed dict pair"):
            decode_json({"~": "dict", "v": [["lonely-key"]]})

    def test_dataclass_field_mismatch_rejected(self):
        with pytest.raises(wire.WireError, match="does not match its fields"):
            decode_json({"~": "dc:Ack", "v": {"martian_field": 1}})


def read_one_frame(codec, data):
    """Feed raw bytes to the codec's stream reader and return the frame."""
    import asyncio

    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await codec.read_frame(reader)

    return asyncio.run(go())


class TestTornFrames:
    """Satellite: torn/partial/oversized frames fail the run loudly on both
    framings — the engine must never decide garbage off a damaged stream."""

    def test_intact_frame_reads_back(self, codec):
        assert read_one_frame(codec, codec.encode_frame({"k": [1, 2]})) == {"k": [1, 2]}

    def test_truncated_header_fails(self, codec):
        import asyncio

        frame = codec.encode_frame({"k": 1})
        with pytest.raises(asyncio.IncompleteReadError):
            read_one_frame(codec, frame[: wire.HEADER_SIZE - 1])

    def test_truncated_body_fails(self, codec):
        import asyncio

        frame = codec.encode_frame({"k": 1})
        with pytest.raises(asyncio.IncompleteReadError):
            read_one_frame(codec, frame[:-3])

    def test_oversized_length_prefix_fails_before_reading_the_body(self, codec):
        bogus = (wire.MAX_FRAME_BYTES + 1).to_bytes(4, "big") + bytes(wire.HEADER_SIZE - 4)
        with pytest.raises(wire.WireError, match="exceeds"):
            read_one_frame(codec, bogus)

    def test_corrupt_checksum_fails_at_the_framing_layer(self, codec):
        frame = bytearray(codec.encode_frame({"k": 1}))
        frame[-1] ^= 0x10  # flip one body bit; header CRC goes stale
        with pytest.raises(wire.WireError, match="checksum"):
            read_one_frame(codec, bytes(frame))

    def test_truncated_decoded_body_fails(self, codec):
        body = codec.encode_frame(("payload", frozenset({"a", "b"})))[wire.HEADER_SIZE:]
        with pytest.raises(wire.WireError):
            codec.decode_body(body[:-2])

    def test_trailing_garbage_fails(self, codec):
        body = codec.encode_frame([1, 2, 3])[wire.HEADER_SIZE:]
        with pytest.raises(wire.WireError):
            codec.decode_body(body + b"\x00garbage")

    def test_binary_rejects_json_bodies_and_vice_versa(self):
        binary, json_codec = wire.get_codec("binary"), wire.get_codec("json")
        json_body = json_codec.encode_frame({"k": 1})[wire.HEADER_SIZE:]
        with pytest.raises(wire.WireError, match="magic"):
            binary.decode_body(json_body)
        binary_body = binary.encode_frame({"k": 1})[wire.HEADER_SIZE:]
        with pytest.raises(wire.WireError, match="JSON"):
            json_codec.decode_body(binary_body)

    def test_dangling_string_ref_fails(self):
        binary = wire.get_codec("binary")
        body = bytearray(binary.encode_frame("interned")[wire.HEADER_SIZE:])
        # Splice a REF to a never-interned index after the magic byte.
        body[1:] = bytes([0x06, 0x09])
        with pytest.raises(wire.WireError, match="dangling string ref"):
            binary.decode_body(bytes(body))


class TestBitFlipSweep:
    """Satellite: single-bit corruption anywhere in a frame body must die
    at the framing layer (the CRC), on both framings — both hand-placed
    flips and the FaultyCodec's randomized ones."""

    @pytest.mark.parametrize("position", [0.0, 0.25, 0.5, 0.75, 1.0])
    @pytest.mark.parametrize("bit", [0x01, 0x10, 0x80])
    def test_corruption_at_any_body_position_fails_the_checksum(self, codec, position, bit):
        frame = bytearray(codec.encode_frame({"k": ["v"] * 8, "n": 12345}))
        body_len = len(frame) - wire.HEADER_SIZE
        index = wire.HEADER_SIZE + min(body_len - 1, round(position * (body_len - 1)))
        frame[index] ^= bit
        with pytest.raises(wire.WireError, match="checksum"):
            read_one_frame(codec, bytes(frame))

    @pytest.mark.parametrize("seed", range(8))
    def test_faulty_codec_flips_always_reject_and_honest_frame_survives(self, codec, seed):
        from repro.engine.wire_faults import FaultyCodec, parse_wire_faults

        faulty = FaultyCodec(codec, parse_wire_faults("flip:1"), seed=seed)
        message = {"sender": "p0", "payload": ("p", frozenset({"a", "b"}), [1, 2, 3])}
        data = faulty.encode_frame(message)
        length, crc = wire.unpack_header(data[: wire.HEADER_SIZE])
        forged_body = data[wire.HEADER_SIZE : wire.HEADER_SIZE + length]
        with pytest.raises(wire.WireError, match="checksum"):
            wire.check_crc(forged_body, crc)
        honest = data[wire.HEADER_SIZE + length :]
        h_length, h_crc = wire.unpack_header(honest[: wire.HEADER_SIZE])
        wire.check_crc(honest[wire.HEADER_SIZE :], h_crc)
        assert codec.decode_body(honest[wire.HEADER_SIZE :]) == message


# -- the single-pass JSON codec ---------------------------------------------------------

#: Bodies the previous JSON encoder (tree + ``json.dumps``) produced for a
#: cluster frame, a signed value and a pair-list dict: the grammar did not
#: change, so they still decode — members of a set may now travel in another
#: order, which no decoder can see.
PARENT_ENCODER_BODIES = [
    (
        b'{"kind":"msg","sender":"n2","payload":{"~":"dc:RBEcho","v":{"origin":"n1","tag":{"~":"tuple",'
        b'"v":["ack",2,5,"n0"]},"value":{"~":"dc:RoundNack","v":{"accepted_set":{"~":"frozenset","v":[{"~":'
        b'"dc:Command","v":{"client":"c0","seq":1,"operation":{"~":"tuple","v":["svc","inc",1]}}},{"~":'
        b'"dc:Command","v":{"client":"c1","seq":2,"operation":{"~":"tuple","v":["nop"]}}}]},'
        b'"ts":5,"round":2,"mtype":"nack"}},"mtype":"rb_echo"}}}',
        lambda: {
            "kind": "msg",
            "sender": "n2",
            "payload": RBEcho(
                origin="n1",
                tag=("ack", 2, 5, "n0"),
                value=RoundNack(
                    accepted_set=frozenset(
                        {make_command("c0", 1, ("svc", "inc", 1)), make_command("c1", 2, ("nop",))}
                    ),
                    ts=5,
                    round=2,
                ),
            ),
        },
    ),
    (
        b'{"~":"dc:SignedValue","v":{"value":{"~":"tuple","v":["round",3,{"~":"frozenset","v":["a","b"]}]},'
        b'"signer":"p0","tag":{"~":"bytes","v":"f0f9235f3807efff4779d6896e87e8bc2962063142fbaba1a83c76192326a62e"}}}',
        lambda: KeyRegistry(seed=3).register("p0").sign(("round", 3, frozenset({"a", "b"}))),
    ),
    (
        b'{"~":"dict","v":[[1,"int-key"],[{"~":"tuple","v":["t"]},[1.5,null,true]],["~",{"~":"set","v":["x"]}]]}',
        lambda: {1: "int-key", ("t",): [1.5, None, True], "~": {"x"}},
    ),
]

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(),
    st.binary(max_size=16),
)
_hashables = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4).map(tuple),
        st.frozensets(inner, max_size=4),
        st.builds(RBEcho, origin=st.text(max_size=4), tag=inner, value=inner),
    ),
    max_leaves=12,
)
_values = st.recursive(
    _hashables,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.sets(_hashables, max_size=4),
        st.dictionaries(st.text(max_size=4), inner, max_size=4),
        st.dictionaries(_hashables, inner, max_size=4),
    ),
    max_leaves=12,
)


def same_types(left, right):
    """``left == right`` cannot tell ``1`` from ``True`` or ``1.0``; this can."""
    if type(left) is not type(right):
        return False
    if isinstance(left, (list, tuple)):
        return len(left) == len(right) and all(map(same_types, left, right))
    if isinstance(left, dict):
        return all(same_types(left[key], right[key]) for key in left)
    return True


class TestSinglePassJsonCodec:
    @settings(max_examples=150, deadline=None)
    @given(_values)
    def test_roundtrip_over_the_supported_types(self, value):
        for codec in map(wire.get_codec, wire.FRAMINGS):
            decoded = roundtrip(value, codec)
            assert decoded == value
            assert same_types(decoded, value)

    @pytest.mark.parametrize("body, expected", PARENT_ENCODER_BODIES)
    def test_frames_of_the_previous_encoder_still_decode(self, body, expected):
        assert wire.decode_body(body) == expected()

    def test_set_bearing_frames_do_not_depend_on_the_hash_seed(self):
        script = (
            "from repro.engine import wire\n"
            "from repro.core.messages import RoundNack\n"
            "from repro.rsm.commands import make_command\n"
            "cmds = frozenset(make_command(f'client-{i}', i, ('svc', 'inc', i)) for i in range(40))\n"
            "nack = RoundNack(accepted_set=cmds, ts=1, round=0)\n"
            "message = {'kind': 'peer', 'payload': (nack, frozenset({frozenset({'a', 'b'}), 'c', 3}))}\n"
            "for framing in wire.FRAMINGS:\n"
            "    print(wire.get_codec(framing).encode_frame(message).hex())\n"
        )
        src = str(Path(__file__).resolve().parents[2] / "src")
        outputs = [
            subprocess.run(
                [sys.executable, "-c", script],
                env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
                capture_output=True,
                text=True,
                check=True,
                timeout=60,
            ).stdout
            for seed in ("0", "1")
        ]
        assert outputs[0] == outputs[1] and len(outputs[0].split()) == len(wire.FRAMINGS)

    def test_floats_keep_their_text_and_specials(self):
        for value in (0.1, -0.0, 1e300, 5e-324, float("inf"), float("-inf")):
            decoded = roundtrip(value)
            assert decoded == value and math.copysign(1, decoded) == math.copysign(1, value)
        assert math.isnan(roundtrip(float("nan")))

    def test_subclasses_travel_as_their_base_type(self):
        class Level(IntEnum):
            HIGH = 3

        class Name(str):
            pass

        decoded = roundtrip([Level.HIGH, Name("n0"), {Name("key"): Level.HIGH}])
        assert decoded == [3, "n0", {"key": 3}]
        assert [type(item) for item in decoded[:2]] == [int, str]

    def test_awkward_dict_keys_roundtrip(self):
        value = {"~": "reserved", 1: {"~": 2}, ("t", 1): {None: frozenset({1.5})}, "plain": {"k": b"\x00"}}
        assert roundtrip(value) == value

    def test_one_json_encoder_and_one_json_decoder(self):
        """Structural: the tree-building pair did not survive beside the new one."""
        assert not hasattr(wire, "encode_value") and not hasattr(wire, "decode_value")
        assert wire.JsonCodec.encode_frame is wire.encode_frame
        assert wire.JsonCodec.decode_body is wire.decode_body

    def test_hook_rejections_are_wire_errors_not_json_errors(self):
        with pytest.raises(wire.WireError, match="unknown wire tag"):
            wire.decode_body(b'[1, {"k": {"~": "martian", "v": []}}]')
        with pytest.raises(wire.WireError, match="undecodable JSON"):
            wire.decode_body(b'{"~": "tuple", "v": [1, 2')
