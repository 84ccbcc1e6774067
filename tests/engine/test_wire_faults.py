"""Wire-fault injection units: the DSL, FaultyCodec forgeries, FaultySocket.

End-to-end engine runs under injection live in ``test_wire_byzantine.py``;
this file pins the building blocks — every forged frame must be either
rejected at the framing layer (stale CRC), rejected by the decoder
(matching-CRC truncation) or decodable-but-marked (dup/replay/tamper), and
the honest frame always follows the forgeries intact.
"""

import asyncio
import dataclasses

import pytest

from repro.core.messages import InitPhase, SafeAck, SbSAckRequest
from repro.crypto.signatures import KeyRegistry
from repro.engine import wire
from repro.engine.wire_faults import (
    CODEC_MODES,
    DEFAULT_RATE,
    INJECTED_KEY,
    POISON,
    SOCKET_MODES,
    TAMPER_ELIGIBLE,
    FaultyCodec,
    FaultySocket,
    WireFaultPlan,
    coerce_wire_faults,
    collect_tags,
    mutate_first_signed,
    parse_wire_faults,
    poison_value,
)


def split_frames(data: bytes) -> list[bytes]:
    """Split a concatenated frame stream on its length headers."""
    frames, offset = [], 0
    while offset < len(data):
        length, _crc = wire.unpack_header(data[offset : offset + wire.HEADER_SIZE])
        frames.append(data[offset : offset + wire.HEADER_SIZE + length])
        offset += wire.HEADER_SIZE + length
    return frames


def decode(codec: wire.Codec, frame: bytes):
    """Decode one frame the way the receiver does: CRC first, then body."""
    length, crc = wire.unpack_header(frame[: wire.HEADER_SIZE])
    body = frame[wire.HEADER_SIZE :]
    assert len(body) == length
    wire.check_crc(body, crc)
    return codec.decode_body(body)


def signed_envelope(registry: KeyRegistry):
    """An engine-shaped envelope dict whose payload carries a SignedValue."""
    signer = registry.register("p0")
    value = signer.sign(frozenset({"v-p0"}))
    payload = InitPhase(payload=value)
    return {"sender": "p0", "dest": "p1", "depth": 0, "seq": 1, "payload": payload}, value


class TestParse:
    def test_empty_spec_means_no_plan(self):
        assert parse_wire_faults("") is None
        assert parse_wire_faults("   ") is None

    def test_default_rate_and_describe_round_trip(self):
        plan = parse_wire_faults("flip+tamper-value:0.5+framing:binary")
        assert plan.terms == (("flip", DEFAULT_RATE), ("tamper-value", 0.5))
        assert plan.framing == "binary"
        assert parse_wire_faults(plan.describe()) == plan

    @pytest.mark.parametrize("mode", CODEC_MODES + SOCKET_MODES)
    def test_every_documented_mode_parses(self, mode):
        plan = parse_wire_faults(f"{mode}:0.9")
        assert plan.has(mode)

    @pytest.mark.parametrize(
        "bad",
        ["martian", "flip:0", "flip:1.5", "flip:x", "framing:msgpack", "flip++dup"],
    )
    def test_malformed_specs_fail_loudly(self, bad):
        with pytest.raises(wire.WireError):
            parse_wire_faults(bad)

    def test_coerce_accepts_plan_and_string_only(self):
        plan = parse_wire_faults("dup")
        assert coerce_wire_faults(plan) is plan
        assert coerce_wire_faults("dup") == plan
        with pytest.raises(wire.WireError):
            coerce_wire_faults(7)
        with pytest.raises(wire.WireError):
            coerce_wire_faults("")

    def test_codec_terms_exclude_socket_modes(self):
        plan = parse_wire_faults("flip+torn+slow:0.1")
        assert plan.codec_terms() == (("flip", DEFAULT_RATE),)


class TestMutators:
    def test_mutate_first_signed_walks_nested_containers(self):
        registry = KeyRegistry(seed=1)
        signed = registry.register("p0").sign(frozenset({"v"}))
        obj = {"outer": [({"inner": frozenset({signed})},)]}
        rebuilt, found = mutate_first_signed(
            obj, lambda sv: dataclasses.replace(sv, value=poison_value(sv.value))
        )
        assert found
        inner = rebuilt["outer"][0][0]["inner"]
        [mutated] = list(inner)
        assert POISON in mutated.value
        assert not registry.verify(mutated)

    def test_mutate_without_signed_values_reports_not_found(self):
        rebuilt, found = mutate_first_signed({"a": [1, 2]}, lambda sv: sv)
        assert rebuilt == {"a": [1, 2]}
        assert not found

    def test_poison_value_keeps_container_shape(self):
        assert POISON in poison_value(frozenset({"v"}))
        assert poison_value(7) == (POISON, 7)

    def test_collect_tags_harvests_and_caps(self):
        registry = KeyRegistry(seed=2)
        signer = registry.register("p0")
        values = [signer.sign(("v", i)) for i in range(12)]
        tags: list[bytes] = []
        collect_tags(values, tags, cap=8)
        assert 0 < len(tags) <= 8

    def test_tamper_eligibility_is_request_direction_only(self):
        # Acks are excluded on purpose: tampering them makes recipients
        # blacklist honest senders (liveness loss, nothing about
        # signatures) — see the TAMPER_ELIGIBLE rationale.
        assert "InitPhase" in TAMPER_ELIGIBLE
        assert "SbSAckRequest" in TAMPER_ELIGIBLE
        assert "SafeAck" not in TAMPER_ELIGIBLE
        assert "SbSAck" not in TAMPER_ELIGIBLE
        assert "GSbSSafeAck" not in TAMPER_ELIGIBLE


@pytest.fixture(params=wire.FRAMINGS)
def codec(request):
    return wire.get_codec(request.param)


class TestFaultyCodec:
    def test_no_codec_terms_is_passthrough(self, codec):
        faulty = FaultyCodec(codec, parse_wire_faults("torn"), seed=1)
        message = {"sender": "p0", "payload": "x"}
        assert faulty.encode_frame(message) == codec.encode_frame(message)

    def test_flip_forgery_fails_the_crc_and_honest_frame_survives(self, codec):
        faulty = FaultyCodec(codec, parse_wire_faults("flip:1"), seed=3)
        message = {"sender": "p0", "payload": ["v", 1]}
        frames = split_frames(faulty.encode_frame(message))
        assert len(frames) == 2
        with pytest.raises(wire.WireError, match="checksum"):
            decode(codec, frames[0])
        assert decode(codec, frames[1]) == message
        assert faulty.stats == {"flip": 1}

    def test_trunc_forgery_passes_framing_but_fails_decoding(self, codec):
        faulty = FaultyCodec(codec, parse_wire_faults("trunc:1"), seed=4)
        message = {"sender": "p0", "payload": ("tuple", frozenset({"a", "b"}))}
        frames = split_frames(faulty.encode_frame(message))
        assert len(frames) == 2
        # The re-headered stub has a *matching* CRC: the framing layer
        # passes and the decoder itself must reject.
        length, crc = wire.unpack_header(frames[0][: wire.HEADER_SIZE])
        wire.check_crc(frames[0][wire.HEADER_SIZE :], crc)
        with pytest.raises(wire.WireError):
            codec.decode_body(frames[0][wire.HEADER_SIZE :])
        assert decode(codec, frames[1]) == message

    def test_dup_and_replay_are_marked_injected(self, codec):
        faulty = FaultyCodec(codec, parse_wire_faults("dup:1+replay:1"), seed=5)
        first = {"sender": "p0", "payload": "one"}
        second = {"sender": "p0", "payload": "two"}
        faulty.encode_frame(first)
        frames = split_frames(faulty.encode_frame(second))
        # dup of `second`, replay of `first`, then the honest `second`.
        assert len(frames) == 3
        decoded = [decode(codec, frame) for frame in frames]
        assert decoded[-1] == second
        for injected in decoded[:-1]:
            assert injected[INJECTED_KEY] == 1
        assert {d["payload"] for d in decoded[:-1]} == {"one", "two"}

    def test_a_replay_repeats_an_earlier_frame_of_its_own_link(self, codec):
        """The receiver stamps the link's sender on whatever arrives, so a
        replay drawn from another link would impersonate that link's sender."""
        faulty = FaultyCodec(codec, parse_wire_faults("replay:1"), seed=5)
        for index in range(4):
            frame = wire.peer_frame(f"a-{index}")
            faulty.forge(frame, codec.encode_frame(frame), link=("p0", "p1"))
        # p0's four frames are no replay candidates on p2's link.
        frame = wire.peer_frame("b-0")
        assert faulty.forge(frame, codec.encode_frame(frame), link=("p2", "p1")) == b""
        frame = wire.peer_frame("b-1")
        [replayed] = split_frames(faulty.forge(frame, codec.encode_frame(frame), link=("p2", "p1")))
        assert decode(codec, replayed) == {**wire.peer_frame("b-0"), INJECTED_KEY: 1}

    def test_tamper_value_poisons_signed_payloads_and_breaks_verification(self, codec):
        registry = KeyRegistry(seed=6)
        message, original = signed_envelope(registry)
        faulty = FaultyCodec(codec, parse_wire_faults("tamper-value:1"), seed=6)
        frames = split_frames(faulty.encode_frame(message))
        assert len(frames) == 2
        forged = decode(codec, frames[0])
        assert forged[INJECTED_KEY] == 1
        tampered = forged["payload"].payload
        assert POISON in tampered.value
        assert not registry.verify(tampered)
        honest = decode(codec, frames[1])["payload"].payload
        assert honest == original and registry.verify(honest)

    def test_tamper_sig_splices_a_wrong_tag(self, codec):
        registry = KeyRegistry(seed=7)
        message, _original = signed_envelope(registry)
        faulty = FaultyCodec(codec, parse_wire_faults("tamper-sig:1"), seed=7)
        frames = split_frames(faulty.encode_frame(message))
        tampered = decode(codec, frames[0])["payload"].payload
        assert not registry.verify(tampered)

    def test_tamper_skips_ineligible_ack_payloads(self, codec):
        registry = KeyRegistry(seed=8)
        acceptor = registry.register("p1")
        ack = SafeAck(
            rcvd_set=frozenset(), conflicts=frozenset(), request_id=1,
            signature=acceptor.sign((frozenset(), frozenset(), 1)),
        )
        message = {"sender": "p1", "payload": ack}
        faulty = FaultyCodec(codec, parse_wire_faults("tamper-value:1+tamper-sig:1"), seed=8)
        frames = split_frames(faulty.encode_frame(message))
        assert len(frames) == 1  # no forgery: acks are out of scope
        assert faulty.stats == {}

    def test_tamper_skips_unsigned_payloads(self, codec):
        faulty = FaultyCodec(codec, parse_wire_faults("tamper-value:1"), seed=9)
        message = {"sender": "p0", "payload": SbSAckRequest(proposed_set=frozenset(), ts=1)}
        assert len(split_frames(faulty.encode_frame(message))) == 1

    def test_same_seed_same_bytes(self, codec):
        spec = "flip:0.5+trunc:0.5+dup:0.5"
        message = {"sender": "p0", "payload": ["x"] * 10}
        streams = []
        for _ in range(2):
            faulty = FaultyCodec(codec, parse_wire_faults(spec), seed=42)
            streams.append(b"".join(faulty.encode_frame(message) for _ in range(20)))
        assert streams[0] == streams[1]


class TestFaultySocket:
    def run_through_proxy(self, payloads, **socket_kwargs):
        """Send frames through the proxy to a collecting server; return
        ``(received, proxy)`` after the proxy is torn down."""
        codec = wire.get_codec("json")

        async def main():
            received = []
            got_all = asyncio.Event()

            async def serve(reader, writer):
                try:
                    while True:
                        received.append(await codec.read_frame(reader))
                        if len(received) >= len(payloads):
                            got_all.set()
                except (asyncio.IncompleteReadError, ConnectionError):
                    return

            server = await asyncio.start_server(serve, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            proxy = FaultySocket("127.0.0.1", port, **socket_kwargs)
            proxy_port = await proxy.start()
            _reader, writer = await asyncio.open_connection("127.0.0.1", proxy_port)
            for payload in payloads:
                writer.write(codec.encode_frame(payload))
            await writer.drain()
            try:
                await asyncio.wait_for(got_all.wait(), 10)
            finally:
                writer.close()
                await proxy.close()
                server.close()
                await server.wait_closed()
            return received, proxy

        return asyncio.run(main())

    def test_torn_stream_reassembles_into_intact_frames(self):
        payloads = [{"k": index, "body": "x" * 50} for index in range(10)]
        received, proxy = self.run_through_proxy(payloads, torn=True, seed=1)
        assert received == payloads
        # Tearing actually happened: far more chunks than frames.
        assert proxy.chunks_forwarded > len(payloads) * 5

    def test_slow_socket_paces_but_delivers(self):
        payloads = [{"k": index} for index in range(3)]
        received, _proxy = self.run_through_proxy(payloads, pace_s=0.01)
        assert received == payloads

    def test_churn_cuts_the_connection_mid_stream(self):
        codec = wire.get_codec("json")

        async def main():
            async def serve(reader, writer):
                try:
                    while await reader.read(65536):
                        pass
                except (ConnectionError, OSError):
                    return

            server = await asyncio.start_server(serve, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            proxy = FaultySocket("127.0.0.1", port, torn=True, disconnect_after=3, seed=2)
            proxy_port = await proxy.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", proxy_port)
            writer.write(codec.encode_frame({"big": "y" * 500}))
            with pytest.raises((asyncio.IncompleteReadError, ConnectionError)):
                while True:
                    data = await asyncio.wait_for(reader.read(65536), 5)
                    if not data:
                        raise ConnectionResetError("proxy cut us off")
            await proxy.close()
            server.close()
            await server.wait_closed()
            return proxy.disconnects

        assert asyncio.run(main()) >= 1
