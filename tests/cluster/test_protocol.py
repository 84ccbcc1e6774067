"""Cluster frame vocabulary and the buffered reconnecting FrameLink."""

import asyncio

import pytest

from repro.cluster.protocol import client_frame, reply_frame, request_status
from repro.engine.wire import (
    FRAME_TABLE_ENTRIES,
    FRAME_TABLE_MAX_BODY,
    HEADER_SIZE,
    FrameLink,
    FrameTable,
    ProtocolError,
    frame_field,
    frame_kind,
    get_codec,
    hello_frame,
    peer_frame,
)
from repro.rsm.commands import make_command
from repro.rsm.replica import DecideNotice, UpdateRequest


class TestFrames:
    @pytest.mark.parametrize("framing", ["json", "binary"])
    def test_frames_round_trip_with_rsm_payloads(self, framing):
        codec = get_codec(framing)
        command = make_command("c0", 1, ("counter", "inc", 1))
        frames = [
            hello_frame("n0"),
            peer_frame(UpdateRequest(command=command)),
            client_frame("c0", UpdateRequest(command=command)),
            reply_frame("c0", "n0", DecideNotice(accepted_set=frozenset({command}), replica="n0")),
        ]
        for frame in frames:
            data = codec.encode_frame(frame)
            decoded = codec.decode_body(memoryview(data)[HEADER_SIZE:])
            assert decoded == frame

    def test_frame_kind_rejects_non_dicts(self):
        with pytest.raises(ProtocolError, match="must be a dict"):
            frame_kind(["not", "a", "frame"])

    def test_frame_kind_rejects_missing_kind(self):
        with pytest.raises(ProtocolError, match="missing a string 'kind'"):
            frame_kind({"node": "n0"})

    def test_frame_field_is_loud_on_torn_frames(self):
        with pytest.raises(ProtocolError, match="missing 'payload'"):
            frame_field({"kind": "peer"}, "payload")


class TestFrameTable:
    def test_a_remembered_body_answers_with_the_very_same_payload(self):
        table = FrameTable()
        frame = {**peer_frame(DecideNotice(accepted_set=frozenset({"c"}), replica="n0")), "depth": 3, "wf": 1}
        assert table.get(b"body") is None
        table.remember(b"body", frame)
        assert table.get(b"body") is frame  # every field, not just the payload
        assert table.get(b"body ") is None  # the key is the exact bytes
        assert table.hits == 1

    @pytest.mark.parametrize(
        "payload",
        [
            [1, 2],
            {"k": 1},
            {1, 2},
            ("tuple", ["holding", "a list"]),
            DecideNotice(accepted_set={"a", "mutable", "set"}, replica="n0"),
            bytearray(b"mutable bytes"),
        ],
    )
    def test_a_payload_hash_refuses_is_never_shared(self, payload):
        table = FrameTable()
        table.remember(b"body", peer_frame(payload))
        assert len(table) == 0 and table.get(b"body") is None

    def test_an_oversized_body_is_not_remembered(self):
        table = FrameTable()
        table.remember(bytes(FRAME_TABLE_MAX_BODY + 1), peer_frame("payload"))
        table.remember(bytes(FRAME_TABLE_MAX_BODY), peer_frame("payload"))
        assert len(table) == 1

    def test_the_table_never_exceeds_its_bound_and_forgets_the_oldest_first(self):
        table = FrameTable()
        for index in range(3 * FRAME_TABLE_ENTRIES):
            table.remember(b"body-%d" % index, peer_frame(index))
            assert len(table) <= FRAME_TABLE_ENTRIES
        assert len(table) == FRAME_TABLE_ENTRIES
        assert table.get(b"body-%d" % (2 * FRAME_TABLE_ENTRIES - 1)) is None
        assert table.get(b"body-%d" % (2 * FRAME_TABLE_ENTRIES)) == peer_frame(2 * FRAME_TABLE_ENTRIES)


class TestFrameLink:
    def test_an_already_encoded_frame_is_queued_as_it_is(self):
        async def main():
            codec = get_codec("binary")
            link = FrameLink("127.0.0.1", 1, codec)
            data = codec.encode_frame(peer_frame("once"))
            link.send_encoded(data)
            link.send(peer_frame("once"))
            assert bytes(link._buffer) == data + data
            await link.close()
            link.send_encoded(data)  # dropped like any send after close
            assert link.pending_bytes == len(data) * 2

        asyncio.run(main())

    def test_buffers_while_down_and_flushes_on_connect(self):
        """Frames sent before the peer exists arrive once it appears."""

        async def main():
            codec = get_codec("json")
            received = []
            got_two = asyncio.Event()

            async def serve(reader, writer):
                while True:
                    try:
                        received.append(await codec.read_frame(reader))
                    except (asyncio.IncompleteReadError, ConnectionError):
                        return
                    if len(received) >= 3:
                        got_two.set()

            # Reserve a port, but start the server only *after* sending.
            probe = await asyncio.start_server(serve, "127.0.0.1", 0)
            port = probe.sockets[0].getsockname()[1]
            probe.close()
            await probe.wait_closed()

            link = FrameLink("127.0.0.1", port, codec, hello=hello_frame("n0"))
            link.start()
            link.send(peer_frame("early-1"))
            link.send(peer_frame("early-2"))
            await asyncio.sleep(0.1)
            assert not link.connected
            assert link.pending_bytes > 0

            server = await asyncio.start_server(serve, "127.0.0.1", port)
            await asyncio.wait_for(got_two.wait(), 10)
            await link.close()
            server.close()
            await server.wait_closed()
            return received

        received = asyncio.run(main())
        # The hello goes first, then the backlog in order.
        assert received[0] == hello_frame("n0")
        assert received[1:3] == [peer_frame("early-1"), peer_frame("early-2")]

    def test_new_incarnation_drops_buffered_backlog(self):
        """Frames buffered for a dead peer die with it; a restarted peer
        (different ``boot`` token) starts from a clean link."""

        async def main():
            codec = get_codec("json")
            received = []
            boot = ["first"]

            conns = []

            async def serve(reader, writer):
                conns.append(writer)
                try:
                    while True:
                        frame = await codec.read_frame(reader)
                        received.append((boot[0], frame))
                        if frame.get("kind") == "hello":
                            writer.write(codec.encode_frame(hello_frame("peer", boot=boot[0])))
                            await writer.drain()
                except (asyncio.IncompleteReadError, ConnectionError, asyncio.CancelledError):
                    return

            server = await asyncio.start_server(serve, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            link = FrameLink(
                "127.0.0.1", port, codec, hello=hello_frame("n0", boot="me"), expect_hello=True
            )
            link.start()
            link.send(peer_frame("for-first-incarnation"))
            deadline = asyncio.get_running_loop().time() + 10
            while len(received) < 2 and asyncio.get_running_loop().time() < deadline:
                await asyncio.sleep(0.01)
            assert [f.get("payload") for _b, f in received if f.get("kind") == "peer"] == [
                "for-first-incarnation"
            ]

            # "Kill" the peer: stop listening AND drop its live connections
            # (closing the server alone leaves them up), then buffer traffic.
            server.close()
            await server.wait_closed()
            for conn in conns:
                conn.close()
            await asyncio.sleep(0.05)
            link.send(peer_frame("addressed-to-the-dead"))
            deadline = asyncio.get_running_loop().time() + 10
            while link.pending_bytes == 0 and asyncio.get_running_loop().time() < deadline:
                await asyncio.sleep(0.01)
            assert link.pending_bytes > 0

            # "Restart" it with a new boot token on the same port.  The
            # stale backlog is dropped during the handshake; frames sent to
            # the confirmed new incarnation go through.
            boot[0] = "second"
            server = await asyncio.start_server(serve, "127.0.0.1", port)
            deadline = asyncio.get_running_loop().time() + 10
            while not link.connected and asyncio.get_running_loop().time() < deadline:
                await asyncio.sleep(0.01)
            assert link.connected
            link.send(peer_frame("for-second-incarnation"))
            while (
                not any(b == "second" and f.get("kind") == "peer" for b, f in received)
                and asyncio.get_running_loop().time() < deadline
            ):
                await asyncio.sleep(0.01)
            await link.close()
            server.close()
            await server.wait_closed()
            second = [f.get("payload") for b, f in received if b == "second" and f.get("kind") == "peer"]
            assert second == ["for-second-incarnation"], second

        asyncio.run(main())

    def test_send_after_close_is_a_silent_drop(self):
        async def main():
            codec = get_codec("json")
            link = FrameLink("127.0.0.1", 1, codec)
            link.start()
            await link.close()
            link.send(hello_frame("n0"))  # must not raise
            assert link.pending_bytes == 0

        asyncio.run(main())

    def test_request_status_unreachable_raises_oserror(self):
        async def main():
            codec = get_codec("json")
            # Grab a port and close it again: nothing is listening there.
            server = await asyncio.start_server(lambda r, w: None, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            server.close()
            await server.wait_closed()
            with pytest.raises(OSError):
                await request_status("127.0.0.1", port, codec, timeout=2.0)

        asyncio.run(main())
