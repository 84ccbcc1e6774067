"""FrameLink under a hostile wire: torn frames, pacing, reconnect churn.

Satellite of the wire-fault PR: a :class:`~repro.engine.wire_faults.
FaultySocket` proxy sits between a FrameLink and its peer, shredding
writes into 1–7-byte chunks and periodically cutting the connection
mid-frame.  The audit's pinned findings:

1. **Never corruption.**  A tear surfaces as a short read at the framing
   layer; the receiver never decodes garbage.  Every payload that arrives
   is byte-identical to one that was sent, and survivors arrive in send
   order (duplicates allowed across reconnects — the cores are
   idempotent).
2. **The unflushed backlog survives reconnects.**  A coalesced chunk the
   flush loop has taken out of the buffer is re-prepended on *every* exit
   path — ConnectionError and cancellation alike.  The cancellation leg
   is the historical bug: when the read pump noticed the peer's FIN
   first, ``_run`` cancelled ``_flush_loop`` mid-``drain()`` and the
   chunk in its hand — a whole coalesced batch of frames — silently
   vanished across the reconnect.  ``test_chunk_mid_drain_survives_
   cancellation`` pins the fix deterministically.
3. **Delivery is at-least-once only up to the last ``drain()``.**  Bytes
   the kernel has accepted but a downstream cut eats are gone; FrameLink
   cannot know.  End-to-end exactly-once is a higher-layer concern (the
   RSM client retries with request ids — see docs/operations.md).  The
   churn test therefore asserts sustained *progress* through unbounded
   cuts, not total delivery of a one-shot blast.
"""

import asyncio
import socket

from repro.engine.wire import FrameLink, get_codec, hello_frame, peer_frame
from repro.engine.wire_faults import FaultySocket


def payload_index(payload):
    return int(payload.rpartition("-")[2])


def assert_sane_stream(received, sent_count):
    """Finding 1: only sent bytes, survivors in send order."""
    assert set(received) <= {f"payload-{i}" for i in range(sent_count)}
    first_seen = list(dict.fromkeys(received))
    indices = [payload_index(p) for p in first_seen]
    assert indices == sorted(indices), f"survivors reordered: {indices}"


def run_link_scenario(scenario):
    """Drive ``scenario(received, port) -> result`` against a local
    frame-collecting server and return its result."""
    codec = get_codec("json")

    async def main():
        received = []

        async def serve(reader, writer):
            try:
                while True:
                    frame = await codec.read_frame(reader)
                    if frame.get("kind") == "peer":
                        received.append(frame["payload"])
            except (asyncio.IncompleteReadError, ConnectionError, OSError):
                return

        server = await asyncio.start_server(serve, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        try:
            return await scenario(received, port, codec)
        finally:
            server.close()
            await server.wait_closed()

    return asyncio.run(main())


class TestTornFrames:
    def test_shredded_stream_delivers_every_frame_intact_and_in_order(self):
        async def scenario(received, port, codec):
            proxy = FaultySocket("127.0.0.1", port, torn=True, seed=3)
            link = FrameLink("127.0.0.1", await proxy.start(), codec,
                             hello=hello_frame("n0"))
            link.start()
            expected = [f"payload-{i}" for i in range(25)]
            for payload in expected:
                link.send(peer_frame(payload))
            deadline = asyncio.get_running_loop().time() + 20.0
            while len(received) < len(expected):
                assert asyncio.get_running_loop().time() < deadline, received
                await asyncio.sleep(0.02)
            await link.close()
            await proxy.close()
            return expected, received, proxy

        expected, received, proxy = run_link_scenario(scenario)
        assert received == expected  # no cuts: exactly-once, in order
        assert proxy.chunks_forwarded > len(expected)  # genuinely shredded

    def test_paced_trickle_delivers(self):
        async def scenario(received, port, codec):
            proxy = FaultySocket("127.0.0.1", port, torn=True, pace_s=0.002, seed=4)
            link = FrameLink("127.0.0.1", await proxy.start(), codec,
                             hello=hello_frame("n0"))
            link.start()
            expected = [f"payload-{i}" for i in range(5)]
            for payload in expected:
                link.send(peer_frame(payload))
            deadline = asyncio.get_running_loop().time() + 20.0
            while len(received) < len(expected):
                assert asyncio.get_running_loop().time() < deadline, received
                await asyncio.sleep(0.02)
            await link.close()
            await proxy.close()
            return expected, received

        expected, received = run_link_scenario(scenario)
        assert received == expected


class TestReconnectChurn:
    def test_progress_and_sanity_through_unbounded_mid_frame_cuts(self):
        """Finding 3: each connection dies after ~120 torn chunks (cutting
        a frame in half on the way down), yet the link keeps reconnecting
        and delivering fresh frames — and nothing that does arrive is
        corrupted or reordered."""

        async def scenario(received, port, codec):
            proxy = FaultySocket("127.0.0.1", port, torn=True,
                                 disconnect_after=120, seed=5)
            link = FrameLink("127.0.0.1", await proxy.start(), codec,
                             hello=hello_frame("n0"))
            link.start()
            target, sent = 20, 0
            deadline = asyncio.get_running_loop().time() + 30.0
            while (len(set(received)) < target
                   and asyncio.get_running_loop().time() < deadline):
                if sent < 400:
                    link.send(peer_frame(f"payload-{sent}"))
                    sent += 1
                await asyncio.sleep(0.01)
            await link.close()
            await proxy.close()
            return received, sent, proxy

        received, sent, proxy = run_link_scenario(scenario)
        assert proxy.disconnects >= 1, "the proxy never exercised a cut"
        assert len(set(received)) >= 20, (len(set(received)), proxy.disconnects)
        assert_sane_stream(received, sent)


class TestFlushLoopCancellation:
    def test_chunk_mid_drain_survives_cancellation(self):
        """Finding 2, the deterministic regression pin for the historical
        flush-loop bug.  Setup: squeeze the transport's write buffer so a
        large frame blocks in ``drain()`` with the chunk already popped
        from the link buffer, then half-close from the peer so the *read*
        pump exits first and ``_run`` cancels the flush task mid-drain.
        With the re-prepend fix the chunk is replayed on the next
        connection; without it the frame vanishes and this test times
        out waiting."""
        codec = get_codec("json")
        # Must exceed what the kernel + the paused StreamReader can absorb
        # with the receive buffer clamped below (~4 MB sender-side sndbuf
        # plus a few hundred KB), or drain() returns before the FIN and
        # the chunk is genuinely acknowledged rather than stuck mid-drain.
        big = "x" * 12_000_000

        async def main():
            received = []
            connections = []

            async def serve(reader, writer):
                index = len(connections)
                connections.append(writer)
                if index == 0:
                    # First incarnation: never read, just half-close once
                    # the link is verifiably stuck in drain().
                    await first_conn_should_fin.wait()
                    writer.write_eof()
                    return
                try:
                    while True:
                        frame = await codec.read_frame(reader)
                        if frame.get("kind") == "peer":
                            received.append(frame["payload"])
                except (asyncio.IncompleteReadError, ConnectionError, OSError):
                    return

            first_conn_should_fin = asyncio.Event()
            # Clamp the receive buffer on the *listener* (accepted sockets
            # inherit it, and an explicit SO_RCVBUF disables the kernel's
            # window autotuning — on this class of kernel tcp_rmem can
            # otherwise grow past the test frame and swallow it whole,
            # letting drain() return and the test go green vacuously).
            lsock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            lsock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 8192)
            lsock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            lsock.bind(("127.0.0.1", 0))
            server = await asyncio.start_server(serve, sock=lsock)
            port = server.sockets[0].getsockname()[1]
            link = FrameLink("127.0.0.1", port, codec, hello=hello_frame("n0"))
            link.start()
            while not link.connected:
                await asyncio.sleep(0.005)
            # Make drain() block on any meaningful backlog.
            link._writer.transport.set_write_buffer_limits(high=1024, low=0)
            link.send(peer_frame(big))
            # The flush loop has the chunk in hand once the link buffer is
            # empty; the kernel-side socket fills and drain() parks.
            deadline = asyncio.get_running_loop().time() + 10.0
            while link.pending_bytes:
                assert asyncio.get_running_loop().time() < deadline
                await asyncio.sleep(0.005)
            await asyncio.sleep(0.1)  # let drain() actually park
            first_conn_should_fin.set()  # EOF → read pump exits first
            deadline = asyncio.get_running_loop().time() + 20.0
            while not received:
                assert asyncio.get_running_loop().time() < deadline, (
                    "re-prepended chunk never replayed across the reconnect"
                )
                await asyncio.sleep(0.02)
            await link.close()
            server.close()
            await server.wait_closed()
            return received

        received = asyncio.run(main())
        assert received[0] == big  # intact, byte-identical
