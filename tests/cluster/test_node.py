"""NodeServer on real sockets, in process: the node<->node path pays for each
value once, and a node socket believes a connection only about itself.

One :class:`~repro.cluster.node.NodeServer` runs on the test's event loop;
the test plays its peers, clients and probes over raw connections, so every
assertion is about bytes that crossed a socket.
"""

import asyncio
import contextlib

import pytest

from repro.broadcast.reliable import RBEcho, RBReady
from repro.cluster.node import NodeServer
from repro.cluster.protocol import client_frame, msg_frame, status_frame
from repro.cluster.spec import localhost_spec
from repro.engine import AsyncEngine, ProtocolCore, wire
from repro.engine.wire import FRAME_TABLE_ENTRIES, hello_frame, peer_frame
from repro.rsm.commands import make_command
from repro.rsm.replica import UpdateRequest


class CountingCodec(wire.Codec):
    """The spec's codec, remembering what it was asked to encode and decode."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.encoded = []
        self.decoded = []

    def encode_frame(self, message):
        self.encoded.append(message)
        return self.inner.encode_frame(message)

    def decode_body(self, body):
        self.decoded.append(bytes(body))
        return self.inner.decode_body(body)


class Conn:
    """One raw connection to the node under test."""

    def __init__(self, reader, writer, codec):
        self.reader, self.writer, self.codec = reader, writer, codec

    async def send(self, frame):
        await self.send_bytes(self.codec.encode_frame(frame))

    async def send_bytes(self, data):
        self.writer.write(data)
        await self.writer.drain()

    async def recv(self):
        return await asyncio.wait_for(self.codec.read_frame(self.reader), 10)

    async def hello(self, name):
        await self.send(hello_frame(name))
        return await self.recv()

    async def dropped(self):
        """Whether the node hung up on us (EOF) instead of answering."""
        return await asyncio.wait_for(self.reader.read(), 10) == b""

    def close(self):
        self.writer.close()


class LiveNode:
    """An in-process ``n0`` and the raw connections the test opened to it."""

    def __init__(self, server):
        self.server = server
        #: ``(sender, payload)`` as the node hands what its sockets received
        #: to its core host (the core itself still runs).
        self.delivered = []
        self.conns = []
        deliver = server.host.deliver

        def record(sender, payload):
            if sender != "n0":  # the replica's own loopback is not socket traffic
                self.delivered.append((sender, payload))
            deliver(sender, payload)

        server.host.deliver = record

    async def connect(self, hello=None):
        reader, writer = await asyncio.open_connection(self.server.me.host, self.server.me.port)
        conn = Conn(reader, writer, self.server.codec.inner)
        self.conns.append(conn)
        if hello is not None:
            await conn.hello(hello)
        return conn

    async def delivers(self, count):
        await settle(lambda: len(self.delivered) >= count, f"{count} deliveries")

    async def still_serving(self):
        probe = await self.connect()
        await probe.send(status_frame())
        status = await probe.recv()
        return status["kind"] == "status_reply" and status["node"] == "n0"


def run_node(scenario, framing="json", n=4):
    """Run ``scenario(node)`` against a :class:`LiveNode` on this test's loop."""

    async def main():
        spec = localhost_spec(n, framing=framing, drain_idle_s=0.02, drain_max_s=0.2)
        server = NodeServer(spec, "n0")
        server.codec = CountingCodec(server.codec)
        node = LiveNode(server)
        running = asyncio.ensure_future(server.run())
        while server._server is None and not running.done():
            await asyncio.sleep(0.005)
        try:
            return await scenario(node)
        finally:
            for conn in node.conns:
                conn.close()
            server._stopping.set()
            assert await asyncio.wait_for(running, 10) == 0

    return asyncio.run(main())


async def settle(condition, what):
    deadline = asyncio.get_running_loop().time() + 10
    while not condition():
        assert asyncio.get_running_loop().time() < deadline, f"timed out waiting for {what}"
        await asyncio.sleep(0.005)


ECHO = RBEcho(origin="n3", tag=("ack", 0, 1, "n3"), value=frozenset({make_command("c0", 1, ("inc", 1))}))


class TestEncodeOncePerBroadcast:
    def test_one_broadcast_is_one_encode_and_equal_bytes_on_every_link(self):
        async def scenario(node):
            server, inner = node.server, node.server.codec.inner
            received = {peer.name: [] for peer in server.spec.nodes[1:]}

            def peer(name):
                async def serve(reader, writer):
                    assert (await inner.read_frame(reader))["kind"] == "hello"
                    writer.write(inner.encode_frame(hello_frame(name, boot=f"{name}.boot")))
                    await writer.drain()
                    with contextlib.suppress(asyncio.IncompleteReadError):
                        while True:
                            header = await reader.readexactly(wire.HEADER_SIZE)
                            length, _crc = wire.unpack_header(header)
                            received[name].append(header + await reader.readexactly(length))
                    writer.close()

                return serve

            def peer_frames_encoded():
                return [frame for frame in server.codec.encoded if frame["kind"] == "peer"]

            async with contextlib.AsyncExitStack() as stack:
                for spec in server.spec.nodes[1:]:
                    listener = await asyncio.start_server(peer(spec.name), spec.host, spec.port)
                    await stack.enter_async_context(listener)
                await settle(lambda: server.ready, "n0 to link up with its three peers")
                server.host.call(lambda: server.core.broadcast(ECHO))
                # The replica's own copy loops back off the wire, so each
                # peer is owed exactly one frame per encode.
                await settle(
                    lambda: all(len(frames) == len(peer_frames_encoded()) for frames in received.values()),
                    "every peer to read one frame per encode",
                )
                for link in server.peers.values():
                    await link.close()
            return peer_frames_encoded(), received

        encoded, received = run_node(scenario)
        assert encoded.count(peer_frame(ECHO)) == 1  # one encode_frame for n - 1 peers
        assert received["n1"] == received["n2"] == received["n3"]
        assert wire.decode_body(received["n1"][-1][wire.HEADER_SIZE :]) == peer_frame(ECHO)

    def test_one_broadcast_on_the_engine_is_one_encode_for_every_link(self):
        class Announcer(ProtocolCore):
            members = ("n0", "n1", "n2", "n3")

            def __init__(self, pid):
                super().__init__(pid)
                self.heard = []

            def on_start(self):
                if self.pid == "n0":
                    self.broadcast(ECHO)

            def on_message(self, sender, payload):
                self.heard.append((sender, payload))

        engine = AsyncEngine(transport="tcp", time_scale=0.0)
        engine._codec = codec = CountingCodec(engine._codec)
        cores = [engine.add_core(Announcer(f"n{index}")) for index in range(4)]
        result = engine.run(max_wall_s=30.0)
        assert [frame for frame in codec.encoded if frame["kind"] == "peer"] == [engine_frame(ECHO)]
        assert engine.metrics.total_sent == 4  # still one send per member, n0 itself included
        assert result.quiescent and result.delivered == 4
        assert [core.heard for core in cores] == [[("n0", ECHO)]] * 4
        # The three listeners share one table: one parse, two lookups.
        assert engine._frames.hits == 2


class TestDecodeOncePerDistinctFrame:
    def test_identical_bodies_from_two_peers_share_one_decoded_message(self):
        async def scenario(node):
            first, second = await node.connect(hello="n1"), await node.connect(hello="n2")
            node.server.codec.decoded.clear()
            await first.send(peer_frame(ECHO))
            await second.send(peer_frame(ECHO))
            await node.delivers(2)
            return node.delivered, node.server.codec.decoded, node.server.status()

        delivered, decoded, status = run_node(scenario)
        assert delivered == [("n1", ECHO), ("n2", ECHO)]
        assert delivered[0][1] is delivered[1][1]
        assert len(decoded) == 1
        assert (status["peer_frames_in"], status["frame_table_hits"]) == (2, 1)

    def test_a_message_holding_a_list_is_decoded_afresh_for_every_peer(self):
        mutable = RBReady(origin="n3", tag="t", value=[1, 2])

        async def scenario(node):
            first, second = await node.connect(hello="n1"), await node.connect(hello="n2")
            await first.send(peer_frame(mutable))
            await second.send(peer_frame(mutable))
            await node.delivers(2)
            return node.delivered, len(node.server.frames), node.server.frames.hits

        delivered, remembered, hits = run_node(scenario)
        assert delivered == [("n1", mutable), ("n2", mutable)]
        assert delivered[0][1] is not delivered[1][1]
        assert delivered[0][1].value is not delivered[1][1].value
        assert (remembered, hits) == (0, 0)

    def test_a_corrupted_repeat_dies_at_the_crc_before_the_table_is_asked(self, capsys):
        async def scenario(node):
            first, second = await node.connect(hello="n1"), await node.connect(hello="n2")
            frame = node.server.codec.inner.encode_frame(peer_frame(ECHO))
            await first.send_bytes(frame)
            await node.delivers(1)
            # The remembered body under a header whose CRC it does not match.
            stale = bytearray(frame)
            stale[wire.HEADER_SIZE - 1] ^= 0x01
            await second.send_bytes(bytes(stale))
            assert await second.dropped()
            return node.delivered, node.server.frames.hits, await node.still_serving()

        delivered, hits, serving = run_node(scenario)
        assert delivered == [("n1", ECHO)]
        assert hits == 0 and serving
        assert "dropping connection: frame checksum mismatch" in capsys.readouterr().err

    def test_the_table_stays_within_its_bound_on_a_live_node(self):
        async def scenario(node):
            conn = await node.connect(hello="n1")
            total = 2 * FRAME_TABLE_ENTRIES + 5
            for index in range(total):
                await conn.send(peer_frame(RBEcho(origin="n3", tag=("t", index), value=index)))
            await node.delivers(total)
            return len(node.server.frames)

        assert run_node(scenario, framing="binary") == FRAME_TABLE_ENTRIES


#: Every way one connection breaks the hello rule on its own: the name it
#: says hello as first (if any), what it sends next, and the note the
#: violation carries.  A node drops the connection; the engine fails its run.
HELLO_RULE_CASES = {
    "protocol_frame_before_hello": (None, [peer_frame(ECHO)], "has not said hello"),
    "hello_naming_a_non_member": (None, [hello_frame("mallory")], "not a peer of n0"),
    "hello_naming_the_node_itself": (None, [hello_frame("n0")], "not a peer of n0"),
    "hello_with_an_unhashable_name": (None, [{"kind": "hello", "node": ["n1"]}], "not a peer of n0"),
    "second_hello_under_another_name": ("n1", [hello_frame("n2")], "said hello again as 'n2'"),
    "frame_that_is_not_a_dict": ("n1", [["peer", "n1"]], "must be a dict"),
    "peer_frame_without_a_payload": ("n1", [{"kind": "peer"}], "missing 'payload'"),
    "the_old_self_declared_sender_shape": ("n1", [msg_frame("n2", ECHO)], "unexpected frame kind 'msg'"),
}


class TestNodeSocketHardening:
    def drops(self, case, capsys):
        """The case's frames get that connection dropped with its note; the node serves on."""
        hello, frames, note = HELLO_RULE_CASES[case]

        async def scenario(node):
            conn = await node.connect(hello=hello)
            for frame in frames:
                await conn.send(frame)
            return await conn.dropped(), node.delivered, await node.still_serving()

        dropped, delivered, serving = run_node(scenario)
        assert dropped and serving
        assert delivered == []
        err = capsys.readouterr().err
        assert "cluster node n0: dropping connection:" in err and note in err

    def test_protocol_frame_before_hello(self, capsys):
        self.drops("protocol_frame_before_hello", capsys)

    def test_remembered_protocol_frame_before_hello(self, capsys):
        """A table hit is still a peer frame: it needs a hello like any other."""

        async def scenario(node):
            peer, stranger = await node.connect(hello="n1"), await node.connect()
            await peer.send(peer_frame(ECHO))
            await node.delivers(1)
            await stranger.send(peer_frame(ECHO))
            return await stranger.dropped(), node.delivered

        dropped, delivered = run_node(scenario)
        assert dropped and delivered == [("n1", ECHO)]
        assert "has not said hello" in capsys.readouterr().err

    def test_hello_naming_a_non_member(self, capsys):
        self.drops("hello_naming_a_non_member", capsys)

    def test_hello_naming_the_node_itself(self, capsys):
        self.drops("hello_naming_the_node_itself", capsys)

    def test_hello_with_an_unhashable_name(self, capsys):
        self.drops("hello_with_an_unhashable_name", capsys)

    def test_second_hello_under_another_name(self, capsys):
        self.drops("second_hello_under_another_name", capsys)

    def test_frame_that_is_not_a_dict(self, capsys):
        self.drops("frame_that_is_not_a_dict", capsys)

    def test_peer_frame_without_a_payload(self, capsys):
        self.drops("peer_frame_without_a_payload", capsys)

    def test_the_old_self_declared_sender_shape(self, capsys):
        self.drops("the_old_self_declared_sender_shape", capsys)

    def test_a_connection_speaks_only_for_the_peer_it_said_hello_as(self):
        async def scenario(node):
            conn = await node.connect()
            answer = await conn.hello("n1")
            # Whatever the body claims, the sender is the connection's.
            await conn.send({**peer_frame(ECHO), "sender": "n2"})
            await conn.hello("n1")  # repeating the same name is harmless
            await conn.send(peer_frame("again"))
            await node.delivers(2)
            return answer, node.delivered, node.server.status()["peers_in"]

        answer, delivered, peers_in = run_node(scenario)
        assert answer["kind"] == "hello" and answer["node"] == "n0" and answer["boot"]
        assert delivered == [("n1", ECHO), ("n1", "again")]
        assert peers_in == ["n1"]

    def test_client_and_status_frames_need_no_hello(self):
        request = UpdateRequest(command=make_command("c9", 1, ("svc", "inc", 1)))

        async def scenario(node):
            conn = await node.connect()
            await conn.send(client_frame("c9", request))
            await node.delivers(1)
            await conn.send(status_frame())
            return node.delivered, await conn.recv()

        delivered, status = run_node(scenario)
        assert delivered == [("c9", request)]
        assert status["clients"] == ["c9"] and status["admitted"] == 1
        assert (status["peer_frames_in"], status["frame_table_hits"]) == (0, 0)


def engine_frame(payload):
    """A peer frame as the async engine's links carry it: payload and causal depth."""
    return {**peer_frame(payload), "depth": 1}


class Hangup:
    """The accepted connection's writer, for a reader fed with no socket behind it."""

    def close(self):
        pass


def read_by_engine(connections, **engine_kwargs):
    """Feed each ``(hello, frames)`` connection in turn to listener n0 of a tcp
    AsyncEngine on n0..n3: the shared reader exactly as the engine configures
    it, fed from a StreamReader.  A frame given as bytes goes in as it is.

    Returns the engine and ``(dest, sender, payload)`` for every message that
    reached an inbox.
    """
    engine = AsyncEngine(transport="tcp", **engine_kwargs)
    for name in ("n0", "n1", "n2", "n3"):
        engine.add_core(ProtocolCore(name))
    codec = wire.get_codec("json")

    async def main():
        engine._inboxes = [asyncio.Queue() for _pid in engine.pids]
        for hello, frames in connections:
            reader = asyncio.StreamReader()
            for frame in ([hello_frame(hello)] if hello else []) + frames:
                reader.feed_data(frame if isinstance(frame, bytes) else codec.encode_frame(frame))
            reader.feed_eof()
            await engine._serve_link(0, reader, Hangup())
        delivered = []
        for pid, inbox in zip(engine.pids, engine._inboxes):
            while not inbox.empty():
                _kind, envelope = inbox.get_nowait()
                delivered.append((pid, envelope.sender, envelope.payload))
        return delivered

    return engine, asyncio.run(main())


class TestTheEngineReadsByTheSameRule:
    """``AsyncEngine(transport="tcp")`` runs the node's peer-frame reader on
    every listener.  On a clean wire a violation becomes the run's failure
    (what ``run()`` raises), never a delivery."""

    @pytest.mark.parametrize("case", list(HELLO_RULE_CASES))
    def test_a_violation_fails_the_run(self, case):
        hello, frames, note = HELLO_RULE_CASES[case]
        engine, delivered = read_by_engine([(hello, frames)])
        assert isinstance(engine._node_failure, wire.WireError)
        assert note in str(engine._node_failure)
        assert delivered == []

    def test_a_remembered_frame_before_hello_fails_the_run(self):
        frame = engine_frame(ECHO)
        engine, delivered = read_by_engine([("n1", [frame]), (None, [frame])])
        assert "has not said hello" in str(engine._node_failure)
        assert delivered == [("n0", "n1", ECHO)]
        assert engine._frames.hits == 1

    def test_a_frame_cannot_name_its_way_into_a_foreign_inbox(self):
        claims = {**engine_frame(ECHO), "sender": "n2", "dest": "n3", "seq": 9}
        engine, delivered = read_by_engine([("n1", [claims])])
        assert engine._node_failure is None
        assert delivered == [("n0", "n1", ECHO)]
        old_shape = {"sender": "n2", "dest": "n3", "depth": 1, "seq": 9, "payload": ECHO}
        engine, delivered = read_by_engine([("n1", [old_shape])])
        assert "missing a string 'kind'" in str(engine._node_failure)
        assert delivered == []

    def test_under_wire_faults_a_violation_is_counted_and_skipped(self):
        codec = wire.get_codec("json")
        stale = bytearray(codec.encode_frame(engine_frame("flipped")))
        stale[-2] ^= 0x01
        undecodable = wire.pack_header(b"{") + b"{"
        frames = [bytes(stale), undecodable, ["peer", "n1"], hello_frame("n2"), engine_frame(ECHO)]
        engine, delivered = read_by_engine([("n1", frames)], wire_faults="dup")
        assert engine._node_failure is None
        assert delivered == [("n0", "n1", ECHO)]
        assert engine.wire_fault_stats == {"crc": 1, "decode": 1, "protocol": 2}
