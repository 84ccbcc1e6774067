"""The cluster's socket protocol: frame vocabulary and reconnecting links.

Every byte on a cluster socket is one length-prefixed frame in the spec's
framing (:mod:`repro.engine.wire` — the same ``json`` / ``binary`` codecs
the in-process :class:`~repro.engine.async_backend.AsyncEngine` TCP
transport speaks).  A frame's payload is a plain dict whose ``"kind"`` key
discriminates:

``hello``
    First frame on a node's outbound peer link — names the sender.  The
    receiving node checks that the name is one of its peers and from then
    on stamps it on every ``peer`` frame of that connection; it also
    accounts for inbound connectivity in ``status``.  The node answers with
    its own hello carrying a ``boot`` incarnation token, which lets the
    dialing link detect a restarted peer.
``peer``
    Replica-to-replica protocol traffic: the GWTS/reliable-broadcast
    message dataclasses, verbatim, and nothing else.  A ``peer`` frame does
    not say who sent it: the *receiver* stamps the sender from the
    connection's ``hello`` (the paper's authenticated channels — a
    connection speaks for exactly one member, mirroring the engines'
    stamped-sender rule), so a ``peer`` frame **before** the ``hello`` is a
    protocol violation and drops the connection.  Because the body carries
    no sender, a broadcast is encoded once and the same bytes go to every
    peer, and an echo relayed by three peers arrives as three identical
    bodies (see :class:`FrameTable`).
``client``
    Client-to-replica traffic (``UpdateRequest`` / ``ConfirmRequest``)
    tagged with the client's id.  A node registers the connection as that
    client's reply channel on every such frame, so reconnecting clients
    re-attach implicitly.
``reply``
    Replica-to-client traffic (``DecideNotice`` / ``ConfirmReply``).
``status`` / ``status_reply``
    One-shot readiness/observability probe and its answer (pid, readiness,
    peer connectivity, decision counters — see ``docs/operations.md``).

Anything else — an unknown kind, a missing field, a frame that is not a
dict — raises :class:`~repro.cluster.spec.ClusterError`: a torn or foreign
handshake drops that one connection loudly and leaves the node serving.

:class:`FrameLink` is the transport half both sides share: a persistent
outbound connection that buffers encoded frames while disconnected,
reconnects with capped exponential backoff, coalesces queued frames into
single ``write()`` calls (the PR 6 TCP idiom) and optionally pumps inbound
frames to a callback.  Buffering-while-down carries traffic across
transient disconnects; the hello handshake's incarnation token keeps a
*restarted* peer from being flooded with a dead process's backlog.
"""

from __future__ import annotations

import asyncio
from collections.abc import Callable
from typing import Any

from repro.cluster.spec import ClusterError
from repro.engine.wire import Codec, WireError

# -- frame vocabulary ------------------------------------------------------------------

K_HELLO = "hello"
K_PEER = "peer"
K_CLIENT = "client"
K_REPLY = "reply"
K_STATUS = "status"
K_STATUS_REPLY = "status_reply"


def hello_frame(node: str, boot: str | None = None) -> dict:
    """First frame on a peer link: who is calling.

    ``boot`` is an incarnation token (a node answers an inbound hello with
    its own hello carrying one): two hellos with different tokens come from
    different OS processes behind the same endpoint.
    """
    frame = {"kind": K_HELLO, "node": node}
    if boot is not None:
        frame["boot"] = boot
    return frame


def peer_frame(payload: Any) -> dict:
    """Replica-to-replica protocol message (the receiver stamps the sender)."""
    return {"kind": K_PEER, "payload": payload}


def msg_frame(sender: str, payload: Any) -> dict:
    """A protocol message beside a self-declared sender — no node sends or
    accepts this shape any more; ``benchmarks/ledger/probes.py`` wraps its
    codec corpus in it, and the ledger's names are frozen."""
    return {"kind": "msg", "sender": sender, "payload": payload}


def client_frame(client: str, payload: Any) -> dict:
    """Client-to-replica request (also registers the reply channel)."""
    return {"kind": K_CLIENT, "client": client, "payload": payload}


def reply_frame(client: str, sender: str, payload: Any) -> dict:
    """Replica-to-client reply."""
    return {"kind": K_REPLY, "client": client, "sender": sender, "payload": payload}


def status_frame() -> dict:
    """One-shot status probe."""
    return {"kind": K_STATUS}


def frame_kind(frame: Any) -> str:
    """The ``"kind"`` discriminator of a frame, validated loudly."""
    if not isinstance(frame, dict):
        raise ClusterError(f"cluster frame must be a dict, got {type(frame).__name__}")
    kind = frame.get("kind")
    if not isinstance(kind, str):
        raise ClusterError(f"cluster frame is missing a string 'kind': {frame!r}")
    return kind


def frame_field(frame: dict, key: str) -> Any:
    """A required frame field; absence means a malformed (torn) handshake."""
    try:
        return frame[key]
    except KeyError:
        raise ClusterError(f"cluster {frame.get('kind', '?')!r} frame is missing {key!r}") from None


# -- one decode per distinct peer frame ------------------------------------------------

#: How many decoded peer frames a node remembers.  A reliable-broadcast
#: instance is over within a few frames of its first echo, so a short memory
#: catches nearly every repeat: measured on a 4-node counter workload, 0.58
#: of peer frames hit at 64 entries, 0.59 at 512, 0.15 at 8.
FRAME_TABLE_ENTRIES = 64

#: Bodies larger than this are decoded every time instead of remembered, so
#: the table holds at most ``FRAME_TABLE_ENTRIES * FRAME_TABLE_MAX_BODY`` bytes
#: whatever a Byzantine peer sends.
FRAME_TABLE_MAX_BODY = 1 << 20


class FrameTable:
    """CRC-checked ``peer`` frame body -> the payload it decodes to.

    Bracha echoes and readies reach a node byte-for-byte identical from
    every peer, so a repeat costs a dict lookup instead of a parse.  The key
    is the exact body, so a hit returns what decoding would have returned;
    the payload is shared between deliveries only if ``hash()`` accepts it —
    frozen dataclasses of frozensets and tuples are immutable all the way
    down, anything holding a list, dict or set is decoded afresh every time.
    The oldest entry leaves when the table is full: a Byzantine peer can at
    worst evict entries, never change what a body decodes to.
    """

    def __init__(self) -> None:
        self._payloads: dict[bytes, Any] = {}
        #: Lookups answered from the table (``status`` reports it).
        self.hits = 0

    def __len__(self) -> int:
        return len(self._payloads)

    def get(self, body: bytes) -> Any:
        """The remembered payload of ``body``, or ``None``."""
        payload = self._payloads.get(body)
        if payload is not None:
            self.hits += 1
        return payload

    def remember(self, body: bytes, payload: Any) -> None:
        """Remember what ``body`` decoded to, if it is safe and small enough
        to share (``None`` is what :meth:`get` answers for a miss, so a
        ``None`` payload is not remembered either)."""
        if payload is None or len(body) > FRAME_TABLE_MAX_BODY:
            return
        try:
            hash(payload)
        except TypeError:
            return
        if len(self._payloads) >= FRAME_TABLE_ENTRIES:
            del self._payloads[next(iter(self._payloads))]
        self._payloads[body] = payload


# -- the persistent outbound link ------------------------------------------------------


class FrameLink:
    """A buffered, auto-reconnecting outbound frame connection.

    ``send`` never blocks and never fails: frames are encoded immediately
    (so encoding errors surface at the call site) and appended to a byte
    buffer that a single writer task flushes in coalesced chunks whenever a
    connection is up, applying ``drain()`` backpressure.  While the peer is
    down the buffer simply grows; on reconnect the ``hello`` frame (if any)
    goes first, then the backlog.  ``on_frame``, when given, attaches a
    reader pumping inbound frames off the same connection (the client side
    needs this; node peer links are one-directional).

    ``expect_hello=True`` makes the link incarnation-aware: after sending
    its own hello it waits for the peer's answering hello and compares the
    ``boot`` token with the previous connection's.  A *different* token
    means the peer process died and a fresh one took over its endpoint —
    the frames buffered for the dead incarnation are dropped instead of
    replayed, because they were addressed to state that no longer exists
    (an amnesiac restart cannot use them, and a large stale backlog would
    only flood it; the restarted replica counts against the ``f`` budget
    either way — see docs/operations.md).  Buffered traffic still survives
    transient disconnects to the *same* incarnation unchanged.
    """

    RETRY_INITIAL = 0.05
    RETRY_MAX = 1.0
    HELLO_TIMEOUT = 5.0

    def __init__(
        self,
        host: str,
        port: int,
        codec: Codec,
        *,
        hello: dict | None = None,
        on_frame: Callable[[Any], None] | None = None,
        expect_hello: bool = False,
    ) -> None:
        self.host = host
        self.port = port
        self.codec = codec
        self.hello = hello
        self.on_frame = on_frame
        self.expect_hello = expect_hello
        self.connected = False
        self.closed = False
        self._buffer = bytearray()
        self._wake = asyncio.Event()
        self._task: asyncio.Task | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._peer_boot: str | None = None

    def start(self) -> None:
        """Begin connecting (idempotent; requires a running event loop)."""
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(self._run())

    def send(self, frame: Any) -> None:
        """Queue one frame (encoded now, flushed by the writer task).

        After :meth:`close` the frame is silently dropped — teardown races
        (a queued self-delivery emitting one last send) get the same
        semantics as traffic to a crashed peer, not a crash of their own.
        """
        if not self.closed:
            self.send_encoded(self.codec.encode_frame(frame))

    def send_encoded(self, data: bytes) -> None:
        """Queue one frame the caller already encoded with this link's codec
        (a broadcast encodes once and queues the same bytes on every link)."""
        if self.closed:
            return
        self._buffer += data
        self._wake.set()

    @property
    def pending_bytes(self) -> int:
        """Bytes queued but not yet handed to the socket (drain visibility)."""
        return len(self._buffer)

    async def close(self) -> None:
        """Stop reconnecting and tear the connection down."""
        self.closed = True
        self.connected = False
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except (asyncio.CancelledError, Exception):
                pass  # teardown is best-effort
            self._task = None
        self._abandon_writer()

    def _abandon_writer(self) -> None:
        writer, self._writer = self._writer, None
        if writer is not None:
            try:
                writer.close()
            except Exception:  # pragma: no cover - platform-dependent teardown
                pass

    async def _run(self) -> None:
        delay = self.RETRY_INITIAL
        while not self.closed:
            try:
                reader, writer = await asyncio.open_connection(self.host, self.port)
            except OSError:
                await asyncio.sleep(delay)
                delay = min(delay * 2, self.RETRY_MAX)
                continue
            delay = self.RETRY_INITIAL
            self._writer = writer
            if self.hello is not None:
                writer.write(self.codec.encode_frame(self.hello))
            if self.expect_hello and not await self._confirm_incarnation(reader):
                self._abandon_writer()
                await asyncio.sleep(self.RETRY_INITIAL)
                continue
            self.connected = True
            pumps = [asyncio.ensure_future(self._flush_loop(writer))]
            pumps.append(asyncio.ensure_future(self._read_loop(reader)))
            try:
                await asyncio.wait(pumps, return_when=asyncio.FIRST_COMPLETED)
            finally:
                for task in pumps:
                    task.cancel()
                await asyncio.gather(*pumps, return_exceptions=True)
                self.connected = False
                self._abandon_writer()

    async def _confirm_incarnation(self, reader: asyncio.StreamReader) -> bool:
        """Read the peer's answering hello; drop stale backlog on a new boot.

        Bytes buffered *before* this handshake belong to whatever process
        previously held the endpoint; frames queued while the handshake is
        in flight are for the confirmed peer and are kept either way.
        """
        stale = len(self._buffer)
        try:
            frame = await asyncio.wait_for(self.codec.read_frame(reader), self.HELLO_TIMEOUT)
        except (TimeoutError, asyncio.IncompleteReadError, ConnectionError, OSError, WireError):
            return False
        if not isinstance(frame, dict) or frame.get("kind") != K_HELLO:
            return False
        boot = frame.get("boot")
        if self._peer_boot is not None and boot != self._peer_boot:
            del self._buffer[:stale]
        self._peer_boot = boot
        return True

    async def _flush_loop(self, writer: asyncio.StreamWriter) -> None:
        """Coalesce the queued frames into as few writes as possible."""
        while True:
            if not self._buffer:
                self._wake.clear()
                await self._wake.wait()
                continue
            chunk = bytes(self._buffer)
            self._buffer.clear()
            try:
                writer.write(chunk)
                await writer.drain()
            except (ConnectionError, OSError):
                # Keep the unacknowledged chunk for the next connection.
                self._buffer[:0] = chunk
                return
            except BaseException:
                # Cancellation included: when the read pump sees the peer
                # half-close first, _run cancels this task mid-drain() — the
                # chunk was taken out of the buffer but never acknowledged,
                # so without re-prepending it a whole coalesced batch of
                # frames would silently vanish across the reconnect.
                # Re-delivery of a partially-written chunk is possible
                # (frames are at-least-once across reconnects; the cores are
                # idempotent), loss is not.
                self._buffer[:0] = chunk
                raise

    async def _read_loop(self, reader: asyncio.StreamReader) -> None:
        """Pump inbound frames (or just watch for EOF on write-only links)."""
        try:
            if self.on_frame is None:
                while await reader.read(65536):
                    pass  # peers never talk back on write-only links
                return
            while True:
                self.on_frame(await self.codec.read_frame(reader))
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            return
        except (WireError, ClusterError):
            # A peer speaking garbage: drop the connection and reconnect
            # rather than poisoning the dispatch path.
            return


async def request_status(host: str, port: int, codec: Codec, timeout: float = 2.0) -> dict:
    """One-shot status probe: connect, ask, read one reply, hang up.

    Raises ``OSError`` when the node is unreachable and
    :class:`ClusterError` when it answers with something that is not a
    ``status_reply`` frame.
    """

    async def _probe() -> dict:
        reader, writer = await asyncio.open_connection(host, port)
        try:
            writer.write(codec.encode_frame(status_frame()))
            await writer.drain()
            frame = await codec.read_frame(reader)
        finally:
            writer.close()
        if frame_kind(frame) != K_STATUS_REPLY:
            raise ClusterError(f"expected a status_reply frame, got {frame!r}")
        return frame

    return await asyncio.wait_for(_probe(), timeout)
