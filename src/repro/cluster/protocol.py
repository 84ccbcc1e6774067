"""The cluster's socket protocol: the frame kinds beyond the peer link.

Every byte on a cluster socket is one length-prefixed frame in the spec's
framing (:mod:`repro.engine.wire` — the same ``json`` / ``binary`` codecs
the in-process :class:`~repro.engine.async_backend.AsyncEngine` TCP
transport speaks).  A frame's payload is a plain dict whose ``"kind"`` key
discriminates:

``hello`` / ``peer``
    The peer link, shared with the async engine's tcp transport and defined
    beside the codecs in :mod:`repro.engine.wire` (with :class:`~repro.
    engine.wire.FrameLink`, :class:`~repro.engine.wire.FrameTable` and the
    reader :func:`~repro.engine.wire.read_peer_frames`).  A ``hello`` is the
    first frame on a node's outbound peer link and names the sender; the
    receiving node checks that the name is one of its peers and from then
    on stamps it on every ``peer`` frame of that connection (the paper's
    authenticated channels), and accounts for inbound connectivity in
    ``status``.  The node answers with its own hello carrying a ``boot``
    incarnation token, which lets the dialing link detect a restarted peer.
    A ``peer`` frame carries one GWTS/reliable-broadcast message and no
    sender, so a broadcast is encoded once for every peer, and an echo
    relayed by three peers arrives as three identical bodies.
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
dict — raises :class:`~repro.engine.wire.ProtocolError`: a torn or foreign
handshake drops that one connection loudly and leaves the node serving.
The cluster client rides the same :class:`~repro.engine.wire.FrameLink`
as the nodes, with a reader pumping ``reply`` frames off it.
"""

from __future__ import annotations

import asyncio
from typing import Any

from repro.cluster.spec import ClusterError
from repro.engine.wire import Codec, frame_kind

# -- frame vocabulary ------------------------------------------------------------------

K_CLIENT = "client"
K_REPLY = "reply"
K_STATUS = "status"
K_STATUS_REPLY = "status_reply"


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


async def request_status(host: str, port: int, codec: Codec, timeout: float = 2.0) -> dict:
    """One-shot status probe: connect, ask, read one reply, hang up.

    Raises ``OSError`` when the node is unreachable, and
    :class:`ClusterError` (or :class:`~repro.engine.wire.WireError` for a
    frame that is not one) when it answers with something that is not a
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
