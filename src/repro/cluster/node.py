"""One cluster node: an RSM replica running as its own OS process.

``python -m repro cluster node --spec <file> --name <node>`` runs exactly
this module: it binds the node's configured TCP endpoint, dials a
persistent :class:`~repro.engine.wire.FrameLink` to every peer in the
spec's static seed list (connect-with-backoff, so start order never
matters), and hosts one :class:`~repro.rsm.replica.Replica` core on a
:class:`~repro.cluster.runtime.CoreHost`.  Everything the replica *does*
is still the sans-I/O effect vocabulary — this module only moves frames.

Lifecycle:

* **bind failure is loud** — a port already in use prints a recognizable
  one-line error to stderr and exits non-zero immediately; the supervisor
  turns that into a bootstrap failure instead of a hang.
* **readiness** — a node reports ``ready`` once its server is bound and
  every outbound peer link is connected; ``status`` frames answer the
  probe at any time (see ``docs/operations.md`` for the fields).
* **client replies survive reconnects** — replies to a client whose
  connection is gone are buffered per client id and flushed the moment a
  connection re-registers that id (every ``client`` frame registers its
  connection), so a retrying client never loses a ``DecideNotice`` to a
  dropped socket.  The Replica core deduplicates notices per
  ``(client, command)``, which makes this buffering load-bearing.
* **torn handshakes stay local** — a connection that sends garbage (wire
  errors, unknown frame kinds, missing fields) is dropped with a stderr
  note; the server and every other connection keep running.
* **a connection speaks for one peer** — ``peer`` frames carry no sender;
  the node stamps the one the connection's ``hello`` named, which must be a
  peer from the seed list and must come first.  Breaking either rule drops
  that connection the same way.
* **each value is paid for once** — a ``Broadcast`` effect is one
  ``encode_frame`` whose bytes go on every peer link, and a ``peer`` body
  this node decoded a moment ago (the echo three peers relay) is looked up
  in the :class:`~repro.engine.wire.FrameTable` instead of parsed.
* **SIGTERM drains** — on SIGTERM/SIGINT the node keeps processing until
  its sockets have been quiet for ``spec.drain_idle_s`` seconds (in-flight
  decisions complete and their notices flush) or ``spec.drain_max_s``
  elapses, then exits 0.  That is what makes a cluster-wide shutdown leave
  every completed client operation with a clean, auditable history.
"""

from __future__ import annotations

import asyncio
import faulthandler
import os
import signal
import sys
import time

from repro.cluster.protocol import K_CLIENT, K_STATUS, K_STATUS_REPLY, reply_frame
from repro.cluster.runtime import CoreHost
from repro.cluster.spec import ClusterError, ClusterSpec
from repro.engine.wire import (
    K_HELLO,
    FrameLink,
    FrameTable,
    WireError,
    frame_field,
    get_codec,
    hello_frame,
    peer_frame,
    read_peer_frames,
)
from repro.rsm.replica import Replica


class NodeServer:
    """The asyncio server wrapping one Replica core."""

    def __init__(self, spec: ClusterSpec, name: str) -> None:
        self.spec = spec
        self.me = spec.node(name)
        self.codec = get_codec(spec.framing)
        self.core = Replica(name, spec.member_names(), spec.f, max_rounds=spec.max_rounds)
        self.host = CoreHost(
            self.core,
            send=self._route,
            broadcast=self._broadcast,
            time_scale=spec.time_scale,
        )
        #: Outbound links to every peer, by node name.
        self.peers: dict[str, FrameLink] = {}
        #: Decoded peer frames by body, shared by every inbound connection.
        self.frames = FrameTable()
        #: Peer frames delivered to the core (``status``: with the table's
        #: hits, the share of them that skipped the parse).
        self.peer_frames_in = 0
        #: Peers whose hello we have seen on an inbound connection.
        self.inbound_peers: set[str] = set()
        #: Client id -> the connection to reply on (None after a disconnect).
        self.clients: dict[str, asyncio.StreamWriter | None] = {}
        #: Encoded reply frames waiting for a client to (re)connect.
        self._client_backlog: dict[str, list[bytes]] = {}
        self._server: asyncio.Server | None = None
        self._stopping = asyncio.Event()
        self._started = time.monotonic()
        self._last_activity = time.monotonic()
        #: Incarnation token answered to peer hellos: a restarted node gets
        #: a new one, so peers drop the dead incarnation's buffered traffic.
        self._boot = f"{os.getpid()}.{self._started:.6f}"

    # -- the process entry point -----------------------------------------------------

    async def run(self) -> int:
        """Serve until SIGTERM/SIGINT, then drain; the process exit code."""
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, self._stopping.set)
        watchdog = self._start_supervisor_watchdog(loop)
        try:
            self._server = await asyncio.start_server(
                self._serve_connection, self.me.host, self.me.port
            )
        except OSError as failure:
            print(
                f"cluster node {self.me.name}: cannot listen on {self.me.endpoint}: {failure}",
                file=sys.stderr,
                flush=True,
            )
            return 1
        for node in self.spec.nodes:
            if node.name == self.me.name:
                continue
            link = FrameLink(
                node.host,
                node.port,
                self.codec,
                hello=hello_frame(self.me.name, boot=self._boot),
                expect_hello=True,
            )
            link.start()
            self.peers[node.name] = link
        self.host.start()
        print(
            f"cluster node {self.me.name}: pid {os.getpid()} listening on {self.me.endpoint}",
            flush=True,
        )
        try:
            await self._stopping.wait()
            return await self._drain()
        finally:
            if watchdog is not None:
                watchdog.cancel()
            self._server.close()
            await self._server.wait_closed()
            for link in self.peers.values():
                await link.close()

    def _start_supervisor_watchdog(self, loop: asyncio.AbstractEventLoop) -> asyncio.Task | None:
        """Shut down if the supervising process dies without SIGTERMing us.

        The supervisor cannot intercept its own SIGKILL, so a hard-killed
        ``cluster up`` would otherwise orphan every node process.  The
        supervisor passes its pid in ``REPRO_CLUSTER_SUPERVISOR_PID``; when
        that pid stops existing, the node drains and exits on its own.
        """
        raw = os.environ.get("REPRO_CLUSTER_SUPERVISOR_PID")
        if not raw or not raw.isdigit():
            return None
        supervisor = int(raw)

        async def watch() -> None:
            while True:
                await asyncio.sleep(0.5)
                try:
                    os.kill(supervisor, 0)
                except (OSError, ProcessLookupError):
                    print(
                        f"cluster node {self.me.name}: supervisor pid {supervisor} is gone, "
                        "shutting down",
                        file=sys.stderr,
                        flush=True,
                    )
                    self._stopping.set()
                    return

        return loop.create_task(watch())

    @property
    def ready(self) -> bool:
        """Bound and connected to every peer in the seed list."""
        return self._server is not None and all(link.connected for link in self.peers.values())

    # -- effect routing (CoreHost -> sockets) -----------------------------------------

    def _route(self, dest, payload) -> None:
        self._last_activity = time.monotonic()
        link = self.peers.get(dest)
        if link is not None:
            link.send(peer_frame(payload))
            return
        # Anything that is not a member is a client the replica heard from.
        data = self.codec.encode_frame(reply_frame(dest, self.me.name, payload))
        writer = self.clients.get(dest)
        if writer is not None and not writer.is_closing():
            writer.write(data)
        else:
            self._client_backlog.setdefault(dest, []).append(data)

    def _broadcast(self, dests, payload) -> None:
        """One ``Broadcast`` effect: encode once, queue the bytes on every link."""
        self._last_activity = time.monotonic()
        data = self.codec.encode_frame(peer_frame(payload))
        for dest in dests:
            self.peers[dest].send_encoded(data)

    # -- inbound connections (peers, clients, probes) ---------------------------------

    async def _serve_connection(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        """One inbound connection: the shared peer-frame reader, plus the
        frames only a node serves — its answer to a ``hello`` (with our
        incarnation token, so the dialing link can tell a restarted process
        from a reconnect), ``client`` requests and ``status`` probes."""
        controls = {
            K_HELLO: lambda frame: self._answer_hello(frame, writer),
            K_CLIENT: lambda frame: self._handle_client_frame(frame, writer),
            K_STATUS: lambda _frame: writer.write(self.codec.encode_frame(self.status())),
        }
        try:
            await read_peer_frames(
                reader, self.codec, self.frames, self.me.name, self.core.members, self._deliver_peer, controls
            )
        except (WireError, ClusterError) as failure:
            # A torn or foreign handshake: drop this connection, keep serving.
            print(
                f"cluster node {self.me.name}: dropping connection: {failure}",
                file=sys.stderr,
                flush=True,
            )
        except (ConnectionError, OSError, asyncio.CancelledError):
            # A reset, or loop teardown after drain: exit cleanly instead of
            # letting the cancellation surface through the stream callback.
            pass
        finally:
            for client, registered in list(self.clients.items()):
                if registered is writer:
                    self.clients[client] = None
            writer.close()

    def _answer_hello(self, frame: dict, writer: asyncio.StreamWriter) -> None:
        self.inbound_peers.add(frame["node"])
        writer.write(self.codec.encode_frame(hello_frame(self.me.name, boot=self._boot)))

    def _deliver_peer(self, sender: str, frame: dict) -> None:
        self._last_activity = time.monotonic()
        self.peer_frames_in += 1
        self.host.deliver(sender, frame["payload"])

    def _handle_client_frame(self, frame: dict, writer: asyncio.StreamWriter) -> None:
        self._last_activity = time.monotonic()
        client = frame_field(frame, "client")
        if self.clients.get(client) is not writer:
            # (Re)registration: this connection is now the reply channel.
            self.clients[client] = writer
            for data in self._client_backlog.pop(client, []):
                writer.write(data)
        self.host.deliver(client, frame_field(frame, "payload"))

    # -- observability ----------------------------------------------------------------

    def status(self) -> dict:
        """The ``status_reply`` frame body (see docs/operations.md)."""
        return {
            "kind": K_STATUS_REPLY,
            "node": self.me.name,
            "pid": os.getpid(),
            "ready": self.ready,
            "draining": self._stopping.is_set(),
            "state": self.core.state,
            "round": self.core.round,
            "decisions": len(self.core.decisions),
            "admitted": len(self.core.admitted_commands),
            "peers_out": {name: link.connected for name, link in self.peers.items()},
            "peers_in": sorted(self.inbound_peers),
            "clients": sorted(
                client for client, writer in self.clients.items() if writer is not None
            ),
            "peer_frames_in": self.peer_frames_in,
            "frame_table_hits": self.frames.hits,
            "uptime_s": round(time.monotonic() - self._started, 3),
        }

    # -- graceful shutdown ------------------------------------------------------------

    async def _drain(self) -> int:
        """Keep serving until in-flight work settles, then exit cleanly.

        "Quiet" means no frame has arrived or been routed for
        ``drain_idle_s`` seconds *and* every peer link's buffer is flushed;
        ``drain_max_s`` bounds the wait so a wedged peer cannot hold the
        process hostage.
        """
        deadline = time.monotonic() + self.spec.drain_max_s
        while time.monotonic() < deadline:
            quiet_for = time.monotonic() - self._last_activity
            backlogged = any(link.pending_bytes for link in self.peers.values())
            if not backlogged and quiet_for >= self.spec.drain_idle_s:
                break
            await asyncio.sleep(0.02)
        print(f"cluster node {self.me.name}: drained, exiting", flush=True)
        return 0


def run_node(spec: ClusterSpec, name: str) -> int:
    """Blocking entry point for the node process; returns its exit code."""
    # Operational escape hatch: `kill -USR1 <node pid>` dumps every thread's
    # Python stack to stderr (the node's log file) without stopping it.
    faulthandler.register(signal.SIGUSR1, all_threads=True)
    code = asyncio.run(NodeServer(spec, name).run())
    # Closing the loop restored the default handlers.  A node drains in
    # about ``drain_idle_s``, so a second SIGTERM or SIGINT (the
    # supervisor's, after a process-group signal started the drain) can
    # arrive while this process exits; it must not turn the exit into a kill.
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, signal.SIG_IGN)
    return code
