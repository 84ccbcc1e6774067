"""Shard router and cross-shard read path for the sharded RSM data plane.

The paper's RSM is wait-free for *commutative* updates — which is exactly
the license to shard.  Key-space shards of a :class:`~repro.lattice
.map_lattice.MapLattice` are independent lattice instances: an update to
key ``k`` only ever grows shard ``shard_of(k)``'s sub-map, so running one
GWTS replica group per shard needs **no cross-shard coordination**.  The
pieces here:

* :func:`shard_of` — a stable, total routing hash.  Every key routes to
  exactly one shard, and the hash is ``zlib.crc32`` of the key's ``repr``
  (never the builtin ``hash``) so routing is identical across processes
  and ``PYTHONHASHSEED`` values — the orchestrator's byte-identical
  artifacts depend on that.
* :func:`routing_key` / :func:`shard_of_operation` — commands route by the
  replicated *object* they touch: an operation shaped ``(obj, ...)``
  routes by ``obj``, anything else routes by the whole payload.
* :func:`project_map` / :func:`join_map_shards` — the shard projection of
  a map element and its inverse.  Projection preserves the lattice order
  (it drops entries, never changes them), so the join of per-shard views
  of states ``m_1 ... m_S`` equals the view of ``m_1 ⊔ ... ⊔ m_S`` — the
  soundness argument for the cross-shard read path (same argument as the
  PR 7 linearizability audit's projection step).
* :class:`ShardedRSMClient` — one sans-I/O core multiplexing per-shard
  :class:`~repro.rsm.client.RSMClient` instances over the host engine:
  updates hash to one shard's replica group, a read fans out to *every*
  shard and returns the join of the per-shard confirmed views.
"""

from __future__ import annotations

import zlib
from collections.abc import Hashable, Sequence
from typing import Any

from repro.engine.core import ProtocolCore
from repro.lattice.base import JoinSemilattice, LatticeElement
from repro.rsm.client import OperationRecord, RSMClient
from repro.rsm.commands import Command, nop_command

__all__ = [
    "ShardedRSMClient",
    "join_map_shards",
    "partition_replicas",
    "project_map",
    "routing_key",
    "shard_of",
    "shard_of_operation",
]


def shard_of(key: Any, shards: int) -> int:
    """Route ``key`` to one of ``shards`` shards — stable, total, hash-seed-free.

    Uses ``crc32(repr(key))``: deterministic across interpreter runs and
    worker processes (the builtin ``hash`` is salted by ``PYTHONHASHSEED``
    and would shatter the orchestrator's byte-identical artifacts).
    """
    if shards < 1:
        raise ValueError("shards must be at least 1")
    return zlib.crc32(repr(key).encode("utf-8", "backslashreplace")) % shards


def routing_key(operation: Any) -> Any:
    """The routing key of an operation payload.

    Operations shaped ``(obj, ...)`` (the :class:`~repro.lattice.map_lattice
    .MapLattice` convention: first element names the replicated object)
    route by ``obj``; any other payload routes by its own value.
    """
    if isinstance(operation, tuple) and operation:
        return operation[0]
    return operation


def shard_of_operation(operation: Any, shards: int) -> int:
    """Shard index an update operation routes to."""
    return shard_of(routing_key(operation), shards)


def partition_replicas(
    replicas: Sequence[Hashable], shards: int
) -> tuple[tuple[Hashable, ...], ...]:
    """Split a flat replica pid list into ``shards`` contiguous groups.

    Every group must keep at least one pid; the first ``len % shards``
    groups take the extra members.
    """
    if shards < 1:
        raise ValueError("shards must be at least 1")
    if len(replicas) < shards:
        raise ValueError(f"cannot split {len(replicas)} replicas into {shards} shards")
    base, extra = divmod(len(replicas), shards)
    groups = []
    start = 0
    for index in range(shards):
        size = base + (1 if index < extra else 0)
        groups.append(tuple(replicas[start : start + size]))
        start += size
    return tuple(groups)


# -- map-lattice shard projection ------------------------------------------------


def project_map(element: LatticeElement, shard: int, shards: int) -> LatticeElement:
    """The sub-map of ``element`` whose keys route to ``shard``.

    Projection drops entries and never alters the kept ones, so it is
    monotone: ``m1 <= m2`` implies ``project(m1) <= project(m2)``.
    """
    return tuple(
        entry for entry in element if shard_of(entry[0], shards) == shard
    )


def join_map_shards(
    lattice: JoinSemilattice, parts: Sequence[LatticeElement]
) -> LatticeElement:
    """Reassemble per-shard map views into one global view (their join)."""
    return lattice.join_all(parts)


# -- the sharded client ----------------------------------------------------------


class ShardedRSMClient(ProtocolCore):
    """A client core multiplexing one :class:`RSMClient` per shard.

    Parameters
    ----------
    pid:
        Client identifier (shared by every inner per-shard client — command
        uniqueness still holds because each inner client numbers its own
        command sequence and commands of different shards never meet in one
        lattice instance).
    shard_replicas:
        Per-shard replica memberships: ``shard_replicas[s]`` is the replica
        group of shard ``s``.
    f:
        Resilience threshold *per shard group*.
    script:
        Operations: ``("update", payload)`` routes to one shard by
        :func:`shard_of_operation`; ``("read",)`` fans out to every shard
        and completes with the join of the per-shard confirmed views.
    retry_timeout / pipeline:
        Forwarded to every inner client (per-shard retry timers carry a
        shard-specific tag so the host can demultiplex timer firings).

    Updates to different shards are dispatched eagerly (they are
    independent by construction); a read is a global barrier — it starts
    only once every shard drained and nothing starts behind it, preserving
    the real-time anchor of Algorithm 6.
    """

    def __init__(
        self,
        pid: Hashable,
        shard_replicas: Sequence[Sequence[Hashable]],
        f: int,
        script: Sequence[tuple[Any, ...]] = (),
        retry_timeout: float | None = 150.0,
        pipeline: int = 1,
    ) -> None:
        super().__init__(pid)
        if not shard_replicas:
            raise ValueError("need at least one shard")
        self.shards = len(shard_replicas)
        self.f = f
        self.script: list[tuple[Any, ...]] = list(script)
        #: Completed cross-shard reads (joined views), in invocation order.
        self.reads: list[OperationRecord] = []
        self._replica_shard: dict[Hashable, int] = {}
        self._clients: list[RSMClient] = []
        for shard, replicas in enumerate(shard_replicas):
            inner = RSMClient(
                pid,
                replicas,
                f,
                script=(),
                retry_timeout=retry_timeout,
                pipeline=pipeline,
            )
            # Instance attribute shadows the class tag: per-shard retry
            # timers stay demultiplexable at the host.
            inner.RETRY_TAG = f"{RSMClient.RETRY_TAG}/s{shard}"
            # The inner cores share the host's effect buffer, so their sends
            # and timers flow out under the host's (authenticated) identity.
            inner._out = self._out
            self._clients.append(inner)
            for replica in replicas:
                if replica in self._replica_shard:
                    raise ValueError(f"replica {replica!r} appears in two shards")
                self._replica_shard[replica] = shard
        self._read_active = False
        self._read_seq = 0
        self._read_start = 0.0

    # -- introspection ----------------------------------------------------------

    @property
    def clients(self) -> tuple[RSMClient, ...]:
        """The per-shard inner clients (index = shard)."""
        return tuple(self._clients)

    @property
    def all_completed(self) -> bool:
        """Whether every scripted operation (on every shard) completed."""
        return (
            not self.script
            and not self._read_active
            and all(client.all_completed for client in self._clients)
        )

    @property
    def retries(self) -> int:
        """Total timeout-driven retries across every shard."""
        return sum(client.retries for client in self._clients)

    def completed_updates(self) -> int:
        """Completed update operations summed over every shard."""
        return sum(
            1
            for client in self._clients
            for record in client.history
            if record.kind == "update" and record.completed
        )

    # -- script driving ----------------------------------------------------------

    def on_start(self) -> None:
        for client in self._clients:
            client.now = self.now
            client.on_start()
        self._pump()

    def submit_operations(self, operations: Sequence[tuple[Any, ...]]) -> None:
        """Append operations to the script, dispatching what can start now."""
        self.script.extend(operations)
        self._pump()

    def _pump(self) -> None:
        """Dispatch script operations: updates eagerly, reads as barriers."""
        while self.script:
            kind = self.script[0][0]
            if kind == "update":
                _, payload = self.script.pop(0)
                shard = shard_of_operation(payload, self.shards)
                inner = self._clients[shard]
                inner.now = self.now
                inner.submit_operations([("update", payload)])
            elif kind == "read":
                if self._read_active or not all(
                    client.all_completed for client in self._clients
                ):
                    return  # barrier: every shard must drain first
                self.script.pop(0)
                self._read_active = True
                self._read_seq += 1
                self._read_start = self.now
                for inner in self._clients:
                    inner.now = self.now
                    inner.submit_operations([("read",)])
                return  # nothing starts behind an in-flight read
            else:
                raise ValueError(f"unknown operation kind {kind!r}")

    def _after_event(self) -> None:
        """Settle a completed cross-shard read, then refill the pipeline."""
        if self._read_active and all(
            client.all_completed for client in self._clients
        ):
            joined: frozenset[Command] = frozenset()
            for client in self._clients:
                result = client.history[-1].result
                if result:
                    joined |= result
            record = OperationRecord(
                client=self.pid,
                kind="read",
                command=nop_command(self.pid, self._read_seq),
                start_time=self._read_start,
                end_time=self.now,
                result=joined,
            )
            self.reads.append(record)
            self._read_active = False
            self.output(
                "cross_shard_read",
                {"seq": self._read_seq, "commands": len(joined)},
            )
        self._pump()

    # -- event demultiplexing ----------------------------------------------------

    def on_message(self, sender: Hashable, payload: Any) -> None:
        shard = self._replica_shard.get(sender)
        if shard is None:
            return  # not one of our replicas
        inner = self._clients[shard]
        inner.now = self.now
        inner.on_message(sender, payload)
        self._after_event()

    def on_timer(self, tag: str, payload: Any = None) -> None:
        for inner in self._clients:
            if tag == inner.RETRY_TAG:
                inner.now = self.now
                inner.on_timer(tag, payload)
                self._after_event()
                return
