"""The cluster's socket client: real CRDT traffic plus the sampled audit.

A :class:`ServiceClient` speaks to a running cluster the only way anything
can — over TCP, one :class:`~repro.engine.wire.FrameLink` per replica
— and hosts any number of *virtual clients*, each an unmodified
:class:`~repro.rsm.client.RSMClient` core on a
:class:`~repro.cluster.runtime.CoreHost`.  The protocol logic (submit to
``f + 1`` replicas, collect ``f + 1`` decide notices, confirm reads,
timeout-escalate retries) is exactly Algorithms 5 and 6; this module only
carries the frames and keeps all virtual clients on one clock so their
operation records form a single real-time history.

**The sampled linearizability audit.**  After a traffic phase the client
feeds its own operation records to
:func:`repro.rsm.checker.check_rsm_history` — the six RSM properties whose
conjunction is the paper's linearizability theorem.  The window is
*sampled*: it covers the operations this client issued and observed, not
the cluster's entire lifetime (other clients' operations appear only
through reads, which Read Validity still bounds via the union of observed
commands).  Liveness is asserted only when the phase ran to completion;
a truncated phase (SIGTERM mid-traffic, deliberate timeout) audits the
completed prefix, which must still satisfy every safety property.

:func:`counter_workload` builds the default traffic — grow-only-counter
increments interleaved with reads — and :func:`run_service_traffic` is the
one-call form the CLI and CI smoke job use.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import time
from dataclasses import dataclass, field, replace

from repro.cluster.protocol import K_REPLY, client_frame, request_status
from repro.cluster.runtime import CoreHost
from repro.cluster.spec import ClusterError, ClusterSpec
from repro.engine.wire import FrameLink, WireError, frame_field, frame_kind, get_codec
from repro.rsm.checker import RSMCheckResult, check_rsm_history, collect_admissible_commands
from repro.rsm.client import RSMClient
from repro.rsm.crdt import GCounterObject

#: The CRDT instance name the default workload and report agree on.
COUNTER_NAME = "svc-counter"


def counter_workload(clients: int, commands: int) -> list[list[tuple]]:
    """Scripts for ``clients`` virtual clients totalling ``commands`` ops.

    Every third operation is a read, the rest are counter increments of 1;
    operations are dealt round-robin so all clients run concurrently.  The
    final operation is forced to be a read so the report can quote the
    counter value the cluster converged to.
    """
    if clients < 1:
        raise ClusterError("need at least one client")
    if commands < 1:
        raise ClusterError("need at least one command")
    counter = GCounterObject(COUNTER_NAME)
    scripts: list[list[tuple]] = [[] for _ in range(clients)]
    for index in range(commands):
        op = ("read",) if (index % 3 == 2 or index == commands - 1) else ("update", counter.op_inc(1))
        scripts[index % clients].append(op)
    return scripts


#: Per-process counter making default client-id prefixes session-unique.
_session_counter = itertools.count()


class ServiceClient:
    """K virtual RSM clients multiplexed over sockets to every replica.

    ``prefix=None`` (the default) derives a session-unique prefix from the
    OS pid and a per-process counter.  That uniqueness is load-bearing: the
    RSM model assumes long-lived clients with unique ids, and replicas
    deduplicate decide notices per ``(client, command)`` — a fresh session
    reusing an old session's client ids would restart its command sequence
    numbers, collide with already-notified commands, and never complete.
    Pass an explicit prefix only when the ids must be stable (tests).
    """

    def __init__(self, spec: ClusterSpec, clients: int = 2, prefix: str | None = None) -> None:
        if clients < 1:
            raise ClusterError("need at least one client")
        if prefix is None:
            prefix = f"client-{os.getpid():x}.{next(_session_counter)}-"
        self.spec = spec
        self.codec = get_codec(spec.framing)
        members = spec.member_names()
        self.client_ids = [f"{prefix}{index}" for index in range(clients)]
        overlap = set(self.client_ids) & set(members)
        if overlap:
            raise ClusterError(f"client ids collide with node names: {sorted(overlap)}")
        self._links: dict[str, FrameLink] = {}
        self._origin = time.monotonic()
        self.hosts: dict[str, CoreHost] = {}
        for client_id in self.client_ids:
            core = RSMClient(client_id, members, spec.f, script=(), retry_timeout=spec.client_retry)
            self.hosts[client_id] = CoreHost(
                core,
                send=lambda dest, payload, cid=client_id: self._send(cid, dest, payload),
                time_scale=spec.time_scale,
                clock_origin=self._origin,
            )

    # -- lifecycle --------------------------------------------------------------------

    async def __aenter__(self) -> ServiceClient:
        self.open()
        return self

    async def __aexit__(self, *_exc) -> None:
        await self.close()

    def open(self) -> None:
        """Dial every replica and start the virtual client cores."""
        for node in self.spec.nodes:
            link = FrameLink(node.host, node.port, self.codec, on_frame=self._dispatch)
            link.start()
            self._links[node.name] = link
        for host in self.hosts.values():
            host.start()

    async def close(self) -> None:
        for link in self._links.values():
            await link.close()
        self._links.clear()

    # -- frame plumbing ---------------------------------------------------------------

    def _send(self, client_id: str, dest, payload) -> None:
        try:
            link = self._links[dest]
        except KeyError:
            raise ClusterError(f"client {client_id!r} has no link to {dest!r}") from None
        link.send(client_frame(client_id, payload))

    def _dispatch(self, frame) -> None:
        if frame_kind(frame) != K_REPLY:
            return  # only replies flow client-ward; ignore anything else
        host = self.hosts.get(frame_field(frame, "client"))
        if host is not None:
            host.deliver(frame_field(frame, "sender"), frame_field(frame, "payload"))

    # -- traffic ----------------------------------------------------------------------

    def submit(self, scripts: list[list[tuple]]) -> int:
        """Append one script per virtual client (service-mode phased work).

        Returns the number of operations submitted.  ``scripts`` shorter
        than the client list leaves the remaining clients idle.
        """
        if len(scripts) > len(self.client_ids):
            raise ClusterError(
                f"{len(scripts)} scripts for {len(self.client_ids)} virtual clients"
            )
        total = 0
        for client_id, ops in zip(self.client_ids, scripts):
            host = self.hosts[client_id]
            core: RSMClient = host.core
            host.call(lambda ops=ops, core=core: core.submit_operations(ops))
            total += len(ops)
        return total

    async def wait_all(self, timeout: float) -> bool:
        """Wait until every submitted operation completed (or timeout)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if all(host.core.all_completed for host in self.hosts.values()):
                return True
            await asyncio.sleep(0.005)
        return all(host.core.all_completed for host in self.hosts.values())

    # -- results ----------------------------------------------------------------------

    def histories(self) -> list[list]:
        """Operation records of every virtual client (audit input)."""
        return [host.core.history for host in self.hosts.values()]

    @property
    def completed_count(self) -> int:
        return sum(len(host.core.completed_operations()) for host in self.hosts.values())

    @property
    def retries(self) -> int:
        return sum(host.core.retries for host in self.hosts.values())

    def counter_value(self) -> int | None:
        """The counter value of the largest completed read, if any."""
        counter = GCounterObject(COUNTER_NAME)
        best: int | None = None
        for host in self.hosts.values():
            for record in host.core.completed_operations():
                if record.kind == "read" and record.result is not None:
                    value = counter.value(record.result)
                    best = value if best is None else max(best, value)
        return best

    def audit(self, require_liveness: bool) -> RSMCheckResult:
        """Run the sampled linearizability audit over this client's window.

        The cluster may be serving other sessions (earlier traffic phases,
        concurrent operators), whose commands legitimately appear in this
        session's read results but are unknown to this checker.  Reads are
        therefore *projected* onto the session's own commands first.  The
        projection is sound: it preserves subset order, so any
        comparability, monotonicity or visibility violation detected on the
        projected sets implies a violation on the originals — foreign
        commands can hide nothing, they can only be irrelevant.
        """
        own_clients = set(self.client_ids)
        histories = [
            [
                replace(
                    record,
                    result=frozenset(c for c in record.result if c.client in own_clients),
                )
                if record.result is not None
                else record
                for record in history
            ]
            for history in self.histories()
        ]
        admissible = collect_admissible_commands([], histories)
        return check_rsm_history(
            histories, admissible_commands=admissible, require_liveness=require_liveness
        )


# -- the one-call traffic phase ------------------------------------------------------


@dataclass
class ClientReport:
    """Outcome of one traffic phase against a running cluster."""

    clients: int
    submitted: int
    completed: int
    retries: int
    wall_s: float
    counter_value: int | None
    audit: RSMCheckResult | None = None
    violations: dict = field(default_factory=dict)

    @property
    def all_completed(self) -> bool:
        return self.completed == self.submitted

    @property
    def ok(self) -> bool:
        """Every operation completed and the audited window is clean."""
        return self.all_completed and (self.audit is None or self.audit.ok)

    def summary(self) -> str:
        lines = [
            f"clients: {self.clients}  operations: {self.completed}/{self.submitted} completed"
            f"  retries: {self.retries}  wall: {self.wall_s:.2f}s",
            f"counter value: {self.counter_value if self.counter_value is not None else '-'}",
        ]
        if self.audit is None:
            lines.append("audit: skipped")
        elif self.audit.ok:
            lines.append("audit: ok (six RSM properties over the sampled window)")
        else:
            lines.append(f"audit: FAILED {self.audit}")
        return "\n".join(lines)


async def run_service_traffic(
    spec: ClusterSpec,
    commands: int = 20,
    clients: int = 2,
    timeout: float = 30.0,
    audit: bool = True,
) -> ClientReport:
    """Run one counter workload against a live cluster and audit the window."""
    started = time.monotonic()
    async with ServiceClient(spec, clients=clients) as service:
        submitted = service.submit(counter_workload(clients, commands))
        finished = await service.wait_all(timeout)
        report = ClientReport(
            clients=clients,
            submitted=submitted,
            completed=service.completed_count,
            retries=service.retries,
            wall_s=time.monotonic() - started,
            counter_value=service.counter_value(),
            audit=service.audit(require_liveness=finished) if audit else None,
        )
    if report.audit is not None:
        report.violations = dict(report.audit.violations)
    return report


# -- status probes -------------------------------------------------------------------


async def probe_cluster(spec: ClusterSpec, timeout: float = 2.0) -> dict[str, dict | None]:
    """Status of every node (``None`` for unreachable ones), by name."""
    codec = get_codec(spec.framing)

    async def probe(node) -> dict | None:
        try:
            return await request_status(node.host, node.port, codec, timeout)
        except (OSError, ClusterError, WireError, asyncio.TimeoutError):
            return None

    results = await asyncio.gather(*(probe(node) for node in spec.nodes))
    return {node.name: status for node, status in zip(spec.nodes, results)}


def probe_cluster_sync(spec: ClusterSpec, timeout: float = 2.0) -> dict[str, dict | None]:
    """Blocking form of :func:`probe_cluster` (supervisor/CLI convenience)."""
    return asyncio.run(probe_cluster(spec, timeout))
