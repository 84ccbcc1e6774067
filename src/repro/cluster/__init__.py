"""Cluster service mode: the paper's RSM as real OS processes.

Everything below :mod:`repro.engine` treats the system as one process full
of sans-I/O cores; this package is the deployment layer that puts **one
core per OS process** and real TCP between them:

* :mod:`repro.cluster.spec` — :class:`ClusterSpec`, the shared config
  (named nodes, endpoints, n/f membership, wire framing);
* :mod:`repro.cluster.protocol` — the client/reply/status frame kinds
  (the peer link itself — ``hello``/``peer`` frames, the buffered
  auto-reconnecting ``FrameLink`` and the sender-stamping reader — is
  :mod:`repro.engine.wire`'s, shared with the async engine);
* :mod:`repro.cluster.runtime` — :class:`CoreHost`, the per-process sink
  of the shared effect interpreter over asyncio;
* :mod:`repro.cluster.node` — the node process (one
  :class:`~repro.rsm.replica.Replica` behind a TCP server);
* :mod:`repro.cluster.client` — the socket client, CRDT workloads and the
  sampled linearizability audit;
* :mod:`repro.cluster.supervisor` — :class:`Cluster`, spawning and
  stopping the node processes;
* :mod:`repro.cluster.cli` — the ``python -m repro cluster`` subcommands.

See ``docs/operations.md`` for the operator's manual and
``docs/architecture.md`` for where this layer sits in the stack.
"""

from __future__ import annotations

from repro.cluster.spec import ClusterError, ClusterSpec, NodeSpec, localhost_spec

__all__ = [
    "ClusterError",
    "ClusterSpec",
    "NodeSpec",
    "localhost_spec",
    "Cluster",
    "ServiceClient",
    "run_service_traffic",
]


def __getattr__(name: str):
    # The heavier deployment pieces load lazily so `import repro.cluster`
    # (and spec-only users like the node bootstrap) stay cheap.
    if name == "Cluster":
        from repro.cluster.supervisor import Cluster

        return Cluster
    if name in ("ServiceClient", "run_service_traffic"):
        from repro.cluster import client

        return getattr(client, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
