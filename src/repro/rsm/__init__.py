"""Byzantine-tolerant Replicated State Machine for commutative updates.

Section 7 of the paper: the RSM is built by running Generalized Lattice
Agreement (GWTS) over the power set of update commands.  Replicas play both
GWTS roles; clients interact through two operations:

* ``update(cmd)`` (Algorithm 5) — submit ``cmd`` to ``f + 1`` replicas and
  wait for ``f + 1`` decision notifications that include it;
* ``read()`` (Algorithm 6) — submit a unique ``nop``, collect ``f + 1``
  decision notifications, then *confirm* one of the returned decision values
  with ``f + 1`` replicas (Algorithm 7's plug-in) and return it.

The construction is wait-free, linearizable for commutative updates
(Theorem 6) and tolerates any number of Byzantine **clients** (Lemma 12) on
top of the ``f <= (n - 1)/3`` Byzantine replicas.

The package also provides a CRDT object layer (grow-only set, counters,
last-writer-wins register map) that interprets the command sets the RSM
stores, and a checker for the six RSM properties of Section 7.1.
"""

from repro.rsm.checker import RSMCheckResult, check_rsm_history
from repro.rsm.client import ByzantineClient, OperationRecord, RSMClient
from repro.rsm.commands import Command, make_command, nop_command
from repro.rsm.crdt import (
    GCounterObject,
    GSetObject,
    LWWRegisterObject,
    ORSetObject,
    PNCounterObject,
    ReplicatedObject,
)
from repro.rsm.replica import ConfirmReply, ConfirmRequest, DecideNotice, Replica, UpdateRequest
from repro.rsm.sharding import (
    ShardedRSMClient,
    join_map_shards,
    partition_replicas,
    project_map,
    routing_key,
    shard_of,
    shard_of_operation,
)

__all__ = [
    "ShardedRSMClient",
    "join_map_shards",
    "partition_replicas",
    "project_map",
    "routing_key",
    "shard_of",
    "shard_of_operation",
    "Command",
    "nop_command",
    "make_command",
    "Replica",
    "UpdateRequest",
    "DecideNotice",
    "ConfirmRequest",
    "ConfirmReply",
    "RSMClient",
    "OperationRecord",
    "ByzantineClient",
    "ReplicatedObject",
    "GSetObject",
    "GCounterObject",
    "PNCounterObject",
    "LWWRegisterObject",
    "ORSetObject",
    "check_rsm_history",
    "RSMCheckResult",
]
