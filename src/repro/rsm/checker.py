"""Checker for the RSM properties of Section 7.1.

Given the operation histories of the *correct* clients (each operation with
its invocation time, completion time and, for reads, the returned command
set), :func:`check_rsm_history` verifies:

* **Liveness** — every operation completed (optional, for truncated runs);
* **Read Validity** — every read returns a set of genuinely submitted
  commands (no fabricated commands ever surface to a reader);
* **Read Consistency** — any two read values are comparable (inclusion);
* **Read Monotonicity** — a read that starts after another completed returns
  a superset;
* **Update Stability** — if update ``u1`` completed before ``u2`` was
  invoked, every read containing ``u2``'s command also contains ``u1``'s;
* **Update Visibility** — if an update completed before a read started, the
  read's value contains its command.

These six properties are exactly the paper's specification; together with
commutativity of updates they give linearizability (Theorem 6).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import Any

from repro.core.spec import LACheckResult
from repro.rsm.client import OperationRecord
from repro.rsm.commands import Command


def collect_admissible_commands(
    replica_nodes: Iterable[Any],
    histories: Iterable[Sequence[OperationRecord]],
) -> set[Command]:
    """The ground truth for Read Validity: everything genuinely submitted.

    Read Validity allows any command that actually entered the RSM —
    including well-formed commands from Byzantine clients (the specification
    bounds *what* can be read, not *who* may write).  The correct replicas'
    admission logs provide that set; the correct clients' own histories are
    unioned in so a command whose admission log entry lives only on a
    crashed-then-recovered replica is still recognized.
    """
    admissible: set[Command] = {
        command
        for node in replica_nodes
        for command in getattr(node, "admitted_commands", [])
    }
    admissible |= {record.command for history in histories for record in history}
    return admissible


class RSMCheckResult(LACheckResult):
    """Outcome of the RSM property check."""


def check_rsm_history(
    histories: Iterable[Sequence[OperationRecord]],
    admissible_commands: set[Command] | None = None,
    require_liveness: bool = True,
) -> RSMCheckResult:
    """Check the six RSM properties over correct clients' operation records."""
    result = RSMCheckResult(ok=True)
    operations: list[OperationRecord] = [
        record for history in histories for record in history
    ]

    # Liveness.
    if require_liveness:
        for record in operations:
            if not record.completed:
                result.add(
                    "liveness",
                    f"{record.kind} #{record.command.seq} of client {record.client!r} never completed",
                )

    completed = [record for record in operations if record.completed]
    reads = [r for r in completed if r.kind == "read" and r.result is not None]
    updates = [r for r in completed if r.kind == "update"]

    # Read Validity: only genuinely submitted commands (plus read nops) may
    # appear in read results.
    if admissible_commands is not None:
        allowed = set(admissible_commands)
        for read in reads:
            for command in read.result:
                if isinstance(command, Command) and command.is_nop:
                    continue
                if command not in allowed:
                    result.add(
                        "read_validity",
                        f"read of {read.client!r} returned unknown command {command!r}",
                    )

    # Read Consistency: pairwise comparability of read values.
    for i, first in enumerate(reads):
        for second in reads[i + 1 :]:
            a, b = first.result, second.result
            if not (a <= b or b <= a):
                result.add(
                    "read_consistency",
                    f"incomparable reads by {first.client!r} and {second.client!r}",
                )

    # Read Monotonicity: real-time ordered reads return growing values.
    for first in reads:
        for second in reads:
            if first is second:
                continue
            if first.end_time is not None and second.start_time >= first.end_time:
                if not (first.result <= second.result):
                    result.add(
                        "read_monotonicity",
                        f"read by {second.client!r} at {second.start_time:.2f} lost commands "
                        f"seen by the read of {first.client!r} completed at {first.end_time:.2f}",
                    )

    # Update Stability: u1 completed before u2 invoked => any read containing
    # u2 also contains u1.
    for u1 in updates:
        for u2 in updates:
            if u1 is u2 or u1.end_time is None:
                continue
            if u2.start_time >= u1.end_time:
                for read in reads:
                    if u2.command in read.result and u1.command not in read.result:
                        result.add(
                            "update_stability",
                            f"read by {read.client!r} contains later update {u2.command!r} "
                            f"but not earlier update {u1.command!r}",
                        )

    # Update Visibility: an update completed before a read started must be
    # visible in that read.
    for update in updates:
        if update.end_time is None:
            continue
        for read in reads:
            if read.start_time >= update.end_time and update.command not in read.result:
                result.add(
                    "update_visibility",
                    f"read by {read.client!r} started after update {update.command!r} "
                    "completed but does not contain it",
                )
    return result
