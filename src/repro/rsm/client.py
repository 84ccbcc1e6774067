"""RSM clients: the update / read protocols of Algorithms 5 and 6.

A :class:`RSMClient` executes a *script* of operations.  By default
(``pipeline=1``) it is strictly sequential: the next operation starts only
after the previous one completed (this is what gives the real-time order
that linearizability is checked against).  Because the paper's updates are
*commutative* — any set of concurrent updates joins into one decision —
independent updates need not wait on each other: ``pipeline=k`` keeps up to
``k`` updates in flight at once, which is what makes the replicas'
``batch_size`` knob reachable from one client (a strictly sequential client
hands GWTS one value per round; the commands of several sequential clients
still share a round, since a replica waits
:data:`~repro.rsm.replica.ROUND_HOLD` before opening a round for its own
command).  Reads are
always barriers: a read starts only once every earlier operation completed,
and nothing starts behind an in-flight read — the read/confirm protocol of
Algorithm 6 is what anchors real-time order, so it is never reordered.
Each completed operation is recorded as an :class:`OperationRecord` with its
invocation and completion times and, for reads, the returned value; the
history of all clients feeds :func:`repro.rsm.checker.check_rsm_history`.

:class:`ByzantineClient` implements the misbehaviours considered by
Lemma 12: submitting inadmissible commands, contacting fewer than ``f + 1``
replicas, and firing updates without waiting for completion.
"""

from __future__ import annotations
from collections.abc import Hashable, Sequence

from dataclasses import dataclass
from typing import Any

from repro.engine.core import ProtocolCore
from repro.rsm.commands import Command, make_command, nop_command
from repro.rsm.replica import ConfirmReply, ConfirmRequest, DecideNotice, UpdateRequest


@dataclass
class OperationRecord:
    """One completed (or still pending) client operation."""

    client: Hashable
    kind: str  # "update" or "read"
    command: Command
    start_time: float
    end_time: float | None = None
    result: frozenset[Command] | None = None

    @property
    def completed(self) -> bool:
        """Whether the operation has terminated."""
        return self.end_time is not None


@dataclass
class _InFlightOp:
    """Per-operation protocol state while the operation is in flight."""

    record: OperationRecord
    #: Decide receipts for the command: replica -> accepted_set.
    dec_receipts: dict[Hashable, frozenset[Command]]
    #: Confirmation receipts per candidate value: value -> set of replicas.
    conf_receipts: dict[frozenset[Command], set[Hashable]]
    #: The replicas the command was first submitted to.
    targets: tuple[Hashable, ...]
    confirm_phase: bool = False
    retry_timer: Any = None


class RSMClient(ProtocolCore):
    """A correct RSM client executing a script of operations.

    Algorithms 5 and 6 submit each command to ``f + 1`` replicas without
    saying which.  This client keeps a preference order over the membership,
    initially ``replicas`` itself, and submits to its first ``f + 1``
    entries.  When a submission times out, the contacted replicas that sent
    no decide notice move to the back of the order, so a crashed replica
    stops being contacted first.  The choice does not touch the paper's
    guarantees:

    * *Safety* never depended on which replicas are contacted: every
      completion still needs ``f + 1`` decide receipts (Algorithm 5 line 4)
      or ``f + 1`` confirmations (Algorithm 6 lines 11-12), so Lemma 12's
      cases are unchanged.
    * *Liveness* is unchanged too: each attempt still contacts ``f + 1``
      distinct replicas, and a timeout still escalates to all ``n``, of
      which ``n - f >= f + 1`` are correct.
    * A demotion happens only when a replica this client contacted stays
      silent.  Channels are authenticated, so no other party can make a
      correct replica look silent; the worst an adversarial schedule can do
      is rotate the order, which costs no more than a fixed order does.

    Parameters
    ----------
    pid:
        Client identifier (used to make its commands unique).
    replicas:
        The replica membership.
    f:
        Resilience threshold of the replica group; updates are submitted to
        ``f + 1`` replicas and completions wait for ``f + 1`` receipts.
    script:
        Sequence of operations, each either ``("update", payload)`` or
        ``("read",)``.
    retry_timeout:
        Timeout (in simulated time) after which an operation still in flight
        is retried — the update/confirm messages are re-sent, escalating
        from the initial ``f + 1`` replicas to *all* replicas.  A submission
        timeout also moves the contacted replicas that sent no decide notice
        to the back of the client's preference order, so after a crash only
        the operation in flight at the crash pays this timer.  Retries use
        engine timers, so a client stuck behind a crash or a
        partition recovers on its own instead of relying on ad-hoc message
        re-injection by the harness.  ``None`` disables retries (and so the
        reordering).  Replicas treat re-submitted commands idempotently, so
        retries never violate the RSM specification.
    pipeline:
        Maximum number of update operations in flight at once (default 1 =
        strictly sequential, the paper's client).  Commutative updates need
        not wait for each other's decisions, so a pipelined client fills
        GWTS rounds on its own and makes the replicas' ``batch_size`` knob
        effective; sequential clients fill a round together.  Reads are
        always barriers regardless of this setting.
    """

    RETRY_TAG = "rsm_retry"

    def __init__(
        self,
        pid: Hashable,
        replicas: Sequence[Hashable],
        f: int,
        script: Sequence[tuple[Any, ...]] = (),
        retry_timeout: float | None = 150.0,
        pipeline: int = 1,
    ) -> None:
        super().__init__(pid)
        if pipeline < 1:
            raise ValueError("pipeline must be at least 1")
        self.replicas: tuple[Hashable, ...] = tuple(replicas)
        self.f = f
        self.script: list[tuple[Any, ...]] = list(script)
        self.history: list[OperationRecord] = []
        self.retry_timeout = retry_timeout
        self.pipeline = pipeline
        #: Number of timeout-driven retries performed (for tests/metrics).
        self.retries = 0
        self._seq = 0
        #: Operations currently in flight, keyed by their command ``seq``
        #: (insertion order = invocation order; at most ``pipeline`` entries).
        self._inflight: dict[int, _InFlightOp] = {}
        #: Preference order for submissions: the first ``f + 1`` are contacted.
        self._order: list[Hashable] = list(self.replicas)

    # -- script driving ---------------------------------------------------------------

    def on_start(self) -> None:
        self._start_next_operation()

    def _start_next_operation(self) -> None:
        """Fill the pipeline window from the front of the script."""
        while self.script and len(self._inflight) < self.pipeline:
            kind = self.script[0][0]
            if kind == "read" and self._inflight:
                return  # a read is a barrier: it starts alone
            kind, *args = self.script.pop(0)
            self._seq += 1
            if kind == "update":
                command = make_command(self.pid, self._seq, args[0])
            elif kind == "read":
                command = nop_command(self.pid, self._seq)
            else:
                raise ValueError(f"unknown operation kind {kind!r}")
            record = OperationRecord(
                client=self.pid, kind=kind, command=command, start_time=self.now
            )
            # Algorithm 5 line 3 / Algorithm 6 line 3: submit to (f + 1)
            # replicas, the first ones in the preference order.
            targets = tuple(self._order[: self.f + 1])
            op = _InFlightOp(record=record, dec_receipts={}, conf_receipts={}, targets=targets)
            self._inflight[self._seq] = op
            self.history.append(record)
            for replica in targets:
                self.send(replica, UpdateRequest(command=command))
            self._arm_retry(op)
            if kind == "read":
                return  # nothing starts behind an in-flight read

    def submit_operations(self, operations: Sequence[tuple[Any, ...]]) -> None:
        """Append operations to the script, starting them if there is window room.

        Service mode (:mod:`repro.cluster`) feeds a long-lived client work in
        phases instead of a fixed construction-time script; each appended
        batch still executes after everything already queued.  Must be called
        from an effect-applying context (a harness step or
        :meth:`repro.cluster.runtime.CoreHost.call`) so the emitted
        submission effects are drained.
        """
        self.script.extend(operations)
        self._start_next_operation()

    # -- timeout-driven retry -----------------------------------------------------------

    def _arm_retry(self, op: _InFlightOp) -> None:
        if self.retry_timeout is None:
            return
        op.retry_timer = self.set_timer(
            self.retry_timeout, self.RETRY_TAG, op.record.command.seq
        )

    def on_timer(self, tag: str, payload: Any = None) -> None:
        if tag != self.RETRY_TAG:
            return
        op = self._inflight.get(payload)
        if op is None:
            return  # the operation completed while the timer was in flight
        record = op.record
        self.retries += 1
        self.log_event("operation_retry", {"kind": record.kind, "seq": record.command.seq})
        if op.confirm_phase:
            # Re-ask every replica to confirm each candidate decision value.
            # dict.fromkeys (not set): deduplicate in receipt order so the
            # re-send order is independent of PYTHONHASHSEED.
            for accepted_set in dict.fromkeys(op.dec_receipts.values()):
                for replica in self.replicas:
                    self.send(replica, ConfirmRequest(accepted_set=accepted_set))
        else:
            # A target that let the submission time out without a decide
            # notice goes to the back of the order, so later operations try
            # the replicas that have answered first.
            silent = [r for r in op.targets if r not in op.dec_receipts]
            self._order = [r for r in self._order if r not in silent] + silent
            # Escalate the submission from (f + 1) replicas to all of them:
            # some of the original targets may be crashed or cut off.
            for replica in self.replicas:
                self.send(replica, UpdateRequest(command=record.command))
        self._arm_retry(op)

    # -- message handling -----------------------------------------------------------------

    def on_message(self, sender: Hashable, payload: Any) -> None:
        if isinstance(payload, DecideNotice):
            self._handle_decide(sender, payload)
        elif isinstance(payload, ConfirmReply):
            self._handle_confirm_reply(sender, payload)

    def _handle_decide(self, sender: Hashable, msg: DecideNotice) -> None:
        if sender not in self.replicas or not isinstance(msg.accepted_set, frozenset):
            return
        accepted = msg.accepted_set
        # One notice can cover several in-flight commands: concurrent
        # commutative updates all join into the same decision.  Iterate over
        # a snapshot — completing an operation refills the pipeline, and the
        # refill must not be credited with this (already consumed) notice.
        for op_seq in list(self._inflight):
            op = self._inflight.get(op_seq)
            if op is None:
                continue  # completed by an earlier iteration's refill cascade
            record = op.record
            if record.command not in accepted:
                continue
            op.dec_receipts[sender] = accepted
            if len(op.dec_receipts) < self.f + 1:
                continue
            if record.kind == "update":
                # Algorithm 5 line 4: the update completes.
                self._complete(op_seq, result=None)
            elif not op.confirm_phase:
                # Algorithm 6 lines 6-8: ask every replica to confirm each of
                # the (f + 1) candidate decision values (deduplicated in
                # receipt order — hash order would not be reproducible across
                # processes).
                op.confirm_phase = True
                for accepted_set in dict.fromkeys(op.dec_receipts.values()):
                    for replica in self.replicas:
                        self.send(replica, ConfirmRequest(accepted_set=accepted_set))

    def _handle_confirm_reply(self, sender: Hashable, msg: ConfirmReply) -> None:
        if sender not in self.replicas or not isinstance(msg.accepted_set, frozenset):
            return
        # Reads are barriers, so at most one read is ever in flight.
        for op_seq, op in list(self._inflight.items()):
            record = op.record
            if record.kind != "read" or not op.confirm_phase:
                continue
            replicas = op.conf_receipts.setdefault(msg.accepted_set, set())
            replicas.add(sender)
            # Algorithm 6 lines 11-12: the first value confirmed by (f + 1)
            # replicas is returned (executed).
            if len(replicas) >= self.f + 1:
                self._complete(op_seq, result=msg.accepted_set)

    def _complete(self, op_seq: int, result: frozenset[Command] | None) -> None:
        op = self._inflight.pop(op_seq, None)
        if op is None:
            return
        if op.retry_timer is not None:
            op.retry_timer.cancel()
            op.retry_timer = None
        record = op.record
        record.end_time = self.now
        record.result = result
        self.log_event("operation_complete", {"kind": record.kind, "seq": record.command.seq})
        # Surface the completion to the harness (collected in engine.outputs)
        # so experiments can observe client progress without polling cores.
        self.output("operation_complete", {"kind": record.kind, "seq": record.command.seq})
        self._start_next_operation()

    # -- introspection ------------------------------------------------------------------------

    @property
    def all_completed(self) -> bool:
        """Whether every scripted operation has completed."""
        return not self.script and not self._inflight

    def completed_operations(self) -> list[OperationRecord]:
        """All operations that have completed, in invocation order."""
        return [record for record in self.history if record.completed]


class ByzantineClient(ProtocolCore):
    """A misbehaving client (Lemma 12's threat model).

    Modes (combinable through the constructor flags):

    * ``send_garbage`` — submit operations that are not admissible commands;
    * ``under_replicate`` — contact a single replica instead of ``f + 1``;
    * ``no_wait`` — fire all updates immediately without waiting for any
      completion (they become concurrent updates, which GWTS handles).

    The point of this class is the *negative* guarantee: none of these
    behaviours can prevent correct clients' operations from completing or
    break the RSM properties for correct clients.
    """

    def __init__(
        self,
        pid: Hashable,
        replicas: Sequence[Hashable],
        f: int,
        payloads: Sequence[Any] = (),
        send_garbage: bool = True,
        under_replicate: bool = True,
        no_wait: bool = True,
    ) -> None:
        super().__init__(pid)
        self.replicas = tuple(replicas)
        self.f = f
        self.payloads = list(payloads)
        self.send_garbage = send_garbage
        self.under_replicate = under_replicate
        self.no_wait = no_wait

    @property
    def is_byzantine(self) -> bool:
        return True

    def on_start(self) -> None:
        targets = self.replicas[:1] if self.under_replicate else self.replicas[: self.f + 1]
        seq = 0
        for payload in self.payloads:
            seq += 1
            command = make_command(self.pid, seq, payload)
            for replica in targets:
                self.send(replica, UpdateRequest(command=command))
        if self.send_garbage:
            for replica in self.replicas:
                # Not a Command instance at all: correct replicas must filter it.
                self.send(replica, UpdateRequest(command="garbage-command"))  # type: ignore[arg-type]

    def on_message(self, sender: Hashable, payload: Any) -> None:
        # Never acknowledges anything; keeps replicas guessing.
        pass
