"""Common base class for agreement-protocol participants.

Every algorithm process (WTS, GWTS, SbS, GSbS, the crash baselines and their
Byzantine impostors) extends :class:`AgreementProcess`, which adds to the
sans-I/O :class:`~repro.engine.ProtocolCore`:

* the agreement *membership* — the fixed set of process ids running the
  protocol (the paper's ``P``), and what every ``Broadcast`` of the core
  reaches on every substrate; the RSM adds client cores to the system that
  are **not** members and so hear no broadcast;
* the lattice, ``n``, ``f`` and quorum sizes;
* decision bookkeeping (``decisions`` list + a ``Decide`` effect carrying
  the causal message-delay of the paper's latency theorems to the backend's
  metrics);
* the paper's ``Waiting_msgs`` buffer and its drain, shared by WTS, GWTS
  and GSbS, which each supply only :meth:`AgreementProcess._try_handle`;
* the "upon event" re-evaluation loop: handlers enqueue no callbacks, they
  just mutate state and call :meth:`recheck`, which keeps invoking
  :meth:`try_progress` until the process state stops changing — exactly the
  guard-driven semantics of the pseudocode.  In WTS and GWTS only the events
  that can enable a guard reach it: a reliable-broadcast delivery, a direct
  protocol message, the start event (and, on a replica, a client update).
  Broadcast-internal traffic that delivers nothing — most echoes and
  readies — returns before it (see :meth:`AgreementProcess.recheck`).

The generalized cores (GWTS, GSbS and the crash-GLA baseline) extend
:class:`GeneralizedProcess`, which adds the round and batch policy of
Algorithm 3 lines 1-15 that all three run unchanged: inputs queued per round,
the oldest ``batch_size`` of them proposed, the rest carried ahead of the next
round's queue, and a halt at the ``max_rounds`` horizon.  Of the round loop,
each core supplies only how a round starts (``_start_round``).
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Hashable, Sequence

from typing import Any

from repro.core.quorum import byzantine_quorum
from repro.engine.core import ProtocolCore
from repro.lattice.base import JoinSemilattice, LatticeElement

#: Round-driver states of a generalized core: between two rounds (Algorithm
#: 3's ``newround``) and past the ``max_rounds`` horizon.
NEWROUND = "newround"
HALTED = "halted"


class AgreementProcess(ProtocolCore):
    """Base class for all lattice-agreement protocol participants."""

    def __init__(
        self,
        pid: Hashable,
        lattice: JoinSemilattice,
        members: Sequence[Hashable],
        f: int,
    ) -> None:
        super().__init__(pid)
        if pid not in members:
            raise ValueError(f"process {pid!r} must be part of its own membership")
        self.lattice = lattice
        self.members: tuple[Hashable, ...] = tuple(members)
        self.f = f
        #: Decisions made by this process, in order (one entry for LA, many
        #: for GLA).  Checkers read this; the metrics collector gets a copy.
        self.decisions: list[LatticeElement] = []
        #: Messages received but not handled yet (the paper's
        #: ``Waiting_msgs``), re-examined by :meth:`_drain_waiting`.
        self.waiting_msgs: list[tuple[Hashable, Any]] = []

    # -- membership helpers ------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of protocol members ``n`` (not the network size)."""
        return len(self.members)

    @property
    def quorum(self) -> int:
        """The Byzantine ack quorum ``floor((n+f)/2)+1``."""
        return byzantine_quorum(self.n, self.f)

    @property
    def disclosure_threshold(self) -> int:
        """``n - f`` — the number of disclosures awaited before proposing."""
        return self.n - self.f

    def send_to(self, dest: Hashable, payload: Any) -> None:
        """Point-to-point send to one member (or any process in the system)."""
        self.send(dest, payload)

    # -- decision bookkeeping -----------------------------------------------------

    def record_decision(
        self, value: LatticeElement, round: int | None = None
    ) -> None:
        """Append a decision and emit the ``Decide`` effect recording it."""
        self.decisions.append(value)
        self.log_event("decide", {"value": value, "round": round})
        self.decide(value, round=round)

    @property
    def decision(self) -> LatticeElement | None:
        """The first decision (the single decision for single-shot LA)."""
        return self.decisions[0] if self.decisions else None

    @property
    def has_decided(self) -> bool:
        """Whether at least one decision has been made."""
        return bool(self.decisions)

    # -- "upon event" loop ---------------------------------------------------------

    def recheck(self, budget: int = 64) -> None:
        """Re-evaluate enabled guards until no more progress is possible.

        ``budget`` bounds the number of iterations as a defensive measure
        against accidental livelock in a handler; real runs never get close
        to it because each iteration either changes the protocol state or
        stops.

        **Which events call it (WTS, GWTS, SbS).**  Each run of a core's guards
        and of its buffered-message drain must follow every change to what
        they read, and need follow nothing else:

        * WTS's guards read ``state``, ``init_counter`` and ``ack_senders``.
          ``init_counter`` grows only in ``_on_rb_deliver``, ``ack_senders``
          only when a drain handles an ``Ack``, ``state`` only in
          :meth:`try_progress` itself.
        * GWTS's guards read ``state``, ``round``, ``counter``, the per-round
          ack record, ``safe_round`` and ``decided_set``.  ``counter`` grows
          only on a disclosure delivery, the ack record only when an ack is
          stored (on its delivery, or when a drain handles it once it is
          safe); the rest changes only in :meth:`try_progress`.
        * SbS's guards read ``state``, ``safety_set``, ``safe_acks``,
          ``ack_senders`` and ``proposed_set``: proposer state, changed only
          in ``on_start`` (which sends this process its own ``InitPhase``),
          by an ``InitPhase``, ``SafeAck``, ``SbSAck`` or ``SbSNack``, and by
          :meth:`try_progress`.  A ``SafeRequest`` or ``SbSAckRequest``
          changes only acceptor state (``safe_candidates``,
          ``accepted_set``), which no guard reads, so it returns without a
          recheck.
        * A buffered message stays buffered only while it is not safe —
          the safe bound grows only on a disclosure delivery — or, in GWTS,
          while its round is above ``safe_round``, which only
          :meth:`try_progress` advances.

        So the delivery handler (``_on_rb_deliver``) drains and rechecks,
        and GWTS's drains once more, because its recheck may have admitted
        requests buffered for the next round.  A direct
        protocol message is buffered, drained and rechecked.  A broadcast
        echo or ready that delivers nothing changes only the broadcaster's
        per-instance votes and queues echo/ready sends; no guard and no
        buffer gate reads those.  Such a message returns at once:
        re-running the drain and the guards would find exactly the fixpoint
        the previous event left.

        The one thing an event can leave unfinished is a chain cut by
        ``budget``.  Any later message used to resume it, usually the next
        echo.  Now the next delivery or direct message to this process
        resumes it.  An instrumented run of the whole test suite never
        exhausted the budget outside the unit test that sets it to 5.
        """
        for _ in range(budget):
            if not self.try_progress():
                return

    def try_progress(self) -> bool:
        """Attempt one state transition; return ``True`` if state changed.

        Subclasses override this with their guard checks ("upon event |Ack
        set| >= quorum", "upon event Counter[r] >= n - f", ...).  The default
        implementation does nothing.
        """
        return False

    # -- buffered messages ----------------------------------------------------------

    def _drain_waiting(self) -> None:
        """Re-examine buffered messages; handle all that :meth:`_try_handle` consumes.

        Each pass rebinds ``waiting_msgs`` to what is left, and passes repeat
        while one consumes something: handling a message can admit another.
        """
        progress = True
        while progress:
            progress = False
            remaining: list[tuple[Hashable, Any]] = []
            for sender, payload in self.waiting_msgs:
                if self._try_handle(sender, payload):
                    progress = True
                else:
                    remaining.append((sender, payload))
            self.waiting_msgs = remaining

    def _try_handle(self, sender: Hashable, payload: Any) -> bool:
        """Handle ``payload`` if its guard is satisfied; return ``True`` if consumed.

        The default consumes (and drops) everything.
        """
        return True


class GeneralizedProcess(AgreementProcess):
    """The round loop of Generalized Lattice Agreement (Algorithm 3 lines 1-15).

    A subclass keeps the ``state == NEWROUND`` test inline in its
    :meth:`try_progress`, asks :meth:`_round_wanted` there and calls
    :meth:`_new_round` when it answers yes; it supplies
    :meth:`_start_round`, which takes the round's value from
    :meth:`_next_batch` and runs the round's first phase.

    Parameters
    ----------
    pid, lattice, members, f:
        See :class:`AgreementProcess`.
    max_rounds:
        Number of rounds to execute before halting: a finite prefix of the
        paper's infinite run, so simulations terminate.
    initial_values:
        Values already queued for round 0 (``new_value`` can add more at any
        time, including while the simulation runs).
    batch_size:
        Cap on how many queued values one round's proposal may join
        (``None`` = unbounded, the paper's implicit behaviour: a round
        carries *everything* queued since the last one).  Values beyond the
        cap are carried to the next round, oldest first.
    """

    def __init__(
        self,
        pid: Hashable,
        lattice: JoinSemilattice,
        members: Sequence[Hashable],
        f: int,
        max_rounds: int = 3,
        initial_values: Sequence[LatticeElement] = (),
        batch_size: int | None = None,
    ) -> None:
        super().__init__(pid, lattice, members, f)
        if max_rounds < 1:
            raise ValueError("max_rounds must be at least 1")
        if batch_size is not None and batch_size < 1:
            raise ValueError("batch_size must be at least 1 (or None for unbounded)")
        self.max_rounds = max_rounds
        self.batch_size = batch_size
        self.state = NEWROUND
        self.round = -1
        self.ts = 0
        #: Queued inputs per round (``Batch[r]``).
        self.batches: dict[int, list[LatticeElement]] = defaultdict(list)
        #: All values this process has received as inputs (for the checkers).
        self.received_inputs: list[LatticeElement] = []
        for value in initial_values:
            self.new_value(value)

    def new_value(self, value: LatticeElement) -> None:
        """Queue ``value`` for the next round's batch (Algorithm 3 lines 8-9)."""
        if not self.lattice.is_element(value):
            raise ValueError(f"{value!r} is not a lattice element")
        self.batches[self.round + 1].append(value)
        self.received_inputs.append(value)

    def _round_wanted(self) -> bool:
        """Whether a process in ``NEWROUND`` opens its next round now.

        Algorithm 3 opens it as soon as the previous round decides, whether
        or not a value is waiting, and so does this default.  The RSM
        replica (:class:`repro.rsm.replica.Replica`) opens a round only when
        it carries a command.
        """
        return True

    def _new_round(self) -> None:
        """Algorithm 3 lines 11-15: start the next round, or halt at the horizon."""
        if self.round + 1 >= self.max_rounds:
            self.state = HALTED
        else:
            self._start_round()

    def _start_round(self) -> None:
        """Enter the next round: call :meth:`_next_batch` and disclose its value."""
        raise NotImplementedError

    def _next_batch(self) -> LatticeElement:
        """Advance ``round`` and return the join of the values it proposes.

        The oldest ``batch_size`` queued values are proposed; the rest are
        carried ahead of whatever the next round has queued so far (FIFO
        across rounds).
        """
        self.round += 1
        pending = self.batches.get(self.round, [])
        if self.batch_size is not None and len(pending) > self.batch_size:
            carried = pending[self.batch_size :]
            self.batches[self.round] = pending = pending[: self.batch_size]
            self.batches[self.round + 1] = carried + self.batches[self.round + 1]
        return self.lattice.join_all(pending)
