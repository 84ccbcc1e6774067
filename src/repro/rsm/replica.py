"""RSM replica: a GWTS process plus the client-facing plug-in of Algorithm 7.

A :class:`Replica` is a :class:`~repro.core.gwts.GWTSProcess` (it plays both
the proposer and acceptor roles of GWTS, "for simplicity reasons replicas
play the role of both proposers and acceptors", Section 7.2) extended with:

* handling of client ``UpdateRequest`` messages — an admissible command is
  fed to GWTS via ``new_value({cmd})``; inadmissible commands (not lattice
  elements) are filtered, which is part of the Byzantine-client resilience
  argument of Lemma 12;
* decision notifications — whenever the replica decides, it sends a
  ``DecideNotice`` to every client whose command is newly covered by the
  decision (and to every client that submitted a ``nop``), which is how
  Algorithms 5 and 6 collect their ``f + 1`` receipts;
* the confirmation plug-in (Algorithm 7) — a ``ConfirmRequest`` for a value
  is answered once that value has a Byzantine quorum of acks in the
  replica's ``Ack_history``, proving it "has effectively been decided in
  GWTS".

**Rounds open on demand.**  Algorithm 3 opens round ``r + 1`` as soon as
round ``r`` decides, so an RSM built on it runs rounds whether or not a
command is waiting.  A replica in ``NEWROUND`` after round ``r`` opens round
``r + 1`` only:

* at once, when a member sent it the INIT of that member's own round-``r + 1``
  disclosure, or it delivered such a disclosure;
* at once, when its queued values already fill ``batch_size``;
* after :data:`ROUND_HOLD` simulated time units, when it holds a value not
  below ``Decided_set`` (queued, or left in ``Proposed_set`` by a round
  that decided a smaller commit).  One timer waits; opening the round for
  either reason above cancels it.

Otherwise it stays idle: it sends nothing, and its acceptor role (ack
requests, ``Safe_r``) runs as before.  The hold is two message delays, the
decide notice out and the client's next request back, so closed-loop
clients that learned of the same decision land in the same next round.

*Safety* is untouched: no message, guard or check changes, and a replica
that opens a round later is a slow process, which every GWTS lemma already
allows.  *Liveness*: a correct client's command reaches ``f + 1`` replicas,
one of them correct, which queues it and opens a round within
:data:`ROUND_HOLD`.  Its INIT reaches every correct replica, which opens that
round on arrival, or on deciding the round before when it is behind, so
``n - f`` correct disclosures arrive and the round proceeds as in GWTS.  A
value left out of a decision stays held and opens the next round.
*Round clogging* (Lemma 7) is unchanged: an acceptor still serves
round-``r + 1`` requests only once round ``r`` had a legitimate end.  A
Byzantine member's INITs can force at most one round per decided round,
which is Algorithm 3's own rate.

GWTS, GSbS and the crash-GLA baseline keep Algorithm 3's eager rounds
(:meth:`~repro.core.process.GeneralizedProcess._round_wanted`'s default):
their scenarios queue every input before the run and stop when every core
halts at ``max_rounds``, and experiments E6/E7 count the cost per round.
"""

from __future__ import annotations
from collections.abc import Hashable, Sequence

from dataclasses import dataclass
from typing import Any

from repro.broadcast.reliable import RBInit
from repro.core.gwts import AckKey, GWTSProcess
from repro.core.process import NEWROUND
from repro.engine.effects import TimerHandle
from repro.lattice.base import JoinSemilattice
from repro.lattice.set_lattice import SetLattice
from repro.rsm.commands import Command

#: Simulated time units a replica holding a command waits for a peer to open
#: the next round before it opens the round itself.
ROUND_HOLD = 2.0

#: Tag of the hold timer.
HOLD_TAG = "rsm_round_hold"


@dataclass(frozen=True)
class UpdateRequest:
    """Client -> replica: please run ``new_value({command})`` (Algorithm 5 line 3)."""

    command: Command
    mtype: str = "rsm_update"


@dataclass(frozen=True)
class DecideNotice:
    """Replica -> client: ``<decide, Accepted_set, replica>`` (Algorithm 5 line 5)."""

    accepted_set: frozenset[Command]
    replica: Hashable
    mtype: str = "rsm_decide"


@dataclass(frozen=True)
class ConfirmRequest:
    """Client -> replica: ``<CnfReq, Accepted_set>`` (Algorithm 6 line 8)."""

    accepted_set: frozenset[Command]
    mtype: str = "rsm_cnf_req"


@dataclass(frozen=True)
class ConfirmReply:
    """Replica -> client: ``<CnfRep, Accepted_set, replica>`` (Algorithm 7 line 5)."""

    accepted_set: frozenset[Command]
    replica: Hashable
    mtype: str = "rsm_cnf_rep"


class Replica(GWTSProcess):
    """One RSM replica (GWTS participant + Algorithms 5–7 server side)."""

    def __init__(
        self,
        pid: Hashable,
        members: Sequence[Hashable],
        f: int,
        max_rounds: int = 6,
        lattice: JoinSemilattice | None = None,
        batch_size: int | None = None,
    ) -> None:
        lattice = lattice if lattice is not None else SetLattice()
        super().__init__(
            pid, lattice, members, f, max_rounds=max_rounds, batch_size=batch_size
        )
        #: Command -> clients still to notify once it gets decided; a
        #: command leaves the table when its clients have been told, so the
        #: walk after every message covers work in flight, not all history.
        self._unnotified: dict[Command, set[Hashable]] = {}
        #: Commands already notified (per client), to avoid duplicate notices.
        self._notified: set[tuple[Hashable, Command]] = set()
        #: Every ``Accepted_set`` that gathered a Byzantine quorum of acks
        #: here (acceptor sets only grow, so membership is for good).
        self._committed_sets: set[frozenset[Command]] = set()
        #: Pending confirmation requests: (client, accepted_set) not yet answered.
        self._pending_conf: list[tuple[Hashable, frozenset[Command]]] = []
        #: Commands this replica has admitted (for tests / experiments).
        self.admitted_commands: list[Command] = []
        #: Rounds above the current one for which a member sent us the INIT
        #: of its own disclosure.
        self._announced: set[int] = set()
        #: The armed hold timer, and whether it has fired.
        self._hold: TimerHandle | None = None
        self._hold_over = False

    # -- client-facing message handling ---------------------------------------------

    def on_message(self, sender: Hashable, payload: Any) -> None:
        if isinstance(payload, UpdateRequest):
            self._handle_update_request(sender, payload)
            self.recheck()
            self._flush_client_work()
            return
        if isinstance(payload, ConfirmRequest):
            self._handle_confirm_request(sender, payload)
            self._flush_client_work()
            return
        if isinstance(payload, RBInit) and self._note_announcement(sender, payload):
            # A member opened the round this replica would open next: open
            # it too, before echoing the INIT.
            self.recheck()
        decided, committed = len(self.decisions), len(self._committed_sets)
        super().on_message(sender, payload)
        # Serve clients waiting on a new decision or a new commit.  Both only
        # grow, and the client work itself (``_unnotified``, ``_pending_conf``)
        # only grows on the two paths above, so a GWTS message that grew
        # neither leaves nothing new to send.
        if len(self.decisions) != decided or len(self._committed_sets) != committed:
            self._flush_client_work()

    def on_timer(self, tag: str, payload: Any = None) -> None:
        if tag == HOLD_TAG and self._hold is not None:
            self._hold_over = True
            self.recheck()

    def _note_announcement(self, sender: Hashable, init: RBInit) -> bool:
        """Record a member's INIT of its own disclosure for a later round;
        whether it announces the round this idle replica would open next."""
        tag = init.tag
        if not (
            sender == init.origin
            and sender in self.members
            and isinstance(tag, tuple)
            and len(tag) == 2
            and tag[0] == "disclosure"
            and isinstance(tag[1], int)
            and tag[1] > self.round
        ):
            return False
        self._announced.add(tag[1])
        return self.state == NEWROUND and tag[1] == self.round + 1

    # -- when to open the next round ------------------------------------------------------

    def _round_wanted(self) -> bool:
        following = self.round + 1
        if following in self._announced or self.svs.get(following):
            return True
        queued = self.batches.get(following, ())
        if self.batch_size is not None and len(queued) >= self.batch_size:
            return True
        if self._hold is None:
            leq, decided = self.lattice.leq, self.decided_set
            if not leq(self.proposed_set, decided) or not all(leq(value, decided) for value in queued):
                self._hold = self.set_timer(ROUND_HOLD, HOLD_TAG)
        return self._hold_over

    def _start_round(self) -> None:
        if self._hold is not None:
            self._hold.cancel()
            self._hold = None
        self._hold_over = False
        super()._start_round()
        self._announced.discard(self.round)

    def _handle_update_request(self, sender: Hashable, msg: UpdateRequest) -> None:
        command = msg.command
        if not isinstance(command, Command):
            return  # malformed Byzantine-client request
        element = frozenset({command})
        if not self.lattice.is_element(element):
            # Lemma 12: "if cmd is not an admissible command then correct
            # replicas filter out cmd".
            return
        if (sender, command) not in self._notified:
            self._unnotified.setdefault(command, set()).add(sender)
        self.admitted_commands.append(command)
        self.new_value(element)

    def _handle_confirm_request(self, sender: Hashable, msg: ConfirmRequest) -> None:
        if not isinstance(msg.accepted_set, frozenset):
            return
        self._pending_conf.append((sender, msg.accepted_set))

    # -- plug-in work driven by GWTS progress ---------------------------------------------

    def _flush_client_work(self) -> None:
        self._send_decide_notices()
        self._answer_confirmations()

    def _send_decide_notices(self) -> None:
        """Notify interested clients about commands covered by our decisions."""
        if not self.decisions:
            return
        latest: frozenset[Command] = self.decisions[-1]
        for command in [command for command in self._unnotified if command in latest]:
            for client in self._unnotified.pop(command):
                self._notified.add((client, command))
                self.send(
                    client,
                    DecideNotice(accepted_set=latest, replica=self.pid),
                )

    def _answer_confirmations(self) -> None:
        """Algorithm 7: confirm values that have a quorum of acks in Ack_history."""
        if not self._pending_conf:
            return
        still_pending: list[tuple[Hashable, frozenset[Command]]] = []
        for client, accepted_set in self._pending_conf:
            if self._is_committed(accepted_set):
                self.send(
                    client,
                    ConfirmReply(accepted_set=accepted_set, replica=self.pid),
                )
            else:
                still_pending.append((client, accepted_set))
        self._pending_conf = still_pending

    def _store_ack(
        self, origin: Hashable, key: AckKey, accepted: frozenset[Command]
    ) -> set[Hashable]:
        acceptors = super()._store_ack(origin, key, accepted)
        if len(acceptors) >= self.quorum:
            self._committed_sets.add(accepted)
        return acceptors

    def _is_committed(self, accepted_set: frozenset[Command]) -> bool:
        """Whether ``accepted_set`` gathered a Byzantine quorum of acks here."""
        return accepted_set in self._committed_sets
