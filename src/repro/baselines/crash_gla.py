"""Crash-fault-only Generalized Lattice Agreement baseline.

GWTS's round loop without any Byzantine defence: no reliable broadcast
(plain best-effort disclosure messages), no safe-value filtering, no
acceptor round gating, and a simple majority quorum.  This is the GLA
construction of Faleiro et al. [2] reduced to the features GWTS shares with
it, which makes the E10 comparison an apples-to-apples measure of the price
of Byzantine tolerance.

The round loop is the very one GWTS and GSbS run
(:class:`~repro.core.process.GeneralizedProcess`: per-round input queues and
the ``max_rounds`` horizon), with no ``batch_size`` cap, so every round
proposes everything queued for it.  This module supplies the round's plain
disclosure (``_start_round``) and the crash-fault deciding phase.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Hashable, Sequence
from dataclasses import dataclass
from typing import Any

from repro.core.gwts import DISCLOSING, PROPOSING, request_token
from repro.core.messages import RoundAck, RoundAckRequest, RoundNack
from repro.core.process import NEWROUND, GeneralizedProcess
from repro.lattice.base import JoinSemilattice, LatticeElement


@dataclass(frozen=True)
class BatchDisclosure:
    """Plain (non-reliable) per-round batch announcement."""

    value: Any
    round: int
    mtype: str = "disclosure"


class CrashGLAProcess(GeneralizedProcess):
    """Crash-tolerant Generalized Lattice Agreement participant (both roles)."""

    def __init__(
        self,
        pid: Hashable,
        lattice: JoinSemilattice,
        members: Sequence[Hashable],
        f: int,
        max_rounds: int = 3,
        initial_values: Sequence[LatticeElement] = (),
    ) -> None:
        super().__init__(pid, lattice, members, f, max_rounds, initial_values)
        self.proposed_set: LatticeElement = lattice.bottom()
        self.decided_set: LatticeElement = lattice.bottom()
        self.counter: dict[int, set[Hashable]] = defaultdict(set)
        self.ack_senders: set[Hashable] = set()
        self.accepted_set: LatticeElement = lattice.bottom()

    @property
    def majority(self) -> int:
        """Crash-fault quorum: a simple majority of the membership."""
        return self.n // 2 + 1

    # -- lifecycle ---------------------------------------------------------------------

    def on_start(self) -> None:
        self.recheck()

    def on_message(self, sender: Hashable, payload: Any) -> None:
        if isinstance(payload, BatchDisclosure):
            self._handle_disclosure(sender, payload)
        elif isinstance(payload, RoundAckRequest):
            self._handle_ack_request(sender, payload)
        elif isinstance(payload, RoundAck):
            self._handle_ack(sender, payload)
        elif isinstance(payload, RoundNack):
            self._handle_nack(sender, payload)
        self.recheck()

    # -- disclosure (plain broadcast) ------------------------------------------------------

    def _handle_disclosure(self, sender: Hashable, msg: BatchDisclosure) -> None:
        if not self.lattice.is_element(msg.value):
            return
        if sender in self.counter[msg.round]:
            return
        self.counter[msg.round].add(sender)
        if msg.round == self.round and self.state == DISCLOSING:
            self.proposed_set = self.lattice.join(self.proposed_set, msg.value)

    # -- acceptor role -----------------------------------------------------------------------

    def _handle_ack_request(self, sender: Hashable, msg: RoundAckRequest) -> None:
        if not self.lattice.is_element(msg.proposed_set):
            return
        if self.lattice.leq(self.accepted_set, msg.proposed_set):
            self.accepted_set = msg.proposed_set
            self.send_to(
                sender,
                RoundAck(
                    proposal=request_token(msg),
                    destination=sender,
                    sender=self.pid,
                    ts=msg.ts,
                    round=msg.round,
                ),
            )
        else:
            self.send_to(
                sender,
                RoundNack(accepted_set=self.accepted_set, ts=msg.ts, round=msg.round),
            )
            self.accepted_set = self.lattice.join(self.accepted_set, msg.proposed_set)

    # -- proposer role ------------------------------------------------------------------------

    def _handle_ack(self, sender: Hashable, msg: RoundAck) -> None:
        if self.state != PROPOSING or msg.ts != self.ts or msg.round != self.round:
            return
        self.ack_senders.add(sender)

    def _handle_nack(self, sender: Hashable, msg: RoundNack) -> None:
        if self.state != PROPOSING or msg.ts != self.ts or msg.round != self.round:
            return
        if not self.lattice.is_element(msg.accepted_set):
            return
        merged = self.lattice.join(msg.accepted_set, self.proposed_set)
        if merged != self.proposed_set:
            self.proposed_set = merged
            self.ack_senders = set()
            self.ts += 1
            self.broadcast(
                RoundAckRequest(proposed_set=self.proposed_set, ts=self.ts, round=self.round)
            )

    # -- guard evaluation ------------------------------------------------------------------------

    def try_progress(self) -> bool:
        if self.state == NEWROUND and self._round_wanted():
            self._new_round()
            return True

        if (
            self.state == DISCLOSING
            and len(self.counter[self.round]) >= self.disclosure_threshold
        ):
            self.state = PROPOSING
            self.ts += 1
            self.ack_senders = set()
            self.broadcast(
                RoundAckRequest(proposed_set=self.proposed_set, ts=self.ts, round=self.round)
            )
            return True

        if self.state == PROPOSING and len(self.ack_senders) >= self.majority:
            self.decided_set = self.lattice.join(self.decided_set, self.proposed_set)
            self.record_decision(self.decided_set, round=self.round)
            self.state = NEWROUND
            return True
        return False

    def _start_round(self) -> None:
        self.state = DISCLOSING
        batch_value = self._next_batch()
        self.proposed_set = self.lattice.join(self.proposed_set, batch_value)
        self.broadcast(BatchDisclosure(value=batch_value, round=self.round))
