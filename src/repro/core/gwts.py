"""GWTS — Generalized Wait Till Safe (Algorithms 3 and 4, Section 6).

Generalized Lattice Agreement: values arrive asynchronously at each process,
are batched per round, and the process produces an ever-growing chain of
decisions (one per round).  Each round runs the two phases of WTS:

* **Disclosure** — the round's batch is reliably broadcast tagged with the
  round number; a process starts proposing once ``n - f`` round-``r``
  disclosures were delivered.
* **Deciding** — like WTS, except acceptor acks are themselves *reliably
  broadcast* so that every proposer can observe committed proposals and
  decide on any committed ``Accepted_set`` that extends its previous
  decision, even one it did not propose.

Round gating ("wait until safe" against round clogging): an acceptor only
serves requests of round ``r`` once ``Safe_r >= r``, and ``Safe_r`` advances
from ``r-1`` to ``r`` only after observing a Byzantine quorum of reliably
broadcast acks for round ``r-1`` — i.e. after round ``r-1`` had a *legitimate
end* (Definitions 3-5).  This stops Byzantine proposers from racing ahead and
starving correct processes (Lemma 7).

The round loop itself (Algorithm 3 lines 1-15: per-round input queues, the
``batch_size`` cap with its FIFO carry, and the finite ``max_rounds``
horizon at which a process halts) is
:class:`~repro.core.process.GeneralizedProcess`'s, shared with GSbS and the
crash-GLA baseline; this module supplies the round's disclosure
(``_start_round``) and everything after it.  Cluster service mode sets the
horizon per replica from ``ClusterSpec.max_rounds`` (docs/operations.md,
"max_rounds").

**Acks name the request they accept.**  Algorithm 4 line 10's ack carries
the acceptor's ``Accepted_set``, which is exactly the ``Proposed_set`` of
the request just accepted, and that request already reached every member:
the proposer broadcasts it.  So a :class:`~repro.core.messages.RoundAck`
carries ``proposal``, the request's canonical token
(:func:`~repro.crypto.canonical_bytes`: ``"H"`` + SHA-256 of the request),
instead of the set.  Every process indexes each well-formed request it
receives (its own included) by ``(token, sender, ts, round)``, the key an
ack of it is stored under, and an ack is counted only once that index
resolves its key to a set and the set is safe; until then it waits in
``Waiting_msgs``, as an unsafe ack always did.  An RSM replica's accepted
set is its whole command history, so ack frames, three per acceptor and
peer in every reliable broadcast, go from history-sized to constant-sized.

* *Safety.*  A correct acceptor reliably broadcasts an ack naming token
  ``T`` only after setting ``Accepted_set`` to the one request that hashes
  to ``T``; a process counts an ack for set ``S`` only under a request
  with token ``T`` that carries ``S``.  By collision resistance, every
  quorum a process counts for ``S`` is a quorum whose correct members
  accepted ``S``, and Lemma 1's quorum-intersection argument reads as it
  did when the ack carried ``S`` itself.  A token that no received request
  carries, or that is no string, is never counted.
* *Liveness.*  A correct proposer's request reaches every correct process
  over reliable links, so every ack of a correct proposal eventually
  resolves everywhere: ``Safe_r`` still advances (Lemma 7) and each
  correct proposer still decides (Lemma 10).  A commit that only a
  Byzantine proposer's selectively sent request could resolve may stay
  unresolved at some process; no liveness lemma relies on such a commit.
* *Every proposer still observes the commit*, as Algorithm 4 line 10
  intends: the acks are still reliably broadcast, and the message count
  per round is unchanged.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Hashable, Sequence
from typing import Any

from repro.broadcast.reliable import ReliableBroadcaster
from repro.core.messages import RoundAck, RoundAckRequest, RoundNack
from repro.core.process import NEWROUND, GeneralizedProcess
from repro.crypto.signatures import canonical_bytes
from repro.lattice.base import JoinSemilattice, LatticeElement

#: Proposer phases within a round (Algorithm 3's ``state`` variable; the
#: round driver adds ``NEWROUND`` and ``HALTED``).
DISCLOSING = "disclosing"
PROPOSING = "proposing"

#: Key identifying one acknowledged proposal in ``Ack_history``, and the
#: request it names in the request index: (request token, destination
#: proposer, timestamp, round).
AckKey = tuple[str, Hashable, int, int]


class GWTSProcess(GeneralizedProcess):
    """One GWTS participant playing both the proposer and the acceptor role.

    The constructor takes :class:`~repro.core.process.GeneralizedProcess`'s
    parameters (``max_rounds``, ``initial_values``, ``batch_size``).
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
        super().__init__(pid, lattice, members, f, max_rounds, initial_values, batch_size)

        # --- proposer state (Algorithm 3 lines 1-7) ---
        self.proposed_set: LatticeElement = lattice.bottom()
        self.decided_set: LatticeElement = lattice.bottom()
        #: Per-round safe-values sets: round -> origin -> disclosed element.
        self.svs: dict[int, dict[Hashable, LatticeElement]] = defaultdict(dict)
        #: Running join of every value in ``svs`` (``W_r``), maintained
        #: incrementally: recomputing it from scratch inside ``is_safe`` made
        #: draining a large waiting backlog quadratic in disclosures.
        self._safe_bound: LatticeElement = lattice.bottom()
        #: Per-round disclosure counters (``Counter[r]``).
        self.counter: dict[int, int] = defaultdict(int)
        #: Ack history shared by the proposer and acceptor roles:
        #: AckKey -> set of acceptors whose reliably-broadcast ack we saw.
        self.ack_history: dict[AckKey, set[Hashable]] = defaultdict(set)
        #: The same record split by round (same keys in the same order, the
        #: very same acceptor sets): the guards below ask about one round at
        #: a time, many times per message, and must not rescan all history.
        self._round_acks: dict[int, dict[AckKey, set[Hashable]]] = defaultdict(dict)
        #: Every well-formed request received, by the key its acks are
        #: stored under: AckKey -> the request's ``Proposed_set``.
        self._proposals: dict[AckKey, LatticeElement] = {}
        #: Refinements performed per round (Lemma 10 bounds each by f).
        self.refinements_by_round: dict[int, int] = defaultdict(int)

        # --- acceptor state (Algorithm 4 lines 1-3) ---
        self.accepted_set: LatticeElement = lattice.bottom()
        self.safe_round = 0

        self._rb: ReliableBroadcaster | None = None

    # -- lifecycle -----------------------------------------------------------------------

    def on_start(self) -> None:
        self._rb = ReliableBroadcaster(
            node=self, n=self.n, f=self.f, deliver=self._on_rb_deliver
        )
        self.recheck()

    def on_message(self, sender: Hashable, payload: Any) -> None:
        if self._rb is not None and self._rb.handle(sender, payload):
            return
        if isinstance(payload, RoundAckRequest):
            self._index_request(sender, payload)
        if isinstance(payload, (RoundAckRequest, RoundNack)):
            self.waiting_msgs.append((sender, payload))
            self._drain_waiting()
            self.recheck()

    # -- reliable broadcast deliveries ------------------------------------------------------

    def _on_rb_deliver(self, origin: Hashable, tag: Hashable, value: Any) -> None:
        if not isinstance(tag, tuple) or not tag:
            return
        kind = tag[0]
        if kind == "disclosure":
            self._on_disclosure(origin, tag[1], value)
        elif kind == "ack":
            self._on_rb_ack(origin, value)
        self._drain_waiting()
        self.recheck()
        # The recheck may have advanced ``safe_round``, which admits requests
        # buffered for the next round: serve them now, not at the next
        # delivery.  Serving a request changes no guard input, so no second
        # recheck is needed.
        self._drain_waiting()

    def _on_disclosure(self, origin: Hashable, round_no: Any, value: Any) -> None:
        """Algorithm 3 lines 16-20 (``RBcastDelivery`` of a disclosure)."""
        if origin not in self.members or not isinstance(round_no, int):
            return
        if not self.lattice.is_element(value):
            return
        round_svs = self.svs[round_no]
        if origin in round_svs:
            return  # at most one disclosure per origin per round (Observation 3)
        round_svs[origin] = value
        self._safe_bound = self.lattice.join(self._safe_bound, value)
        self.counter[round_no] += 1
        if self.state == DISCLOSING and round_no == self.round:
            self.proposed_set = self.lattice.join(self.proposed_set, value)

    def _index_request(self, sender: Hashable, msg: RoundAckRequest) -> None:
        """Record a well-formed request under the key its acks name, on arrival."""
        if (
            isinstance(msg.ts, int)
            and isinstance(msg.round, int)
            and self.lattice.is_element(msg.proposed_set)
        ):
            self._proposals[(request_token(msg), sender, msg.ts, msg.round)] = msg.proposed_set

    def _on_rb_ack(self, origin: Hashable, value: Any) -> None:
        """Algorithm 3 lines 34-36 / Algorithm 4 lines 14-16."""
        if not isinstance(value, RoundAck):
            return
        if value.sender != origin:
            # The reliable broadcast authenticates its origin; an ack claiming
            # to come from somebody else is a forgery attempt and is dropped.
            return
        if not isinstance(value.proposal, str):
            return
        try:
            hash((value.destination, value.ts, value.round))
        except TypeError:
            return  # an unhashable key field: a malformed ack, dropped
        if not self._try_store_ack(origin, value):
            # Buffer under the generic waiting mechanism: re-checked when the
            # safe set grows or the request it names arrives.
            self.waiting_msgs.append((origin, value))

    def _try_store_ack(self, origin: Hashable, ack: RoundAck) -> bool:
        """Store ``ack`` if a received request carries the token it names and
        that request's set is safe; whether it was stored."""
        key: AckKey = (ack.proposal, ack.destination, ack.ts, ack.round)
        accepted = self._proposals.get(key)
        if accepted is None or not self.is_safe(accepted):
            return False
        self._store_ack(origin, key, accepted)
        return True

    def _store_ack(self, origin: Hashable, key: AckKey, accepted: LatticeElement) -> set[Hashable]:
        """Record one reliably-broadcast ack of the set ``accepted``; the
        acceptors seen for it so far."""
        acceptors = self.ack_history[key]
        acceptors.add(origin)
        self._round_acks[key[3]][key] = acceptors
        return acceptors

    # -- safety predicate ----------------------------------------------------------------------

    def safe_upper_bound(self) -> LatticeElement:
        """Join of every value disclosed in any round observed so far (``W_r``)."""
        return self._safe_bound

    def is_safe(self, element: LatticeElement) -> bool:
        """``SAFE(m)`` / ``SAFE_A(m)``: content covered by disclosed values."""
        return self.lattice.leq(element, self.safe_upper_bound())

    # -- guard evaluation -------------------------------------------------------------------------

    def try_progress(self) -> bool:
        # Algorithm 3 lines 11-15: upon state = newround, start the next round.
        if self.state == NEWROUND and self._round_wanted():
            self._new_round()
            return True

        # Algorithm 3 lines 22-25: disclosure quorum reached, start proposing.
        if (
            self.state == DISCLOSING
            and self.counter[self.round] >= self.disclosure_threshold
        ):
            self.state = PROPOSING
            self.ts += 1
            self._broadcast_ack_request()
            return True

        # Algorithm 4 lines 17-19: advance the acceptor's trusted round once
        # the current trusted round has a committed proposal.
        if self._round_has_commit(self.safe_round):
            self.safe_round += 1
            return True

        # Algorithm 3 lines 37-41: decide any committed proposal of the
        # current round that extends the previous decision.
        if self.state == PROPOSING:
            committed = self._find_decidable_commit()
            if committed is not None:
                self.decided_set = committed
                self.record_decision(committed, round=self.round)
                self.state = NEWROUND
                return True
        return False

    def _start_round(self) -> None:
        """Algorithm 3 lines 11-15."""
        self.state = DISCLOSING
        batch_value = self._next_batch()
        self.proposed_set = self.lattice.join(self.proposed_set, batch_value)
        self._rb.broadcast(("disclosure", self.round), batch_value)

    def _broadcast_ack_request(self) -> None:
        request = RoundAckRequest(
            proposed_set=self.proposed_set, ts=self.ts, round=self.round
        )
        self.broadcast(request)

    def _round_has_commit(self, round_no: int) -> bool:
        """Whether some proposal of ``round_no`` gathered an ack quorum."""
        return any(
            len(senders) >= self.quorum for senders in self._round_acks.get(round_no, {}).values()
        )

    def _find_decidable_commit(self) -> LatticeElement | None:
        """A committed ``Accepted_set`` of the current round extending ``Decided_set``."""
        proposals, leq = self._proposals, self.lattice.leq
        candidates = [
            proposals[key]
            for key, senders in self._round_acks.get(self.round, {}).items()
            if len(senders) >= self.quorum and leq(self.decided_set, proposals[key])
        ]
        if not candidates:
            return None
        # Prefer the largest committed value so the decision absorbs as much
        # of the round as possible (any candidate is correct; they are all
        # comparable by Lemma 1).
        best = candidates[0]
        for candidate in candidates[1:]:
            if self.lattice.leq(best, candidate):
                best = candidate
        return best

    # -- buffered message processing ----------------------------------------------------------------

    def _try_handle(self, sender: Hashable, payload: Any) -> bool:
        if isinstance(payload, RoundAckRequest):
            return self._handle_ack_request(sender, payload)
        if isinstance(payload, RoundNack):
            return self._handle_nack(sender, payload)
        if isinstance(payload, RoundAck):
            # Re-queued reliably-broadcast ack awaiting its request or safety.
            return self._try_store_ack(sender, payload)
        return True

    # Acceptor role (Algorithm 4 lines 6-13) ------------------------------------------------------------

    def _handle_ack_request(self, sender: Hashable, msg: RoundAckRequest) -> bool:
        # Serve only the requests ``_index_request`` records, so every ack a
        # correct acceptor sends names a request its receivers index too.
        if not isinstance(msg.round, int) or msg.round < 0 or not isinstance(msg.ts, int):
            return True
        if not self.lattice.is_element(msg.proposed_set):
            return True
        if msg.round > self.safe_round:
            return False  # round not yet trusted: keep buffered (anti-clogging)
        if not self.is_safe(msg.proposed_set):
            return False
        if self.lattice.leq(self.accepted_set, msg.proposed_set):
            self.accepted_set = msg.proposed_set
            ack = RoundAck(
                proposal=request_token(msg),
                destination=sender,
                sender=self.pid,
                ts=msg.ts,
                round=msg.round,
            )
            # Acks are reliably broadcast so every proposer learns about the
            # commit (Algorithm 4 line 10).
            self._rb.broadcast(("ack", msg.round, msg.ts, sender), ack)
        else:
            self.send_to(
                sender,
                RoundNack(accepted_set=self.accepted_set, ts=msg.ts, round=msg.round),
            )
            self.accepted_set = self.lattice.join(self.accepted_set, msg.proposed_set)
        return True

    # Proposer role, nack handling (Algorithm 3 lines 28-33) ---------------------------------------------

    def _handle_nack(self, sender: Hashable, msg: RoundNack) -> bool:
        if self.state != PROPOSING or msg.ts != self.ts or msg.round != self.round:
            return True
        if not self.lattice.is_element(msg.accepted_set):
            return True
        if not self.is_safe(msg.accepted_set):
            return False
        merged = self.lattice.join(msg.accepted_set, self.proposed_set)
        if merged != self.proposed_set:
            self.proposed_set = merged
            self.ts += 1
            self.refinements_by_round[self.round] += 1
            self._broadcast_ack_request()
        return True


def request_token(request: RoundAckRequest) -> str:
    """The canonical token a :class:`RoundAck` names ``request`` by.

    ``canonical_bytes`` caches it on the request object the first time, on
    arrival, so the acceptor's ack and every in-process receiver of the same
    request read the cached digest.
    """
    return canonical_bytes(request).decode("ascii")
