"""WTS — Wait Till Safe (Algorithms 1 and 2, Section 5).

Single-shot Byzantine Lattice Agreement.  Each process plays both roles of
the paper's presentation (the paper itself notes "this distinction does not
need to be enforced during deployment as each process can play both roles at
the same time"):

* **Proposer** (Algorithm 1): reliably broadcasts its input value in the
  *Values Disclosure Phase*, waits for ``n - f`` disclosures, then repeatedly
  sends ``ack_req`` messages with its ``Proposed_set`` until a Byzantine
  quorum of acceptors acks the same timestamped proposal, at which point it
  decides (*Deciding Phase*).
* **Acceptor** (Algorithm 2): acks a proposal when its ``Accepted_set`` is
  contained in it (and adopts the proposal), otherwise nacks with its current
  ``Accepted_set`` and absorbs the proposal.

The *wait till safe* discipline: acceptors and proposers only act on messages
whose lattice content is covered by their ``SvS`` (safe-values set) — the set
of values delivered by the reliable broadcast.  Messages that are not yet
safe are buffered in ``Waiting_msgs`` and re-examined whenever ``SvS`` grows.
This is what stops a Byzantine process from smuggling un-disclosed (or
equivocated) values into decisions.
"""

from __future__ import annotations
from collections.abc import Hashable, Sequence

from typing import Any

from repro.broadcast.reliable import ReliableBroadcaster
from repro.core.messages import Ack, AckRequest, Nack
from repro.core.process import AgreementProcess
from repro.lattice.base import JoinSemilattice, LatticeElement

#: Tag under which WTS disclosure broadcasts run (single shot => constant).
DISCLOSURE_TAG = "wts_disclosure"

#: Proposer phases (Algorithm 1's ``state`` variable).
DISCLOSING = "disclosing"
PROPOSING = "proposing"
DECIDED = "decided"


class WTSProcess(AgreementProcess):
    """One WTS participant playing both the proposer and the acceptor role.

    Parameters
    ----------
    pid, lattice, members, f:
        See :class:`~repro.core.process.AgreementProcess`.
    proposal:
        This process's input value ``pro_i`` (a lattice element).  ``None``
        models a process that participates as an acceptor only; it then
        proposes the lattice bottom, which keeps the ``n - f`` disclosure
        counting of the algorithm intact.
    """

    def __init__(
        self,
        pid: Hashable,
        lattice: JoinSemilattice,
        members: Sequence[Hashable],
        f: int,
        proposal: LatticeElement | None = None,
    ) -> None:
        super().__init__(pid, lattice, members, f)
        self.proposal: LatticeElement = (
            proposal if proposal is not None else lattice.bottom()
        )
        if not lattice.is_element(self.proposal):
            raise ValueError(f"proposal {proposal!r} is not a lattice element")

        # --- proposer state (Algorithm 1 lines 1-4) ---
        self.state = DISCLOSING
        self.ts = 0
        self.init_counter = 0
        self.proposed_set: LatticeElement = lattice.bottom()
        self.ack_senders: set[Hashable] = set()
        #: Safe-values set: the disclosed values delivered by reliable
        #: broadcast, one slot per origin (Observation 1).
        self.svs: dict[Hashable, LatticeElement] = {}
        #: Running join of every value in ``svs``, kept as deliveries add
        #: them (as GWTS keeps ``W_r``), so ``is_safe`` does not re-join
        #: ``SvS`` on every check.
        self._safe_bound: LatticeElement = lattice.bottom()
        #: Number of proposal refinements performed (Lemma 3 bounds it by f).
        self.refinements = 0

        # --- acceptor state (Algorithm 2 line 1) ---
        self.accepted_set: LatticeElement = lattice.bottom()

        self._rb: ReliableBroadcaster | None = None

    # -- lifecycle ------------------------------------------------------------------

    def on_start(self) -> None:
        """Disclose the proposed value with a Byzantine reliable broadcast."""
        self._rb = ReliableBroadcaster(
            node=self, n=self.n, f=self.f, deliver=self._on_rb_deliver
        )
        # Algorithm 1 lines 6-8: Proposed_set ∪= proposed_value; reliable
        # broadcast of the proposed value to every member.
        self.proposed_set = self.lattice.join(self.proposed_set, self.proposal)
        self._disclose()

    def _disclose(self) -> None:
        """Send this process's disclosure: a reliable broadcast of ``proposal``."""
        self._rb.broadcast(DISCLOSURE_TAG, self.proposal)

    # -- message handling --------------------------------------------------------------

    def on_message(self, sender: Hashable, payload: Any) -> None:
        if self._rb is not None and self._rb.handle(sender, payload):
            return
        if isinstance(payload, (AckRequest, Ack, Nack)):
            # Algorithm 1 lines 19-20 / Algorithm 2 lines 3-4: buffer, then
            # handle once (and if) the message becomes safe.
            self.waiting_msgs.append((sender, payload))
            self._drain_waiting()
            self.recheck()

    # -- reliable broadcast delivery (Values Disclosure Phase) ---------------------------

    def _on_rb_deliver(self, origin: Hashable, tag: Hashable, value: Any) -> None:
        """``RBcastDelivery`` handler (Algorithm 1 lines 9-14)."""
        if tag != DISCLOSURE_TAG or origin not in self.members:
            return
        if not self.lattice.is_element(value):
            # Byzantine garbage: filtered exactly as in line 10.
            return
        if origin in self.svs:
            # The reliable broadcast delivers at most once per origin, so this
            # is unreachable for correct peers; guard anyway (Observation 1).
            return
        self.svs[origin] = value
        self._safe_bound = self.lattice.join(self._safe_bound, value)
        self.init_counter += 1
        if self.state == DISCLOSING:
            self.proposed_set = self.lattice.join(self.proposed_set, value)
        self._drain_waiting()
        self.recheck()

    # -- safety predicate -----------------------------------------------------------------

    def safe_upper_bound(self) -> LatticeElement:
        """Join of every value currently in ``SvS``."""
        return self._safe_bound

    def is_safe(self, element: LatticeElement) -> bool:
        """``SAFE(m)``: the lattice content of ``m`` is covered by ``SvS``."""
        return self.lattice.leq(element, self.safe_upper_bound())

    # -- guard evaluation -------------------------------------------------------------------

    def try_progress(self) -> bool:
        # Algorithm 1 line 16: upon init_counter >= (n - f) while disclosing,
        # move to the Deciding Phase and issue the first ack request.
        if self.state == DISCLOSING and self.init_counter >= self.disclosure_threshold:
            self.state = PROPOSING
            self._broadcast_ack_request()
            return True
        # Algorithm 1 line 31: upon |Ack_set| >= floor((n+f)/2)+1, decide.
        if self.state == PROPOSING and len(self.ack_senders) >= self.quorum:
            self.state = DECIDED
            self.record_decision(self.proposed_set)
            return True
        return False

    # -- deciding phase ----------------------------------------------------------------------

    def _broadcast_ack_request(self) -> None:
        request = AckRequest(proposed_set=self.proposed_set, ts=self.ts)
        self.broadcast(request)

    def _try_handle(self, sender: Hashable, payload: Any) -> bool:
        """Handle ``payload`` if its guard is satisfied; return ``True`` if consumed."""
        if isinstance(payload, AckRequest):
            return self._handle_ack_request(sender, payload)
        if isinstance(payload, Ack):
            return self._handle_ack(sender, payload)
        if isinstance(payload, Nack):
            return self._handle_nack(sender, payload)
        # Unknown payloads (Byzantine junk) are consumed and dropped.
        return True

    # Acceptor role (Algorithm 2) -----------------------------------------------------------

    def _handle_ack_request(self, sender: Hashable, msg: AckRequest) -> bool:
        if not self.lattice.is_element(msg.proposed_set):
            return True  # drop malformed Byzantine requests
        if not self.is_safe(msg.proposed_set):
            return False  # keep buffered until the values are disclosed
        if self.lattice.leq(self.accepted_set, msg.proposed_set):
            # Lines 7-9: adopt the proposal and ack it.
            self.accepted_set = msg.proposed_set
            self.send_to(sender, Ack(accepted_set=self.accepted_set, ts=msg.ts))
        else:
            # Lines 10-12: refuse, return what we have, then absorb theirs.
            self.send_to(sender, Nack(accepted_set=self.accepted_set, ts=msg.ts))
            self.accepted_set = self.lattice.join(self.accepted_set, msg.proposed_set)
        return True

    # Proposer role, deciding phase (Algorithm 1 lines 21-30) ---------------------------------

    def _handle_ack(self, sender: Hashable, msg: Ack) -> bool:
        if self.state != PROPOSING or msg.ts != self.ts:
            return True  # stale or early acks are discarded
        if not self.lattice.is_element(msg.accepted_set):
            return True
        if not self.is_safe(msg.accepted_set):
            return False
        self.ack_senders.add(sender)
        return True

    def _handle_nack(self, sender: Hashable, msg: Nack) -> bool:
        if self.state != PROPOSING or msg.ts != self.ts:
            return True
        if not self.lattice.is_element(msg.accepted_set):
            return True
        if not self.is_safe(msg.accepted_set):
            return False
        merged = self.lattice.join(msg.accepted_set, self.proposed_set)
        if merged != self.proposed_set:
            # Lines 26-30: refine the proposal and start a new ack round.
            self.proposed_set = merged
            self.ack_senders = set()
            self.ts += 1
            self.refinements += 1
            self._broadcast_ack_request()
        return True
