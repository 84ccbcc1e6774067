"""GSbS — Generalized Safety by Signature (Section 8.2 of the paper).

The paper only sketches the generalized signature-based algorithm; this
module implements that sketch.  The two functions of GWTS's reliably
broadcast acks are replaced exactly as the paper prescribes:

* acceptors now *sign* their (point-to-point) acks, so a proposer can prove
  to third parties that its proposal was acknowledged;
* before deciding, a proposer broadcasts a **decided certificate** — "a
  special decided message ... [with] attached all the acks used to decide" —
  and a round ``r`` ends when somebody broadcasts a well-formed certificate
  for it (``floor((n+f)/2)+1`` validly signed acks from distinct acceptors
  for the same proposal);
* "a correct acceptor will trust a round r only if it trusted round (r-1)
  and it knows that round (r-1) terminated (this knowledge derives from
  seeing a decided message for round (r-1))".

Interpretation choices (documented here because the paper's Section 8.2 is a
sketch): a proposer may decide either on a quorum of signed acks for its own
proposal (building the certificate itself) or on a valid certificate received
from another proposer, provided the certified set extends everything it has
already decided — the same rule GWTS uses.  The per-round disclosure of GWTS
(reliable broadcast of the batch) is replaced by the SbS init + safetying
phases run per round, which is what keeps the per-decision message count at
``O(f * n)`` per proposer instead of ``O(f * n^2)``.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Hashable, Sequence
from typing import Any

from repro.core.messages import (
    DecidedCertificate,
    GSbSAck,
    GSbSAckRequest,
    GSbSInit,
    GSbSNack,
    GSbSSafeAck,
    GSbSSafeRequest,
    ProvenValue,
)
from repro.core.process import AgreementProcess
from repro.core.sbs import (
    conflicted_values,
    remove_conflicts,
    return_conflicts,
    verify_conflict_pair,
)
from repro.crypto.signatures import KeyRegistry, SignedValue, Signer, canonical_bytes
from repro.lattice.base import JoinSemilattice, LatticeElement

#: Proposer phases.
NEWROUND = "newround"
INIT = "init"
SAFETYING = "safetying"
PROPOSING = "proposing"
HALTED = "halted"


def gsbs_safe_ack_body(
    rcvd_set: frozenset[SignedValue],
    conflicts: frozenset[tuple[SignedValue, SignedValue]],
    request_id: int,
    round_no: int,
) -> tuple[str, tuple[SignedValue, ...], tuple[tuple[SignedValue, SignedValue], ...], int, int]:
    """Canonical signable body of a round-stamped ``safe_ack``."""
    return (
        "gsbs_safe_ack",
        tuple(sorted(rcvd_set, key=canonical_bytes)),
        tuple(sorted(conflicts, key=canonical_bytes)),
        request_id,
        round_no,
    )


def gsbs_ack_body(
    accepted_set: frozenset[ProvenValue],
    destination: Hashable,
    ts: int,
    round_no: int,
) -> tuple[str, tuple[ProvenValue, ...], Hashable, int, int]:
    """Canonical signable body of a round-stamped signed ack (Section 8.2)."""
    return (
        "gsbs_ack",
        tuple(sorted(accepted_set, key=canonical_bytes)),
        destination,
        ts,
        round_no,
    )


def verify_gsbs_safe_ack(
    registry: KeyRegistry, ack: GSbSSafeAck, expected_sender: Hashable
) -> bool:
    """Signature + body check for a round-stamped safe_ack (memoised per ack)."""
    if not isinstance(ack, GSbSSafeAck) or not isinstance(ack.signature, SignedValue):
        return False
    if ack.signature.signer != expected_sender:
        return False
    return registry.memo_check(
        "gsbs_safe_ack", ack, expected_sender, _gsbs_safe_ack_signed, registry, ack
    )


def _gsbs_safe_ack_signed(registry: KeyRegistry, ack: GSbSSafeAck) -> bool:
    expected = gsbs_safe_ack_body(ack.rcvd_set, ack.conflicts, ack.request_id, ack.round)
    return ack.signature.value == expected and registry.verify(ack.signature)


def verify_gsbs_ack(registry: KeyRegistry, ack: GSbSAck) -> bool:
    """Signature + body check for a round-stamped signed ack (memoised per ack)."""
    if not isinstance(ack, GSbSAck) or not isinstance(ack.signature, SignedValue):
        return False
    return registry.memo_check("gsbs_ack", ack, None, _gsbs_ack_signed, registry, ack)


def _gsbs_ack_signed(registry: KeyRegistry, ack: GSbSAck) -> bool:
    expected = gsbs_ack_body(ack.accepted_set, ack.destination, ack.ts, ack.round)
    return ack.signature.value == expected and registry.verify(ack.signature)


def verify_certificate(
    registry: KeyRegistry, certificate: DecidedCertificate, quorum: int
) -> bool:
    """Well-formedness of a decided certificate (Section 8.2).

    The certificate must carry at least ``quorum`` validly signed acks from
    *distinct* acceptors, all acknowledging exactly the certified
    ``(accepted_set, destination, ts, round)``.
    """
    if not isinstance(certificate, DecidedCertificate):
        return False
    signers: set[Hashable] = set()
    for ack in certificate.acks:
        if not verify_gsbs_ack(registry, ack):
            return False
        if (
            ack.accepted_set != certificate.accepted_set
            or ack.destination != certificate.destination
            or ack.ts != certificate.ts
            or ack.round != certificate.round
        ):
            return False
        signers.add(ack.signature.signer)
    return len(signers) >= quorum


def gsbs_value_conflicted_in(ack: GSbSSafeAck, value: SignedValue) -> bool:
    """Whether ``value`` appears in one of ``ack``'s conflict pairs."""
    return any(value == x or value == y for x, y in ack.conflicts)


def gsbs_all_safe(
    registry: KeyRegistry,
    lattice: JoinSemilattice,
    proven_values: Any,
    quorum: int,
) -> bool:
    """``AllSafe`` adapted to round-stamped proofs of safety.

    Checks each proof once per distinct content, in its own
    ``registry.known_safe`` set, and remembers each carrier's verdict by
    identity, like SbS's :func:`~repro.core.sbs.all_safe` (whose docstring
    argues why both are sound).
    """
    if not isinstance(proven_values, frozenset):
        return False
    return registry.memo_check(
        "gsbs_all_safe", proven_values, quorum,
        _gsbs_all_proven_safe, registry, lattice, proven_values, quorum,
    )


def _gsbs_all_proven_safe(
    registry: KeyRegistry, lattice: JoinSemilattice, proven_values: frozenset, quorum: int
) -> bool:
    known = registry.known_safe.setdefault(("gsbs", quorum), set())
    for proven in proven_values - known:
        if not (
            isinstance(proven, ProvenValue)
            and _gsbs_proven_value_safe(registry, lattice, proven, quorum)
        ):
            return False
        known.add(proven)
    return True


def _gsbs_proven_value_safe(
    registry: KeyRegistry, lattice: JoinSemilattice, proven: ProvenValue, quorum: int
) -> bool:
    value = proven.value
    if not isinstance(value, SignedValue) or not registry.verify(value):
        return False
    # GSbS signs (round, batch_element) pairs; the lattice check applies
    # to the batch element, the round tag must be a non-negative int.
    payload = value.value
    if (
        not isinstance(payload, tuple)
        or len(payload) != 2
        or not isinstance(payload[0], int)
        or payload[0] < 0
        or not lattice.is_element(payload[1])
    ):
        return False
    senders: set[Hashable] = set()
    for ack in proven.safe_acks:
        if not isinstance(ack, GSbSSafeAck):
            return False
        if not verify_gsbs_safe_ack(registry, ack, ack.signature.signer):
            return False
        if value not in ack.rcvd_set or gsbs_value_conflicted_in(ack, value):
            return False
        senders.add(ack.signature.signer)
    return len(senders) >= quorum


class GSbSProcess(AgreementProcess):
    """One GSbS participant playing both the proposer and the acceptor role."""

    def __init__(
        self,
        pid: Hashable,
        lattice: JoinSemilattice,
        members: Sequence[Hashable],
        f: int,
        registry: KeyRegistry,
        max_rounds: int = 3,
        initial_values: Sequence[LatticeElement] = (),
        batch_size: int | None = None,
    ) -> None:
        super().__init__(pid, lattice, members, f)
        if max_rounds < 1:
            raise ValueError("max_rounds must be at least 1")
        if batch_size is not None and batch_size < 1:
            raise ValueError("batch_size must be at least 1 (or None for unbounded)")
        self.registry = registry
        self.signer: Signer = registry.register(pid)
        self.max_rounds = max_rounds
        #: Cap on how many queued values one round's proposal may join
        #: (``None`` = unbounded); overflow carries to the next round FIFO.
        self.batch_size = batch_size

        # --- proposer state ---
        self.state = NEWROUND
        self.round = -1
        self.ts = 0
        self.batches: dict[int, list[LatticeElement]] = defaultdict(list)
        self.received_inputs: list[LatticeElement] = []
        #: Per-round collections of signed round-batches (the init phase).
        self.safety_sets: dict[int, frozenset[SignedValue]] = defaultdict(frozenset)
        #: Per-round collected safe_acks, keyed by acceptor.
        self.safe_acks: dict[int, dict[Hashable, GSbSSafeAck]] = defaultdict(dict)
        self.proposed_set: frozenset[ProvenValue] = frozenset()
        self.decided_proven: frozenset[ProvenValue] = frozenset()
        self.ack_records: dict[Hashable, GSbSAck] = {}
        self.refinements_by_round: dict[int, int] = defaultdict(int)
        #: Certificates observed, keyed by round.
        self.certificates: dict[int, DecidedCertificate] = {}

        # --- acceptor state ---
        self.accepted_set: frozenset[ProvenValue] = frozenset()
        self.safe_candidates: dict[int, frozenset[SignedValue]] = defaultdict(frozenset)
        self.trusted_round = 0
        self.waiting_msgs: list[tuple[Hashable, Any]] = []

        for value in initial_values:
            self.new_value(value)

    # -- input interface -------------------------------------------------------------------

    def new_value(self, value: LatticeElement) -> None:
        """Queue ``value`` for the next round's batch."""
        if not self.lattice.is_element(value):
            raise ValueError(f"{value!r} is not a lattice element")
        self.batches[self.round + 1].append(value)
        self.received_inputs.append(value)

    # -- lifecycle --------------------------------------------------------------------------

    def on_start(self) -> None:
        self.recheck()

    def on_message(self, sender: Hashable, payload: Any) -> None:
        if isinstance(payload, GSbSInit):
            self._handle_init(sender, payload)
        elif isinstance(payload, GSbSSafeRequest):
            self._handle_safe_request(sender, payload)
        elif isinstance(payload, GSbSSafeAck):
            self._handle_safe_ack(sender, payload)
        elif isinstance(payload, GSbSAckRequest):
            self.waiting_msgs.append((sender, payload))
        elif isinstance(payload, GSbSAck):
            self._handle_ack(sender, payload)
        elif isinstance(payload, GSbSNack):
            self._handle_nack(sender, payload)
        elif isinstance(payload, DecidedCertificate):
            self._handle_certificate(sender, payload)
        self._drain_waiting()
        self.recheck()

    # -- init phase (per round) ----------------------------------------------------------------

    def _handle_init(self, sender: Hashable, msg: GSbSInit) -> None:
        value = msg.payload
        if not isinstance(value, SignedValue) or not self.registry.verify(value):
            return
        if not isinstance(msg.round, int) or msg.round < 0:
            return
        # The signed payload is (round, batch-element); both parts are checked.
        if not (
            isinstance(value.value, tuple)
            and len(value.value) == 2
            and value.value[0] == msg.round
            and self.lattice.is_element(value.value[1])
        ):
            return
        # The per-round safety set freezes once this process has sent its
        # safe_req for that round (mirrors SbS's ``state = init`` guard);
        # otherwise acceptor echoes could never match it again.
        if msg.round < self.round or (msg.round == self.round and self.state not in (INIT, NEWROUND)):
            return
        current = set(self.safety_sets[msg.round])
        current.add(value)
        self.safety_sets[msg.round] = remove_conflicts(self.registry, current)

    # -- safetying phase (per round) ---------------------------------------------------------------

    def _handle_safe_request(self, sender: Hashable, msg: GSbSSafeRequest) -> None:
        if not isinstance(msg.safety_set, frozenset) or not isinstance(msg.round, int):
            return
        values = msg.safety_set
        if not all(
            isinstance(v, SignedValue)
            and self.registry.verify(v)
            and isinstance(v.value, tuple)
            and len(v.value) == 2
            and v.value[0] == msg.round
            and self.lattice.is_element(v.value[1])
            for v in values
        ):
            return
        combined = values | self.safe_candidates[msg.round]
        conflicts = return_conflicts(self.registry, combined)
        body = gsbs_safe_ack_body(values, conflicts, msg.request_id, msg.round)
        self.send_to(
            sender,
            GSbSSafeAck(
                rcvd_set=values,
                conflicts=conflicts,
                request_id=msg.request_id,
                round=msg.round,
                signature=self.signer.sign(body),
            ),
        )
        # Keep previously vetted candidates (Algorithm 9 line 6's outer union)
        # so equivocations keep being reported for the rest of the round.
        self.safe_candidates[msg.round] |= combined - conflicted_values(conflicts)

    def _handle_safe_ack(self, sender: Hashable, msg: GSbSSafeAck) -> None:
        if self.state != SAFETYING or msg.round != self.round:
            return
        valid = (
            verify_gsbs_safe_ack(self.registry, msg, sender)
            and msg.rcvd_set == self.safety_sets[self.round]
            and all(
                verify_conflict_pair(self.registry, pair) for pair in msg.conflicts
            )
        )
        if valid:
            self.safe_acks[self.round][sender] = msg

    # -- proposing phase ---------------------------------------------------------------------------------

    def _handle_ack_request(self, sender: Hashable, msg: GSbSAckRequest) -> bool:
        """Acceptor side; returns ``True`` when consumed, ``False`` to re-buffer."""
        if not isinstance(msg.round, int) or msg.round < 0:
            return True
        if msg.round > self.trusted_round:
            return False  # round gating: not yet trusted (Section 8.2)
        if not gsbs_all_safe(self.registry, self.lattice, msg.proposed_set, self.quorum):
            return True
        if self.accepted_set <= msg.proposed_set:
            self.accepted_set = msg.proposed_set
            body = gsbs_ack_body(self.accepted_set, sender, msg.ts, msg.round)
            ack = GSbSAck(
                accepted_set=self.accepted_set,
                destination=sender,
                ts=msg.ts,
                round=msg.round,
                signature=self.signer.sign(body),
            )
            self.send_to(sender, ack)
        else:
            self.send_to(
                sender,
                GSbSNack(accepted_set=self.accepted_set, ts=msg.ts, round=msg.round),
            )
            # A stale request inside Accepted_set: the join would only copy it.
            if not msg.proposed_set <= self.accepted_set:
                self.accepted_set = frozenset(self.accepted_set | msg.proposed_set)
        return True

    def _handle_ack(self, sender: Hashable, msg: GSbSAck) -> None:
        if self.state != PROPOSING or msg.ts != self.ts or msg.round != self.round:
            return
        if msg.destination != self.pid:
            return
        if not verify_gsbs_ack(self.registry, msg) or msg.signature.signer != sender:
            return
        if msg.accepted_set != self.proposed_set:
            return
        self.ack_records[sender] = msg

    def _handle_nack(self, sender: Hashable, msg: GSbSNack) -> None:
        if self.state != PROPOSING or msg.ts != self.ts or msg.round != self.round:
            return
        if not gsbs_all_safe(self.registry, self.lattice, msg.accepted_set, self.quorum):
            return
        merged = frozenset(msg.accepted_set | self.proposed_set)
        if merged != self.proposed_set:
            self.proposed_set = merged
            self.ack_records = {}
            self.ts += 1
            self.refinements_by_round[self.round] += 1
            self.send_to_members(
                GSbSAckRequest(proposed_set=self.proposed_set, ts=self.ts, round=self.round)
            )

    # -- decided certificates -------------------------------------------------------------------------------

    def _handle_certificate(self, sender: Hashable, msg: DecidedCertificate) -> None:
        if not isinstance(msg.round, int) or msg.round < 0:
            return
        if msg.round in self.certificates:
            return
        if not verify_certificate(self.registry, msg, self.quorum):
            return
        if not gsbs_all_safe(self.registry, self.lattice, msg.accepted_set, self.quorum):
            return
        self.certificates[msg.round] = msg

    # -- guard evaluation ------------------------------------------------------------------------------------

    def try_progress(self) -> bool:
        # Acceptor trust advancement: trust round r+1 once round r has a
        # well-formed decided certificate.
        if self.trusted_round in self.certificates:
            self.trusted_round += 1
            return True

        # Start the next round.
        if self.state == NEWROUND:
            if self.round + 1 >= self.max_rounds:
                self.state = HALTED
                return True
            self._start_round()
            return True

        # Init phase complete: enough signed round-batches collected.
        if (
            self.state == INIT
            and len(self.safety_sets[self.round]) >= self.disclosure_threshold
        ):
            self.state = SAFETYING
            self.send_to_members(
                GSbSSafeRequest(
                    safety_set=self.safety_sets[self.round],
                    request_id=self.round,
                    round=self.round,
                )
            )
            return True

        # Safetying complete: enough signed safe_acks; build proofs, propose.
        if (
            self.state == SAFETYING
            and len(self.safe_acks[self.round]) >= self.quorum
        ):
            proof = frozenset(self.safe_acks[self.round].values())
            pairs = [pair for ack in proof for pair in ack.conflicts]
            proven: set[ProvenValue] = set(self.proposed_set)
            for value in self.safety_sets[self.round]:
                if not any(value in pair for pair in pairs):
                    proven.add(ProvenValue(value=value, safe_acks=proof))
            self.proposed_set = frozenset(proven)
            self.state = PROPOSING
            self.ack_records = {}
            self.ts += 1
            self.send_to_members(
                GSbSAckRequest(proposed_set=self.proposed_set, ts=self.ts, round=self.round)
            )
            return True

        if self.state == PROPOSING:
            # Decide on our own ack quorum, publishing the certificate first.
            if len(self.ack_records) >= self.quorum:
                certificate = DecidedCertificate(
                    accepted_set=self.proposed_set,
                    destination=self.pid,
                    ts=self.ts,
                    round=self.round,
                    acks=frozenset(self.ack_records.values()),
                )
                self.certificates.setdefault(self.round, certificate)
                self.send_to_members(certificate)
                self._decide(self.proposed_set)
                return True
            # Or adopt another proposer's certificate for this round, provided
            # it extends everything we already decided.
            certificate = self.certificates.get(self.round)
            if certificate is not None and self.decided_proven <= certificate.accepted_set:
                self._decide(certificate.accepted_set)
                return True
        return False

    def _start_round(self) -> None:
        self.state = INIT
        self.round += 1
        pending = self.batches.get(self.round, [])
        if self.batch_size is not None and len(pending) > self.batch_size:
            carried = pending[self.batch_size :]
            self.batches[self.round] = pending = pending[: self.batch_size]
            self.batches[self.round + 1] = carried + self.batches[self.round + 1]
        batch_value = self.lattice.join_all(pending)
        signed = self.signer.sign((self.round, batch_value))
        current = set(self.safety_sets[self.round])
        current.add(signed)
        self.safety_sets[self.round] = remove_conflicts(self.registry, current)
        self.send_to_members(GSbSInit(payload=signed, round=self.round))

    def _decide(self, proven_set: frozenset[ProvenValue]) -> None:
        self.decided_proven = frozenset(self.decided_proven | proven_set)
        decision = self.lattice.join_all(
            proven.value.value[1] for proven in self.decided_proven
        )
        self.record_decision(decision, round=self.round)
        self.state = NEWROUND

    # -- buffered messages -------------------------------------------------------------------------------------

    def _drain_waiting(self) -> None:
        progress = True
        while progress:
            progress = False
            remaining: list[tuple[Hashable, Any]] = []
            for sender, payload in self.waiting_msgs:
                if isinstance(payload, GSbSAckRequest):
                    consumed = self._handle_ack_request(sender, payload)
                else:
                    consumed = True
                if consumed:
                    progress = True
                else:
                    remaining.append((sender, payload))
            self.waiting_msgs = remaining
