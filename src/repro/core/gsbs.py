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

Those phases are SbS's own code in :mod:`repro.core.sbs`, called with this
core's round stamp: the signed init value is ``(round, element)``, the
safe_ack is a :class:`~repro.core.messages.GSbSSafeAck` signed over
``("gsbs_safe_ack", rcvd, conflicts, request_id, round)``, and the vetting of
a safety set, the proposer's safe_ack check, proof building and ``AllSafe``
are shared (``ack_class=GSbSSafeAck``), and so is the value order on
carriers (one proof per signed value, ordered by ``{pv.value}``; see
:mod:`repro.core.sbs`), which the certificate test and ``_decide`` use too.
The round loop (per-round input queues, the ``batch_size`` cap and the
``max_rounds`` horizon) is
:class:`~repro.core.process.GeneralizedProcess`'s, shared with GWTS.  What
stays here is GSbS's own: the round's init phase (``_start_round``), the
per-round state, the signed acks (:func:`gsbs_ack_body`,
:func:`verify_gsbs_ack`), decided certificates and trusted-round gating.
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
from repro.core.process import NEWROUND, GeneralizedProcess
from repro.core.sbs import (
    accept,
    all_safe,
    answer_safe_request,
    build_proofs,
    join_values,
    remove_conflicts,
    safe_ack_valid,
    signed_values,
    signs_elements,
)
from repro.crypto.signatures import KeyRegistry, SignedValue, Signer, canonical_bytes
from repro.lattice.base import JoinSemilattice, LatticeElement

#: Proposer phases within a round (the round driver adds ``NEWROUND`` and
#: ``HALTED``).
INIT = "init"
SAFETYING = "safetying"
PROPOSING = "proposing"


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


def verify_gsbs_ack(registry: KeyRegistry, ack: GSbSAck) -> bool:
    """Signature + body check for a round-stamped signed ack (memoised per ack).

    A non-frozenset ``accepted_set`` is rejected, not raised on.
    """
    if not isinstance(ack, GSbSAck) or not isinstance(ack.signature, SignedValue):
        return False
    return registry.memo_check("gsbs_ack", ack, None, _gsbs_ack_signed, registry, ack)


def _gsbs_ack_signed(registry: KeyRegistry, ack: GSbSAck) -> bool:
    if not isinstance(ack.accepted_set, frozenset):
        return False
    expected = gsbs_ack_body(ack.accepted_set, ack.destination, ack.ts, ack.round)
    return ack.signature.value == expected and registry.verify(ack.signature)


def verify_certificate(
    registry: KeyRegistry, certificate: DecidedCertificate, quorum: int
) -> bool:
    """Well-formedness of a decided certificate (Section 8.2).

    The certificate must carry a frozenset of at least ``quorum`` validly
    signed acks from *distinct* acceptors, all acknowledging exactly the
    certified ``(accepted_set, destination, ts, round)``.
    """
    if not isinstance(certificate, DecidedCertificate) or not isinstance(certificate.acks, frozenset):
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


class GSbSProcess(GeneralizedProcess):
    """One GSbS participant playing both the proposer and the acceptor role.

    ``registry`` is the shared PKI; the other parameters are
    :class:`~repro.core.process.GeneralizedProcess`'s.
    """

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
        super().__init__(pid, lattice, members, f, max_rounds, initial_values, batch_size)
        self.registry = registry
        self.signer: Signer = registry.register(pid)

        # --- proposer state ---
        #: Per-round collections of signed round-batches (the init phase).
        self.safety_sets: dict[int, frozenset[SignedValue]] = defaultdict(frozenset)
        #: Per-round collected safe_acks, keyed by acceptor.
        self.safe_acks: dict[int, dict[Hashable, GSbSSafeAck]] = defaultdict(dict)
        self.proposed_set: frozenset[ProvenValue] = frozenset()
        self.proposed_values: frozenset[SignedValue] = frozenset()
        self.decided_proven: frozenset[ProvenValue] = frozenset()
        self.decided_values: frozenset[SignedValue] = frozenset()
        self.ack_records: dict[Hashable, GSbSAck] = {}
        self.refinements_by_round: dict[int, int] = defaultdict(int)
        #: Certificates observed, keyed by round.
        self.certificates: dict[int, DecidedCertificate] = {}

        # --- acceptor state ---
        self.accepted_set: frozenset[ProvenValue] = frozenset()
        self.accepted_values: frozenset[SignedValue] = frozenset()
        self.safe_candidates: dict[int, frozenset[SignedValue]] = defaultdict(frozenset)
        self.trusted_round = 0

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
        # The signed payload is (round, batch-element); both parts are checked.
        if not signs_elements(self.registry, self.lattice, (value,), GSbSSafeAck, msg.round):
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
        if not isinstance(msg.round, int):
            return
        answer = answer_safe_request(
            self.registry, self.lattice, self.signer, GSbSSafeAck,
            msg.safety_set, self.safe_candidates[msg.round], msg.request_id, msg.round,
        )
        if answer is not None:
            ack, self.safe_candidates[msg.round] = answer
            self.send_to(sender, ack)

    def _handle_safe_ack(self, sender: Hashable, msg: GSbSSafeAck) -> None:
        if (
            self.state == SAFETYING
            and msg.round == self.round
            and safe_ack_valid(self.registry, msg, sender, GSbSSafeAck, self.safety_sets[self.round])
        ):
            self.safe_acks[self.round][sender] = msg

    # -- proposing phase ---------------------------------------------------------------------------------

    def _try_handle(self, sender: Hashable, msg: GSbSAckRequest) -> bool:
        """Acceptor side of an ack request, the one message GSbS buffers.

        Returns ``True`` when consumed, ``False`` to keep it buffered.
        """
        if not isinstance(msg.round, int) or msg.round < 0:
            return True
        if msg.round > self.trusted_round:
            return False  # round gating: not yet trusted (Section 8.2)
        if not self._proven(msg.proposed_set):
            return True
        acked, accepted_set, self.accepted_values = accept(
            self.accepted_set, self.accepted_values, msg.proposed_set
        )
        if acked:
            body = gsbs_ack_body(accepted_set, sender, msg.ts, msg.round)
            ack = GSbSAck(
                accepted_set=accepted_set,
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
        self.accepted_set = accepted_set
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
        if not self._proven(msg.accepted_set):
            return
        proposed_set, proposed_values = join_values(self.proposed_set, self.proposed_values, msg.accepted_set)
        if len(proposed_values) > len(self.proposed_values):
            self.proposed_set, self.proposed_values = proposed_set, proposed_values
            self.ack_records = {}
            self.ts += 1
            self.refinements_by_round[self.round] += 1
            self.broadcast(
                GSbSAckRequest(proposed_set=self.proposed_set, ts=self.ts, round=self.round)
            )

    # -- decided certificates -------------------------------------------------------------------------------

    def _handle_certificate(self, sender: Hashable, msg: DecidedCertificate) -> None:
        if not isinstance(msg.round, int) or msg.round < 0:
            return
        if msg.round in self.certificates:
            return
        if verify_certificate(self.registry, msg, self.quorum) and self._proven(msg.accepted_set):
            self.certificates[msg.round] = msg

    def _proven(self, carrier: Any) -> bool:
        """``AllSafe`` over a frozenset carrier; any other carrier is dropped."""
        return isinstance(carrier, frozenset) and all_safe(
            self.registry, self.lattice, carrier, self.quorum, GSbSSafeAck
        )

    # -- guard evaluation ------------------------------------------------------------------------------------

    def try_progress(self) -> bool:
        # Acceptor trust advancement: trust round r+1 once round r has a
        # well-formed decided certificate.
        if self.trusted_round in self.certificates:
            self.trusted_round += 1
            return True

        # Start the next round.
        if self.state == NEWROUND and self._round_wanted():
            self._new_round()
            return True

        # Init phase complete: enough signed round-batches collected.
        if (
            self.state == INIT
            and len(self.safety_sets[self.round]) >= self.disclosure_threshold
        ):
            self.state = SAFETYING
            self.broadcast(
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
            self.proposed_set = build_proofs(
                self.proposed_set, self.safety_sets[self.round], self.safe_acks[self.round].values()
            )
            self.proposed_values = signed_values(self.proposed_set)
            self.state = PROPOSING
            self.ack_records = {}
            self.ts += 1
            self.broadcast(
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
                self.broadcast(certificate)
                self._decide(self.proposed_set)
                return True
            # Or adopt another proposer's certificate for this round, provided
            # it extends everything we already decided.
            certificate = self.certificates.get(self.round)
            if certificate is not None and self.decided_values <= signed_values(certificate.accepted_set):
                self._decide(certificate.accepted_set)
                return True
        return False

    def _start_round(self) -> None:
        self.state = INIT
        batch_value = self._next_batch()
        signed = self.signer.sign((self.round, batch_value))
        current = set(self.safety_sets[self.round])
        current.add(signed)
        self.safety_sets[self.round] = remove_conflicts(self.registry, current)
        self.broadcast(GSbSInit(payload=signed, round=self.round))

    def _decide(self, proven_set: frozenset[ProvenValue]) -> None:
        self.decided_proven, self.decided_values = join_values(self.decided_proven, self.decided_values, proven_set)
        decision = self.lattice.join_all(
            proven.value.value[1] for proven in self.decided_proven
        )
        self.record_decision(decision, round=self.round)
        self.state = NEWROUND
