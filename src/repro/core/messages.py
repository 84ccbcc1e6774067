"""Algorithm-level message dataclasses for WTS, GWTS, SbS and GSbS.

Each dataclass mirrors one message schema of the paper's pseudocode; the
``mtype`` string is used by the metrics layer to break message counts down by
type (so experiment reports can show, e.g., how the reliable-broadcast terms
dominate WTS's complexity).

All messages are frozen dataclasses: once sent they cannot be mutated by the
receiver, matching the value semantics of messages in the model.
"""

from __future__ import annotations
from collections.abc import Hashable

from dataclasses import dataclass
from typing import Any

from repro.crypto.signatures import SignedValue

# ---------------------------------------------------------------------------
# WTS (Algorithms 1 and 2)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AckRequest:
    """``<ack_req, Proposed_set, ts>`` — proposer asks acceptors to accept."""

    proposed_set: Any
    ts: int
    mtype: str = "ack_req"


@dataclass(frozen=True)
class Ack:
    """``<ack, Accepted_set, ts>`` — acceptor acknowledges the proposal."""

    accepted_set: Any
    ts: int
    mtype: str = "ack"


@dataclass(frozen=True)
class Nack:
    """``<nack, Accepted_set, ts>`` — acceptor refuses and returns what it has."""

    accepted_set: Any
    ts: int
    mtype: str = "nack"


# ---------------------------------------------------------------------------
# GWTS (Algorithms 3 and 4) — round-stamped variants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RoundAckRequest:
    """``<ack_req, Proposed_set, ts, r>`` (Algorithm 3 line 25)."""

    proposed_set: Any
    ts: int
    round: int
    mtype: str = "ack_req"


@dataclass(frozen=True)
class RoundAck:
    """``<ack, proposal, destination, sender, ts, r>`` (Algorithm 4 line 10).

    ``destination`` is the proposer whose request is being acknowledged and
    ``sender`` the acceptor issuing the ack.  GWTS reliably-broadcasts these
    so that every proposer can observe committed proposals and decide even on
    proposals it did not issue.

    The paper's ack carries the acceptor's ``Accepted_set``, which is the
    acknowledged request's ``Proposed_set``.  ``proposal`` names that request
    instead: its canonical token (:func:`repro.core.gwts.request_token`,
    ``"H"`` + SHA-256), which every receiver resolves against the requests it
    received itself (the argument is in :mod:`repro.core.gwts`), so the frame
    stays the same size as the set grows.  The crash-GLA baseline's
    point-to-point ack has the same shape; its proposer reads only ``ts`` and
    ``round``.
    """

    proposal: str
    destination: Hashable
    sender: Hashable
    ts: int
    round: int
    mtype: str = "ack"


@dataclass(frozen=True)
class RoundNack:
    """``<nack, Accepted_set, ts, r>`` (Algorithm 4 line 12)."""

    accepted_set: Any
    ts: int
    round: int
    mtype: str = "nack"


# ---------------------------------------------------------------------------
# SbS (Algorithms 8, 9, 10)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InitPhase:
    """``<init_phase, payload>`` — signed initial value broadcast to proposers."""

    payload: SignedValue
    mtype: str = "init_phase"


@dataclass(frozen=True)
class SafeRequest:
    """``<safe_req, Safety_set>`` — proposer asks acceptors to vet its values."""

    safety_set: frozenset[SignedValue]
    request_id: int
    mtype: str = "safe_req"


@dataclass(frozen=True)
class SafeAck:
    """``Sign(<safe_ack, Rcvd_set, Conflicts, rts>)`` — acceptor's signed reply.

    ``conflicts`` is a frozenset of (SignedValue, SignedValue) pairs proving
    equivocation by their common signer.  The whole message body is signed by
    the acceptor (``signature``), so proposers can attach it to proposals as a
    transferable proof of safety.
    """

    rcvd_set: frozenset[SignedValue]
    conflicts: frozenset[tuple[SignedValue, SignedValue]]
    request_id: int
    signature: SignedValue
    mtype: str = "safe_ack"


@dataclass(frozen=True)
class ProvenValue:
    """``<v, Safe_acks>`` — a signed value bundled with its proof of safety."""

    value: SignedValue
    safe_acks: frozenset[SafeAck]

    @property
    def raw(self) -> Any:
        """The underlying application/lattice value."""
        return self.value.value


@dataclass(frozen=True)
class SbSAckRequest:
    """``<ack_req, Proposed_set, ts>`` with proofs of safety attached."""

    proposed_set: frozenset[ProvenValue]
    ts: int
    mtype: str = "ack_req"


@dataclass(frozen=True)
class SbSAck:
    """``<ack, Accepted_set, rts>`` — plain (point-to-point) acceptor ack."""

    accepted_set: frozenset[ProvenValue]
    ts: int
    mtype: str = "ack"


@dataclass(frozen=True)
class SbSNack:
    """``<nack, Accepted_set, rts>`` — acceptor refusal carrying its state."""

    accepted_set: frozenset[ProvenValue]
    ts: int
    mtype: str = "nack"


# ---------------------------------------------------------------------------
# GSbS (Section 8.2) — round-stamped signature-based messages
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GSbSInit:
    """Round-stamped signed disclosure of a batch of values."""

    payload: SignedValue
    round: int
    mtype: str = "init_phase"


@dataclass(frozen=True)
class GSbSSafeRequest:
    """Round-stamped ``safe_req``."""

    safety_set: frozenset[SignedValue]
    request_id: int
    round: int
    mtype: str = "safe_req"


@dataclass(frozen=True)
class GSbSSafeAck:
    """Round-stamped signed ``safe_ack``."""

    rcvd_set: frozenset[SignedValue]
    conflicts: frozenset[tuple[SignedValue, SignedValue]]
    request_id: int
    round: int
    signature: SignedValue
    mtype: str = "safe_ack"


@dataclass(frozen=True)
class GSbSAckRequest:
    """Round-stamped ``ack_req`` carrying proven values."""

    proposed_set: frozenset[ProvenValue]
    ts: int
    round: int
    mtype: str = "ack_req"


@dataclass(frozen=True)
class GSbSAck:
    """Round-stamped signed acceptor ack (point-to-point, Section 8.2).

    ``signature`` covers ``(accepted_set, destination, ts, round)`` so a
    proposer can assemble a transferable *decided certificate* out of a
    quorum of these.
    """

    accepted_set: frozenset[ProvenValue]
    destination: Hashable
    ts: int
    round: int
    signature: SignedValue
    mtype: str = "ack"


@dataclass(frozen=True)
class GSbSNack:
    """Round-stamped nack."""

    accepted_set: frozenset[ProvenValue]
    ts: int
    round: int
    mtype: str = "nack"


@dataclass(frozen=True)
class DecidedCertificate:
    """``decided`` message of Section 8.2: a quorum of signed acks for a round.

    "Any correct proposer broadcast[s] a special decided message before
    deciding, such message has attached all the acks used to decide" — the
    certificate is well-formed when it carries ``floor((n+f)/2)+1`` acks from
    distinct acceptors, all validly signed, for the same
    ``(accepted_set, destination, ts, round)``.
    """

    accepted_set: frozenset[ProvenValue]
    destination: Hashable
    ts: int
    round: int
    acks: frozenset[GSbSAck]
    mtype: str = "decided"
