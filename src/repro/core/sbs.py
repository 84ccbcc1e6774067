"""SbS — Safety by Signature (Algorithms 8, 9 and 10, Section 8).

The signature-based single-shot Byzantine Lattice Agreement algorithm.  It
replaces the `O(n^2)`-message reliable broadcast of WTS with three cheaper
phases, at the price of larger messages:

* **Init** — every proposer broadcasts its *signed* initial value to the
  proposers; a proposer collects ``n - f`` of them into its ``Safety_set``
  (conflicting pairs — two different values signed by the same process — are
  removed on sight).
* **Safetying** — the proposer sends its ``Safety_set`` to the acceptors;
  each acceptor answers with a *signed* ``safe_ack`` listing every conflict
  it knows about.  A value with a Byzantine quorum of safe_acks in which it
  never appears as a conflict has a transferable **proof of safety**
  (Definition 7): no other value signed by the same sender can ever obtain
  one (Lemma 13).
* **Proposing** — identical to WTS's deciding phase, except every value
  carries its proof of safety and acceptors/proposers refuse to process
  messages containing unproven values (``AllSafe``).

Message complexity is ``O(n)`` per process when ``f = O(1)`` (Section 8.1)
and the decision latency is at most ``5 + 4f`` message delays (Theorem 8).

**One proof per signed value.**  A carrier — ``Proposed_set``,
``Accepted_set``, and the set an ack request, ack, nack or GSbS decided
certificate carries — is a frozenset of :class:`ProvenValue` holding at most
one proof per signed value, and carriers are ordered by their signed-value
sets ``{pv.value}`` (:func:`signed_values`).  Every order test compares those
sets: the acceptor's ``Accepted_set ⊆ Proposed_set`` and its nack join
(:func:`accept`), the proposer's "did the nack grow me" test, and GSbS's
"does the certificate extend my decisions".  A new value enters a carrier
with the proof it arrived with (:func:`join_values`); a second proof of a
known value never grows a carrier, so it never causes a refinement, and
``AllSafe`` rejects a carrier holding two proofs of one value.  This is
sound for three reasons:

1. A correct acceptor's accepted *value* set only grows: it either adopts a
   proposal whose values include all it accepted, or joins in the new
   values.  The proofs it keeps may change, the values never shrink, so the
   proof that any two acked proposals are comparable, and hence that
   decisions are, is WTS's argument over value sets.
2. Lemma 13 is about values: once one valid proof of safety exists for a
   signed value, no other value by the same signer can get one.  Nothing in
   it depends on which proof is shown.
3. A kept proof is as good as any other: ``AllSafe`` checked it, and a proof
   is transferable evidence (Definition 7) whose verdict depends only on its
   content, so any process re-checking it gets the same answer.  The
   decision is the join of the values' raw elements, which the proof never
   touches.
"""

from __future__ import annotations
from collections.abc import Hashable, Iterable, Sequence

from typing import Any

from repro.core.messages import (
    GSbSSafeAck,
    InitPhase,
    ProvenValue,
    SafeAck,
    SafeRequest,
    SbSAck,
    SbSAckRequest,
    SbSNack,
)
from repro.core.process import AgreementProcess
from repro.crypto.signatures import KeyRegistry, SignedValue, Signer, canonical_bytes
from repro.lattice.base import JoinSemilattice, LatticeElement

#: Proposer phases (Algorithm 8's ``state`` variable).
INIT = "init"
SAFETYING = "safetying"
PROPOSING = "proposing"
DECIDED = "decided"


# ---------------------------------------------------------------------------
# Helper procedures (Algorithm 10) — module-level so acceptors, proposers and
# the tests share one implementation.
# ---------------------------------------------------------------------------


def verify_conflict_pair(
    registry: KeyRegistry, pair: tuple[SignedValue, SignedValue]
) -> bool:
    """``VerifyConfPair((x, y))``: both signed, same signer, different values."""
    x, y = pair
    return (
        registry.verify(x)
        and registry.verify(y)
        and x.signer == y.signer
        and x.value != y.value
    )


def return_conflicts(
    registry: KeyRegistry, values: Iterable[SignedValue]
) -> frozenset[tuple[SignedValue, SignedValue]]:
    """``ReturnConflicts(Set)``: all verifiable conflicting pairs in ``values``.

    A conflict is two validly signed values from one signer, so only values
    sharing a signer are compared: each value is verified once and the work is
    linear in ``values`` plus the equivocators' pairs.  The result equals the
    all-pairs :func:`verify_conflict_pair` scan of Algorithm 10.
    """
    by_signer: dict[Hashable, list[SignedValue]] = {}
    for x in values:
        if registry.verify(x):
            by_signer.setdefault(x.signer, []).append(x)
    conflicts: set[tuple[SignedValue, SignedValue]] = set()
    for group in by_signer.values():
        for i, x in enumerate(group):
            for y in group[i + 1 :]:
                if x.value != y.value:
                    # Store in a canonical orientation so the same logical
                    # pair is never counted twice.
                    conflicts.add((x, y) if canonical_bytes(x) <= canonical_bytes(y) else (y, x))
    return frozenset(conflicts)


def conflicted_values(
    conflicts: Iterable[tuple[SignedValue, SignedValue]],
) -> set[SignedValue]:
    """Every value that appears in one of ``conflicts``' pairs."""
    return {value for pair in conflicts for value in pair}


def remove_conflicts(
    registry: KeyRegistry, values: Iterable[SignedValue]
) -> frozenset[SignedValue]:
    """``RemoveConflicts(Set)``: drop every value involved in a conflict."""
    values = set(values)
    return frozenset(values - conflicted_values(return_conflicts(registry, values)))


def safe_ack_body(
    rcvd_set: frozenset[SignedValue],
    conflicts: frozenset[tuple[SignedValue, SignedValue]],
    request_id: int,
    round_no: int | None = None,
) -> tuple:
    """Canonical signable body of a ``safe_ack`` message.

    SbS signs ``("safe_ack", rcvd, conflicts, request_id)``; GSbS passes its
    ``round_no`` and signs ``("gsbs_safe_ack", rcvd, conflicts, request_id,
    round_no)``.  Members are sorted by
    :func:`~repro.crypto.signatures.canonical_bytes`, so the body, and the tag
    over it, is the same in every interpreter.
    """
    rcvd = tuple(sorted(rcvd_set, key=canonical_bytes))
    pairs = tuple(sorted(conflicts, key=canonical_bytes))
    if round_no is None:
        return ("safe_ack", rcvd, pairs, request_id)
    return ("gsbs_safe_ack", rcvd, pairs, request_id, round_no)


def signs_elements(
    registry: KeyRegistry,
    lattice: JoinSemilattice,
    values: Iterable[Any],
    ack_class: type,
    round_no: int | None = None,
) -> bool:
    """Whether every one of ``values`` is a validly signed init value
    (Algorithm 8 line 13).

    SbS (``ack_class`` :class:`SafeAck`) signs a lattice element.  GSbS
    (:class:`GSbSSafeAck`) signs a ``(round, element)`` pair whose round is an
    int ``>= 0``, equal to ``round_no`` when one is given.  One call walks a
    whole safety set: this runs for every value every acceptor vets.
    """
    for value in values:
        if not isinstance(value, SignedValue) or not registry.verify(value):
            return False
        payload = value.value
        if ack_class is not SafeAck:
            if not (
                isinstance(payload, tuple)
                and len(payload) == 2
                and isinstance(payload[0], int)
                and payload[0] >= 0
                and (round_no is None or payload[0] == round_no)
            ):
                return False
            payload = payload[1]
        if not lattice.is_element(payload):
            return False
    return True


def answer_safe_request(
    registry: KeyRegistry,
    lattice: JoinSemilattice,
    signer: Signer,
    ack_class: type,
    values: Any,
    candidates: frozenset[SignedValue],
    request_id: int,
    round_no: int | None = None,
) -> tuple[SafeAck | GSbSSafeAck, frozenset[SignedValue]] | None:
    """Acceptor side of the safetying phase (Algorithm 9 lines 3-6).

    Returns the signed ``ack_class`` answering ``values`` and the acceptor's
    new ``SafeCandidates``, or ``None`` when ``values`` is not a frozenset of
    validly signed values (:func:`signs_elements`).  GSbS passes the
    request's ``round_no``, which stamps the values, the body and the ack.
    """
    if not isinstance(values, frozenset) or not signs_elements(registry, lattice, values, ack_class, round_no):
        return None
    combined = values | candidates
    conflicts = return_conflicts(registry, combined)
    stamp = {} if round_no is None else {"round": round_no}
    ack = ack_class(
        rcvd_set=values,
        conflicts=conflicts,
        request_id=request_id,
        signature=signer.sign(safe_ack_body(values, conflicts, request_id, round_no)),
        **stamp,
    )
    # Algorithm 9 line 6: SafeCandidates ∪ RemoveConflicts(...), with
    # RemoveConflicts read off the conflicts just computed.  The outer union
    # matters: a value that already reached the candidate set is never
    # forgotten, so an equivocating signer keeps being reported as a conflict
    # forever (this is what makes Lemma 13 hold).
    return ack, candidates | (combined - conflicted_values(conflicts))


def verify_safe_ack(
    registry: KeyRegistry, ack: Any, expected_sender: Hashable, ack_class: type = SafeAck
) -> bool:
    """``Verify(m)`` for safe_ack messages: signature matches body and sender.

    ``ack`` must be an ``ack_class`` (the calling core's safe_ack message)
    and well formed: frozenset ``rcvd_set`` and ``conflicts``, every conflict
    a pair.  Anything else a Byzantine sender signs is rejected, not raised on.
    """
    if not isinstance(ack, ack_class) or not isinstance(ack.signature, SignedValue):
        return False
    if ack.signature.signer != expected_sender:
        return False
    # Reconstructing the canonical body is linear in the safety set; the same
    # ack object is re-checked for every value it vouches for, so memoise by
    # identity (see :meth:`KeyRegistry.memo_check`).
    return registry.memo_check("safe_ack", ack, expected_sender, _safe_ack_signed, registry, ack)


def _safe_ack_signed(registry: KeyRegistry, ack: SafeAck | GSbSSafeAck) -> bool:
    if not (
        isinstance(ack.rcvd_set, frozenset)
        and isinstance(ack.conflicts, frozenset)
        and all(isinstance(pair, tuple) and len(pair) == 2 for pair in ack.conflicts)
    ):
        return False
    body = safe_ack_body(ack.rcvd_set, ack.conflicts, ack.request_id, getattr(ack, "round", None))
    return ack.signature.value == body and registry.verify(ack.signature)


def safe_ack_valid(
    registry: KeyRegistry, ack: Any, sender: Hashable, ack_class: type, safety_set: frozenset[SignedValue]
) -> bool:
    """Proposer side (Algorithm 8 lines 19-23): ``sender``'s signed ack of
    ``safety_set`` whose every reported conflict verifies."""
    return (
        verify_safe_ack(registry, ack, sender, ack_class)
        and ack.rcvd_set == safety_set
        and all(verify_conflict_pair(registry, pair) for pair in ack.conflicts)
    )


def build_proofs(
    proposed_set: frozenset[ProvenValue],
    safety_set: frozenset[SignedValue],
    safe_acks: Iterable[SafeAck | GSbSSafeAck],
) -> frozenset[ProvenValue]:
    """Algorithm 8 lines 25-28: ``proposed_set`` plus every value of
    ``safety_set`` that no ack lists as a conflict, each proven by the quorum
    ``safe_acks``.  A value ``proposed_set`` already holds keeps its proof."""
    proof = frozenset(safe_acks)
    pairs = [pair for ack in proof for pair in ack.conflicts]
    known = signed_values(proposed_set)
    proven: set[ProvenValue] = set(proposed_set)
    for value in safety_set:
        if value not in known and not any(value in pair for pair in pairs):
            proven.add(ProvenValue(value=value, safe_acks=proof))
    return frozenset(proven)


def signed_values(carrier: Iterable[ProvenValue]) -> frozenset[SignedValue]:
    """``{pv.value}``: the signed values a vetted carrier holds, by which
    carriers are ordered."""
    return frozenset(proven.value for proven in carrier)


def join_values(
    carrier: frozenset[ProvenValue], values: frozenset[SignedValue], other: Iterable[ProvenValue]
) -> tuple[frozenset[ProvenValue], frozenset[SignedValue]]:
    """``carrier`` (whose signed values are ``values``) joined with ``other``
    in the value order, and the join's values.  A member of ``other`` enters
    with its proof only if its value is new; a known value keeps its proof."""
    fresh = [proven for proven in other if proven.value not in values]
    if not fresh:
        return carrier, values
    return carrier.union(fresh), values.union(proven.value for proven in fresh)


def accept(
    accepted_set: frozenset[ProvenValue],
    accepted_values: frozenset[SignedValue],
    proposed_set: frozenset[ProvenValue],
) -> tuple[bool, frozenset[ProvenValue], frozenset[SignedValue]]:
    """Algorithm 9 lines 7-14 in the value order: ``(ack?, Accepted_set', its values)``.

    ``proposed_set`` must have passed :func:`all_safe`, so it holds one proof
    per value: the joined values number ``len(proposed_set)`` exactly when
    every accepted value is among the proposal's.  Then the acceptor acks
    and adopts ``proposed_set`` itself; otherwise it nacks and keeps the
    join, each new value with the proof it arrived with.
    """
    joined, values = join_values(accepted_set, accepted_values, proposed_set)
    if len(values) == len(proposed_set):
        return True, proposed_set, values
    return False, joined, values


def value_conflicted_in(ack: SafeAck | GSbSSafeAck, value: SignedValue) -> bool:
    """Whether ``value`` appears in one of ``ack``'s conflict pairs."""
    return any(value == x or value == y for x, y in ack.conflicts)


#: ``registry.known_safe`` scope name per core, keyed by its safe_ack class.
_SCOPES = {SafeAck: "sbs", GSbSSafeAck: "gsbs"}


def all_safe(
    registry: KeyRegistry,
    lattice: JoinSemilattice,
    proven_values: Iterable[ProvenValue],
    quorum: int,
    ack_class: type = SafeAck,
) -> bool:
    """``AllSafe(Set)`` (Algorithm 10 lines 13-20), for SbS and GSbS.

    Every ``<v, Acks>`` pair must carry a Byzantine quorum of valid, distinct
    safe_acks that (a) all contain ``v`` in their received set and (b) never
    list ``v`` as a conflict; ``v`` itself must be a validly signed lattice
    point (:func:`signs_elements`).  The acks must be of the calling
    core's ``ack_class``: a GSbS proof holding an SbS ack fails, and the
    reverse.  The set must hold at most one proof per signed value (see the
    module docstring); that test runs only once every member has passed, so
    it never reads ``.value`` off anything but a ``ProvenValue``.

    Each proof is checked once per distinct content.  A frozenset carrier
    checks only ``carrier - known``, where ``known`` (``registry.known_safe``,
    one set per core and quorum) holds every ``ProvenValue`` that passed.
    This is sound because the verdict depends only on the value's content,
    the registry's keys and the lattice, which one registry's run fixes, and
    frozen dataclasses compare by content: a value equal to one that passed
    passes, and any other value (one tampered tag, say) is checked.  The
    difference uses the hashes a frozenset keeps, so it rehashes nothing.
    One carrier object reaches an acceptor in every ack request and nack
    that shares it, so its verdict is also kept by identity
    (:meth:`~repro.crypto.signatures.KeyRegistry.memo_check`), which is
    cheaper than the difference over hundreds of proofs.  Any other
    iterable is walked in full and remembers nothing.
    """
    if not isinstance(proven_values, frozenset):
        members = list(proven_values)
        return all(
            _proven_value_safe(registry, lattice, proven, quorum, ack_class)
            for proven in members
        ) and len(signed_values(members)) == len(set(members))
    scope = (_SCOPES[ack_class], quorum)
    return registry.memo_check(
        "all_safe", proven_values, scope,
        _all_proven_safe, registry, lattice, proven_values, scope, ack_class,
    )


def _all_proven_safe(
    registry: KeyRegistry,
    lattice: JoinSemilattice,
    proven_values: frozenset,
    scope: tuple[str, int],
    ack_class: type,
) -> bool:
    """Check the members of a carrier not yet in ``known``, remembering those
    that pass, then that no two members share a signed value."""
    known = registry.known_safe.setdefault(scope, set())
    for proven in proven_values - known:
        if not _proven_value_safe(registry, lattice, proven, scope[1], ack_class):
            return False
        known.add(proven)
    return len(signed_values(proven_values)) == len(proven_values)


def _proven_value_safe(
    registry: KeyRegistry,
    lattice: JoinSemilattice,
    proven: Any,
    quorum: int,
    ack_class: type,
) -> bool:
    """Uncached per-value check behind :func:`all_safe`.

    The ack count comes first, then the distinct signers, and only then is
    any ack verified.
    """
    if not isinstance(proven, ProvenValue):
        return False
    value, acks = proven.value, proven.safe_acks
    if not signs_elements(registry, lattice, (value,), ack_class):
        return False
    if not isinstance(acks, frozenset) or len(acks) < quorum:
        return False
    signed = [ack for ack in acks if isinstance(ack, ack_class) and isinstance(ack.signature, SignedValue)]
    if len(signed) < len(acks) or len({ack.signature.signer for ack in signed}) < quorum:
        return False
    for ack in signed:
        if not verify_safe_ack(registry, ack, ack.signature.signer, ack_class):
            return False
        if value not in ack.rcvd_set or value_conflicted_in(ack, value):
            return False
    return True


# ---------------------------------------------------------------------------
# The SbS process (proposer + acceptor roles combined)
# ---------------------------------------------------------------------------


class SbSProcess(AgreementProcess):
    """One SbS participant playing both the proposer and the acceptor role.

    Parameters
    ----------
    registry:
        The shared :class:`~repro.crypto.KeyRegistry` (the simulated PKI).
        The process obtains its own signer from it; it can verify everyone.
    proposal:
        The input value ``pro_i``.
    """

    def __init__(
        self,
        pid: Hashable,
        lattice: JoinSemilattice,
        members: Sequence[Hashable],
        f: int,
        registry: KeyRegistry,
        proposal: LatticeElement | None = None,
    ) -> None:
        super().__init__(pid, lattice, members, f)
        self.registry = registry
        self.signer: Signer = registry.register(pid)
        self.proposal: LatticeElement = (
            proposal if proposal is not None else lattice.bottom()
        )
        if not lattice.is_element(self.proposal):
            raise ValueError(f"proposal {proposal!r} is not a lattice element")

        # --- proposer state (Algorithm 8 lines 1-6) ---
        self.state = INIT
        self.ts = 0
        self.safety_set: frozenset[SignedValue] = frozenset()
        self.safe_acks: dict[Hashable, SafeAck] = {}
        self.proposed_set: frozenset[ProvenValue] = frozenset()
        #: ``signed_values(proposed_set)``, kept alongside it.
        self.proposed_values: frozenset[SignedValue] = frozenset()
        self.ack_senders: set[Hashable] = set()
        self.byz: set[Hashable] = set()
        self.refinements = 0
        #: The signed value this process committed to in the init phase.
        self.own_signed: SignedValue | None = None

        # --- acceptor state (Algorithm 9 lines 1-2) ---
        self.safe_candidates: frozenset[SignedValue] = frozenset()
        self.accepted_set: frozenset[ProvenValue] = frozenset()
        #: ``signed_values(accepted_set)``, kept alongside it.
        self.accepted_values: frozenset[SignedValue] = frozenset()

    # -- lifecycle ---------------------------------------------------------------------

    def on_start(self) -> None:
        """Init phase (Algorithm 8 lines 8-11): broadcast the signed value."""
        self.own_signed = self.signer.sign(self.proposal)
        self.safety_set = remove_conflicts(
            self.registry, set(self.safety_set) | {self.own_signed}
        )
        self.broadcast(InitPhase(payload=self.own_signed))

    def on_message(self, sender: Hashable, payload: Any) -> None:
        # Requests change only acceptor state, which no guard reads
        # (see AgreementProcess.recheck): they return without a recheck.
        if isinstance(payload, SafeRequest):
            self._handle_safe_request(sender, payload)
            return
        if isinstance(payload, SbSAckRequest):
            self._handle_ack_request(sender, payload)
            return
        if isinstance(payload, InitPhase):
            self._handle_init(sender, payload)
        elif isinstance(payload, SafeAck):
            self._handle_safe_ack(sender, payload)
        elif isinstance(payload, SbSAck):
            self._handle_ack(sender, payload)
        elif isinstance(payload, SbSNack):
            self._handle_nack(sender, payload)
        self.recheck()

    # -- init phase (Algorithm 8 lines 12-14) -------------------------------------------

    def _handle_init(self, sender: Hashable, msg: InitPhase) -> None:
        value = msg.payload
        if signs_elements(self.registry, self.lattice, (value,), SafeAck) and self.state == INIT:
            self.safety_set = remove_conflicts(self.registry, set(self.safety_set) | {value})

    # -- safetying phase -------------------------------------------------------------------

    def _handle_safe_request(self, sender: Hashable, msg: SafeRequest) -> None:
        """Acceptor side (Algorithm 9 lines 3-6)."""
        answer = answer_safe_request(
            self.registry, self.lattice, self.signer, SafeAck,
            msg.safety_set, self.safe_candidates, msg.request_id,
        )
        if answer is not None:
            ack, self.safe_candidates = answer
            self.send_to(sender, ack)

    def _handle_safe_ack(self, sender: Hashable, msg: SafeAck) -> None:
        """Proposer side (Algorithm 8 lines 19-23)."""
        if self.state != SAFETYING:
            return
        if safe_ack_valid(self.registry, msg, sender, SafeAck, self.safety_set):
            self.safe_acks[sender] = msg
        else:
            self.byz.add(sender)

    # -- proposing phase ----------------------------------------------------------------------

    def _handle_ack_request(self, sender: Hashable, msg: SbSAckRequest) -> None:
        """Acceptor side (Algorithm 9 lines 7-14)."""
        if not isinstance(msg.proposed_set, frozenset):
            return
        if not all_safe(self.registry, self.lattice, msg.proposed_set, self.quorum, SafeAck):
            return
        acked, accepted_set, self.accepted_values = accept(
            self.accepted_set, self.accepted_values, msg.proposed_set
        )
        if acked:
            self.send_to(sender, SbSAck(accepted_set=accepted_set, ts=msg.ts))
        else:
            self.send_to(sender, SbSNack(accepted_set=self.accepted_set, ts=msg.ts))
        self.accepted_set = accepted_set

    def _handle_ack(self, sender: Hashable, msg: SbSAck) -> None:
        """Proposer side (Algorithm 8 lines 32-37)."""
        if self.state != PROPOSING or msg.ts != self.ts:
            return
        if msg.accepted_set == self.proposed_set and sender not in self.byz:
            self.ack_senders.add(sender)
        else:
            self.byz.add(sender)

    def _handle_nack(self, sender: Hashable, msg: SbSNack) -> None:
        """Proposer side (Algorithm 8 lines 38-46)."""
        if self.state != PROPOSING or msg.ts != self.ts:
            return
        # A correct acceptor nacks the current ts only when it accepted a
        # value this proposal lacks, so a nack that brings no new value (a
        # new proof of a known one, say) is Byzantine.
        joined = (
            isinstance(msg.accepted_set, frozenset)
            and sender not in self.byz
            and all_safe(self.registry, self.lattice, msg.accepted_set, self.quorum, SafeAck)
            and join_values(self.proposed_set, self.proposed_values, msg.accepted_set)
        )
        if joined and len(joined[1]) > len(self.proposed_values):
            self.proposed_set, self.proposed_values = joined
            self.ack_senders = set()
            self.ts += 1
            self.refinements += 1
            self.broadcast(
                SbSAckRequest(proposed_set=self.proposed_set, ts=self.ts)
            )
        else:
            self.byz.add(sender)

    # -- guard evaluation ------------------------------------------------------------------------

    def try_progress(self) -> bool:
        # Algorithm 8 lines 16-18: enough signed values collected; ask the
        # acceptors to vet them.
        if self.state == INIT and len(self.safety_set) >= self.disclosure_threshold:
            self.state = SAFETYING
            self.broadcast(
                SafeRequest(safety_set=self.safety_set, request_id=0)
            )
            return True

        # Algorithm 8 lines 25-31: a Byzantine quorum of safe_acks; build the
        # proofs of safety and start proposing.
        if self.state == SAFETYING and len(self.safe_acks) >= self.quorum:
            self.proposed_set = build_proofs(
                self.proposed_set, self.safety_set, self.safe_acks.values()
            )
            self.proposed_values = signed_values(self.proposed_set)
            self.state = PROPOSING
            self.ack_senders = set()
            self.ts += 1
            self.broadcast(
                SbSAckRequest(proposed_set=self.proposed_set, ts=self.ts)
            )
            return True

        # Algorithm 8 lines 47-50: ack quorum reached, decide.
        if self.state == PROPOSING and len(self.ack_senders) >= self.quorum:
            self.state = DECIDED
            decision = self.lattice.join_all(
                proven.raw for proven in self.proposed_set
            )
            self.decided_proven = frozenset(self.proposed_set)
            self.record_decision(decision)
            return True
        return False
