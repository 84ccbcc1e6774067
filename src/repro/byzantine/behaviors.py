"""Concrete Byzantine behaviour implementations.

Each class either subclasses the honest algorithm process (overriding exactly
the step it subverts — this keeps the rest of its behaviour protocol-
compliant, which is usually the strongest attack) or is a standalone
:class:`~repro.engine.ProtocolCore` that fabricates messages wholesale.

All classes set ``is_byzantine = True`` so specification checkers and
experiment harnesses can exclude them from the set ``C`` of correct
processes.  Nothing in the engine backends or in the honest processes ever
reads that flag — the adversary gets no special treatment from the
substrate.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Hashable, Sequence
from typing import Any

from repro.broadcast.reliable import RBInit
from repro.core.gwts import DISCLOSING, GWTSProcess, request_token
from repro.core.messages import (
    Ack,
    AckRequest,
    InitPhase,
    Nack,
    ProvenValue,
    RoundAck,
    RoundAckRequest,
    SafeAck,
    SbSAckRequest,
)
from repro.core.sbs import SbSProcess, safe_ack_body
from repro.core.wts import DISCLOSURE_TAG, WTSProcess
from repro.crypto.signatures import SignedValue
from repro.engine.core import ProtocolCore
from repro.lattice.base import JoinSemilattice, LatticeElement


class _ByzantineMixin:
    """Marks a core as adversary-controlled (``ProtocolCore.is_byzantine``)."""

    @property
    def is_byzantine(self) -> bool:  # noqa: D401 - simple property
        return True


# ---------------------------------------------------------------------------
# Generic behaviours
# ---------------------------------------------------------------------------


class SilentByzantine(_ByzantineMixin, ProtocolCore):
    """Sends nothing, ever — the maximally unhelpful (crash-like) adversary.

    Against the ``n - f`` thresholds this is the canonical liveness attack;
    all the paper's algorithms tolerate it by never waiting for more than
    ``n - f`` peers.
    """

    def on_start(self) -> None:  # pragma: no cover - trivially empty
        pass

    def on_message(self, sender: Hashable, payload: Any) -> None:
        pass


class CrashByzantine(_ByzantineMixin, ProtocolCore):
    """Behaves exactly like a wrapped honest process, then stops mid-protocol.

    Crash failures are a strict subset of Byzantine behaviour; this wrapper
    lets every Byzantine-tolerance test double as a crash-tolerance test and
    is also used by the baseline comparison (E10).

    The crash point is either a delivery count (``crash_after_deliveries``,
    the seed behaviour) or a simulated *time* (``crash_at_time``), the latter
    armed as an engine timer — which makes the crash instant independent of
    how chatty the run happens to be.  Note this class models a
    *permanently* silent process from the crash point on; scripted
    crash/recovery churn of correct processes is the engine's job (see
    :class:`repro.sim.FaultPlan`).
    """

    _CRASH_TAG = "_crash_byzantine"

    def __init__(
        self,
        inner: ProtocolCore,
        crash_after_deliveries: int | None = None,
        crash_at_time: float | None = None,
    ) -> None:
        super().__init__(inner.pid)
        if crash_after_deliveries is None and crash_at_time is None:
            raise ValueError("need crash_after_deliveries or crash_at_time")
        self.inner = inner
        # The wrapper is the registered core, so the backend drains *its*
        # effect buffer; aliasing the inner core's buffer to it makes the
        # delegated handlers' sends flow out under the wrapper's identity —
        # the effect-buffer analogue of sharing one NodeContext.
        inner._out = self._out
        self.crash_after = crash_after_deliveries
        self.crash_at_time = crash_at_time
        self._delivered = 0
        self.crashed = False

    @property
    def members(self) -> tuple[Hashable, ...]:
        """The wrapped core's membership: what its broadcasts reach."""
        return self.inner.members

    def on_start(self) -> None:
        if self.crash_at_time is not None:
            self.set_timer(self.crash_at_time, self._CRASH_TAG)
        if self.crash_after is not None and self.crash_after <= 0:
            self.crashed = True
            return
        self.inner.now = self.now
        self.inner.on_start()

    def on_timer(self, tag: str, payload: Any = None) -> None:
        if tag == self._CRASH_TAG:
            self.crashed = True
            return
        if not self.crashed:
            self.inner.now = self.now
            self.inner.on_timer(tag, payload)

    def on_message(self, sender: Hashable, payload: Any) -> None:
        if self.crashed:
            return
        self._delivered += 1
        if self.crash_after is not None and self._delivered > self.crash_after:
            self.crashed = True
            return
        self.inner.now = self.now
        self.inner.causal_depth = self.causal_depth
        self.inner.on_message(sender, payload)


# ---------------------------------------------------------------------------
# WTS-specific attacks (Section 5)
# ---------------------------------------------------------------------------


class EquivocatingProposer(_ByzantineMixin, WTSProcess):
    """Discloses different values to different halves of the system.

    This is the attack that motivates the reliable broadcast in the Values
    Disclosure Phase: without it, correct processes could build incomparable
    ``SvS`` sets and therefore incomparable decisions.  The process behaves
    honestly in every other respect (it echoes, acks and nacks correctly),
    which makes the equivocation maximally hard to detect.
    """

    def __init__(
        self,
        pid: Hashable,
        lattice: JoinSemilattice,
        members: Sequence[Hashable],
        f: int,
        value_a: LatticeElement,
        value_b: LatticeElement,
    ) -> None:
        super().__init__(pid, lattice, members, f, proposal=value_a)
        self.value_a = value_a
        self.value_b = value_b

    def _disclose(self) -> None:
        # Instead of the honest reliable broadcast, hand-craft per-destination
        # INIT messages so half the system first sees value_a and the other
        # half first sees value_b.
        half = len(self.members) // 2
        for index, dest in enumerate(self.members):
            value = self.value_a if index < half else self.value_b
            self.send_to(dest, RBInit(origin=self.pid, tag=DISCLOSURE_TAG, value=value))


class GarbageProposer(_ByzantineMixin, WTSProcess):
    """Discloses a value that is not an element of the lattice.

    Correct processes must filter it out (Algorithm 1 line 10) and still
    terminate using the remaining ``n - f`` disclosures.
    """

    def __init__(
        self,
        pid: Hashable,
        lattice: JoinSemilattice,
        members: Sequence[Hashable],
        f: int,
        garbage: Any = "not-a-lattice-element",
    ) -> None:
        super().__init__(pid, lattice, members, f, proposal=lattice.bottom())
        self.garbage = garbage

    def _disclose(self) -> None:
        # The only thing this process ever discloses is garbage, which
        # correct processes filter at Algorithm 1 line 10.  It sends the
        # INIT to the other members only, never echoing its own garbage.
        init = RBInit(origin=self.pid, tag=DISCLOSURE_TAG, value=self.garbage)
        for dest in self.members:
            if dest != self.pid:
                self.send(dest, init)


class ValueInjectorProposer(_ByzantineMixin, WTSProcess):
    """Behaves protocol-compliantly but proposes an adversary-chosen value.

    The paper's specification explicitly allows decisions to include values
    proposed by Byzantine processes; Non-Triviality merely bounds how many
    (``|B| <= f``).  This behaviour exercises that allowance.
    """


class NackSpamAcceptor(_ByzantineMixin, WTSProcess):
    """Acceptor that nacks every request, padding replies with junk values.

    The junk never appears in any ``SvS``, so correct proposers buffer the
    nacks forever instead of merging them (the wait-till-safe discipline) and
    decide off the honest acceptors.
    """

    def __init__(
        self,
        pid: Hashable,
        lattice: JoinSemilattice,
        members: Sequence[Hashable],
        f: int,
        junk_factory=None,
    ) -> None:
        super().__init__(pid, lattice, members, f, proposal=lattice.bottom())
        self._junk_counter = itertools.count()
        self._junk_factory = junk_factory

    def _junk_value(self) -> LatticeElement:
        if self._junk_factory is not None:
            return self._junk_factory(next(self._junk_counter))
        return frozenset({f"undisclosed-junk-{self.pid}-{next(self._junk_counter)}"})

    def _handle_ack_request(self, sender: Hashable, msg: AckRequest) -> bool:
        junk = self.lattice.join(msg.proposed_set, self._junk_value())
        self.send_to(sender, Nack(accepted_set=junk, ts=msg.ts))
        return True


class AlwaysAckAcceptor(_ByzantineMixin, WTSProcess):
    """Acceptor that acks every request immediately, regardless of its state.

    Harmless against WTS (Byzantine quorums already budget for ``f`` bogus
    acks), but lethal against the crash-fault baseline running with only
    ``3f`` processes: by acking both sides of a partitioned pair it lets each
    of them assemble a majority for incomparable values — the concrete
    counterexample behind Theorem 1 and experiment E2.
    """

    def __init__(
        self,
        pid: Hashable,
        lattice: JoinSemilattice,
        members: Sequence[Hashable],
        f: int,
    ) -> None:
        super().__init__(pid, lattice, members, f, proposal=lattice.bottom())

    def on_start(self) -> None:
        # Participates in nothing proactively (it does not even disclose).
        pass

    def on_message(self, sender: Hashable, payload: Any) -> None:
        if isinstance(payload, AckRequest):
            self.send_to(sender, Ack(accepted_set=payload.proposed_set, ts=payload.ts))


class FlipFloppingAcceptor(_ByzantineMixin, WTSProcess):
    """Acceptor that answers requests arbitrarily (random ack/nack/silence).

    All its replies contain only *safe* values (subsets of what it has seen),
    which makes them impossible to filter — safety must come from the quorum
    intersection argument (Lemma 1), which tolerates up to ``f`` such
    acceptors.
    """

    def __init__(
        self,
        pid: Hashable,
        lattice: JoinSemilattice,
        members: Sequence[Hashable],
        f: int,
        seed: int = 0,
    ) -> None:
        super().__init__(pid, lattice, members, f, proposal=lattice.bottom())
        self._rng = random.Random(seed)

    def _handle_ack_request(self, sender: Hashable, msg: AckRequest) -> bool:
        roll = self._rng.random()
        if roll < 0.4:
            # Ack regardless of our local accepted state.
            self.send_to(sender, Ack(accepted_set=msg.proposed_set, ts=msg.ts))
        elif roll < 0.8:
            # Nack with an arbitrary (safe) subset of what we have observed.
            self.send_to(sender, Nack(accepted_set=self.accepted_set, ts=msg.ts))
        # else stay silent for this request.
        return True


# ---------------------------------------------------------------------------
# GWTS-specific attacks (Section 6)
# ---------------------------------------------------------------------------


class EquivocatingGWTSProposer(_ByzantineMixin, GWTSProcess):
    """Per-round equivocator: different round batches to different halves."""

    def __init__(self, *args, equivocation_pool: Sequence[LatticeElement] = (), **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.equivocation_pool = list(equivocation_pool)

    def _start_round(self) -> None:
        self.state = DISCLOSING
        self._next_batch()  # advances the round; the honest batch is never disclosed
        pool = self.equivocation_pool or [self.lattice.bottom()]
        value_a = pool[self.round % len(pool)]
        value_b = pool[(self.round + 1) % len(pool)]
        half = len(self.members) // 2
        for index, dest in enumerate(self.members):
            value = value_a if index < half else value_b
            init = RBInit(
                origin=self.pid, tag=("disclosure", self.round), value=value
            )
            self.send_to(dest, init)


class FastForwardGWTS(_ByzantineMixin, ProtocolCore):
    """Round-clogging adversary: floods disclosures and requests for future rounds.

    "A[n] uncareful design could allow byzantine proposers to continuously
    pretend to have decided, thus jumping to new rounds, and clogging the
    proposers with a continuous stream of new values" (Section 6.2).  The
    acceptors' ``Safe_r`` gating must confine its requests to rounds that had
    a legitimate end.
    """

    def __init__(
        self,
        pid: Hashable,
        lattice: JoinSemilattice,
        members: Sequence[Hashable],
        rounds_ahead: int = 5,
        values: Sequence[LatticeElement] | None = None,
    ) -> None:
        super().__init__(pid)
        self.lattice = lattice
        self.members = tuple(members)
        self.rounds_ahead = rounds_ahead
        self.values = list(values or [])

    def _value_for(self, round_no: int) -> LatticeElement:
        if self.values:
            return self.values[round_no % len(self.values)]
        return self.lattice.bottom()

    def on_start(self) -> None:
        for round_no in range(self.rounds_ahead):
            value = self._value_for(round_no)
            init = RBInit(origin=self.pid, tag=("disclosure", round_no), value=value)
            for dest in self.members:
                self.send_to_member(dest, init)
            request = RoundAckRequest(proposed_set=value, ts=round_no + 1, round=round_no)
            for dest in self.members:
                self.send_to_member(dest, request)
            # Fabricated ack claiming its own proposal committed in this round:
            # it names the request just sent, so correct processes resolve it
            # and count this one acceptor, never a quorum.
            fake_ack = RoundAck(
                proposal=request_token(request),
                destination=self.pid,
                sender=self.pid,
                ts=round_no + 1,
                round=round_no,
            )
            fake = RBInit(
                origin=self.pid,
                tag=("ack", round_no, round_no + 1, self.pid),
                value=fake_ack,
            )
            for dest in self.members:
                self.send_to_member(dest, fake)

    def send_to_member(self, dest: Hashable, payload: Any) -> None:
        self.send(dest, payload)

    def on_message(self, sender: Hashable, payload: Any) -> None:
        # Ignores everything: it already said all it wanted to say.
        pass


# ---------------------------------------------------------------------------
# SbS-specific attacks (Section 8)
# ---------------------------------------------------------------------------


class SbSEquivocatingProposer(_ByzantineMixin, SbSProcess):
    """Signs two different values and discloses them to different halves.

    Lemma 13 says at most one of them can ever acquire a proof of safety; the
    tests assert exactly that.
    """

    def __init__(self, *args, value_a: LatticeElement, value_b: LatticeElement, **kwargs) -> None:
        kwargs["proposal"] = value_a
        super().__init__(*args, **kwargs)
        self.value_a = value_a
        self.value_b = value_b

    def on_start(self) -> None:
        signed_a = self.signer.sign(self.value_a)
        signed_b = self.signer.sign(self.value_b)
        self.own_signed = signed_a
        half = len(self.members) // 2
        for index, dest in enumerate(self.members):
            payload = signed_a if index < half else signed_b
            self.send_to(dest, InitPhase(payload=payload))


class ForgedSafetyByzantine(_ByzantineMixin, ProtocolCore):
    """Fabricates signatures, proofs of safety and conflict accusations.

    Every artefact it produces fails verification at correct processes:
    forged initial values are dropped, forged proofs fail ``AllSafe`` and
    forged conflict pairs fail ``VerifyConfPair`` — so it cannot censor a
    correct process's value nor inject an unvetted one.
    """

    def __init__(
        self,
        pid: Hashable,
        lattice: JoinSemilattice,
        members: Sequence[Hashable],
        victim: Hashable,
        injected: LatticeElement,
    ) -> None:
        super().__init__(pid)
        self.lattice = lattice
        self.members = tuple(members)
        self.victim = victim
        self.injected = injected

    def on_start(self) -> None:
        # (1) An init value carrying a forged signature of the victim.
        forged = SignedValue(value=self.injected, signer=self.victim, tag=b"forged-tag")
        for dest in self.members:
            self.send(dest, InitPhase(payload=forged))
        # (2) An ack request whose proof of safety is entirely fabricated.
        fake_ack = SafeAck(
            rcvd_set=frozenset({forged}),
            conflicts=frozenset(),
            request_id=0,
            signature=SignedValue(
                value=safe_ack_body(frozenset({forged}), frozenset(), 0),
                signer=self.victim,
                tag=b"forged-ack",
            ),
        )
        proven = ProvenValue(value=forged, safe_acks=frozenset({fake_ack}))
        request = SbSAckRequest(proposed_set=frozenset({proven}), ts=1)
        for dest in self.members:
            self.send(dest, request)

    def on_message(self, sender: Hashable, payload: Any) -> None:
        pass
