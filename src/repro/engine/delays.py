"""Delay models: how long the asynchronous network holds each message.

Asynchrony in the paper means "delays are unbounded" — the adversary can hold
any message for an arbitrary finite time.  A :class:`DelayModel` decides, at
send time, how long a particular envelope will stay in flight.  Because every
model is driven by the simulation's seeded RNG (or is fully deterministic),
runs are exactly reproducible.

The adversarial model, :class:`SkewedPairDelay`, implements the schedules
used in the lower-bound experiment (Theorem 1: "delay the messages between p1
and p2") and the ``worst-case`` axis of :mod:`repro.sim.axes`.  Crashes and
partitions are not delays: :class:`~repro.sim.faults.FaultPlan` scripts them
on every backend.
"""

from __future__ import annotations

import abc
import random
from collections.abc import Hashable, Iterable

from repro.engine.envelope import Envelope


class DelayModel(abc.ABC):
    """Strategy deciding the in-flight delay of each envelope."""

    @abc.abstractmethod
    def delay(self, envelope: Envelope, rng: random.Random) -> float:
        """Return the (non-negative, finite) delay for ``envelope``."""

    def describe(self) -> str:
        """Human-readable description for experiment reports."""
        return type(self).__name__


class FixedDelay(DelayModel):
    """Every message takes exactly ``value`` time units (synchronous-looking)."""

    def __init__(self, value: float = 1.0) -> None:
        if value < 0:
            raise ValueError("delay must be non-negative")
        self._value = value

    def delay(self, envelope: Envelope, rng: random.Random) -> float:
        return self._value

    def describe(self) -> str:
        return f"FixedDelay({self._value})"


class UniformDelay(DelayModel):
    """Delays drawn uniformly from ``[low, high]`` — the default async model."""

    def __init__(self, low: float = 0.5, high: float = 2.0) -> None:
        if low < 0 or high < low:
            raise ValueError("require 0 <= low <= high")
        self._low = low
        self._high = high

    def delay(self, envelope: Envelope, rng: random.Random) -> float:
        return rng.uniform(self._low, self._high)

    def describe(self) -> str:
        return f"UniformDelay[{self._low},{self._high}]"


class SkewedPairDelay(DelayModel):
    """The ``base`` delays, except links the adversary picked are much slower.

    This models the Theorem 1 adversary: "consider a run where we delay the
    messages between p1 and p2" — both processes must still decide before the
    slow messages arrive.  ``slow_pairs`` are unordered pid pairs;
    ``victims`` slows every link touching those pids (both directions).  A
    slow delivery takes ``slow_delay`` plus a seeded jitter in ``[0, 1]``, so
    the slow messages do not all collapse onto one timestamp.  The delay is
    finite, so the paper's liveness theorems still apply: decisions are
    delayed, never prevented.
    """

    def __init__(
        self,
        slow_pairs: Iterable[tuple[Hashable, Hashable]] = (),
        base: DelayModel | None = None,
        slow_delay: float = 1_000.0,
        victims: Iterable[Hashable] = (),
    ) -> None:
        if slow_delay <= 0:
            raise ValueError("delays must be positive")
        self._slow: set[frozenset] = {frozenset(pair) for pair in slow_pairs}
        self.victims: set[Hashable] = set(victims)
        self._base = base or UniformDelay()
        self._slow_delay = slow_delay

    @classmethod
    def quorum_critical(
        cls,
        members: Iterable[Hashable],
        f: int,
        slow_delay: float = 200.0,
        fast_delay: float = 0.5,
    ) -> SkewedPairDelay:
        """The strongest link-slowing schedule the membership ``(n, f)`` allows.

        A proposer needs a Byzantine ack quorum ``q = floor((n + f) / 2) + 1``
        (the same formula as :func:`repro.core.quorum.byzantine_quorum`,
        restated locally to keep the engine import-free of the protocol
        layer).  A fixed victim list slows all links touching a hand-picked
        pid — but whenever fewer than ``n - q + 1`` processes are slowed, the
        remaining fast processes still form a whole quorum and every other
        proposer decides at fast-link speed, so the adversary wastes most of
        its power.  This constructor instead *computes* the quorum-critical
        set: the minimal number of slowed processes, ``n - q + 1``, that
        leaves only ``q - 1`` fast responders — forcing **every** proposer to
        wait on at least one slow link per ack quorum, round after round.

        The victims are the tail of the membership order.  Scenario builders
        place Byzantine processes in the tail slots, which makes this the
        adversary's best play twice over: the slowed set overlaps the
        processes that were never going to help anyway, so the ``n - f``
        disclosure and ``q`` ack thresholds must both cross a slow link.
        Every other link takes exactly ``fast_delay``.
        """
        member_list = list(members)
        n = len(member_list)
        if n == 0:
            raise ValueError("quorum-critical starvation needs a non-empty membership")
        if f < 0:
            raise ValueError("f must be non-negative")
        if fast_delay <= 0:
            raise ValueError("delays must be positive")
        quorum = (n + f) // 2 + 1
        count = min(n, max(1, n - quorum + 1))
        return cls(victims=member_list[n - count:], base=FixedDelay(fast_delay), slow_delay=slow_delay)

    def delay(self, envelope: Envelope, rng: random.Random) -> float:
        if (
            envelope.sender in self.victims
            or envelope.dest in self.victims
            or frozenset((envelope.sender, envelope.dest)) in self._slow
        ):
            return self._slow_delay + rng.uniform(0.0, 1.0)
        return self._base.delay(envelope, rng)

    def describe(self) -> str:
        return (
            f"SkewedPairDelay({len(self._slow)} slow pairs, {len(self.victims)} victims, "
            f"slow={self._slow_delay}, base={self._base.describe()})"
        )
