"""Pluggable scheduling policies: who decides when a message arrives.

In the asynchronous model the adversary owns the schedule: it may hold any
message for an arbitrary *finite* time.  A :class:`Scheduler` is that
adversary as a strategy object — given an envelope at submit time it decides
the in-flight delay (the engine then orders deliveries by time).

Three policies ship here:

* :class:`DelayModelScheduler` — the default; delegates to the seed's
  :class:`~repro.engine.delays.DelayModel` hierarchy, which is what keeps
  every seed run bit-for-bit reproducible after the kernel refactor.
* :class:`RandomScheduler` — a chaos-monkey schedule: i.i.d. uniform delays
  over a wide spread, i.e. near-arbitrary reordering.  Good for fuzzing
  protocol guards that accidentally assume FIFO-ness.
* :class:`WorstCaseScheduler` — a liveness-stress adversary that starves
  chosen links (or every link touching chosen victim processes) by a large
  finite delay while delivering everything else fast.  Because the starve
  delay is finite, the paper's liveness theorems still apply: GWTS/SbS
  decisions are *delayed, never prevented* — which is exactly what the
  partition-churn experiment demonstrates.
"""

from __future__ import annotations

import abc
import random
from collections.abc import Hashable, Iterable
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.engine.delays import DelayModel
    from repro.engine.envelope import Envelope


class Scheduler(abc.ABC):
    """Strategy deciding the in-flight delay of each submitted envelope."""

    @abc.abstractmethod
    def delay(self, envelope: Envelope, rng: random.Random) -> float:
        """Return the (non-negative, finite) delay for ``envelope``."""

    def describe(self) -> str:
        """Human-readable description for experiment reports."""
        return type(self).__name__


class DelayModelScheduler(Scheduler):
    """Adapter: drive the engine with a seed-era :class:`DelayModel`."""

    def __init__(self, model: DelayModel | None = None) -> None:
        if model is None:
            # Imported here, not at module level: the engine backends import
            # this module, so a top-level import would be circular.
            from repro.engine.delays import UniformDelay

            model = UniformDelay()
        self.model = model

    def delay(self, envelope: Envelope, rng: random.Random) -> float:
        return self.model.delay(envelope, rng)

    def describe(self) -> str:
        return f"DelayModelScheduler({self.model.describe()})"


class RandomScheduler(Scheduler):
    """Near-arbitrary reordering: i.i.d. uniform delays over ``[0, spread]``."""

    def __init__(self, spread: float = 10.0) -> None:
        if spread <= 0:
            raise ValueError("spread must be positive")
        self.spread = spread

    def delay(self, envelope: Envelope, rng: random.Random) -> float:
        return rng.uniform(0.0, self.spread)

    def describe(self) -> str:
        return f"RandomScheduler(spread={self.spread})"


class WorstCaseScheduler(Scheduler):
    """Starve chosen links by a large finite delay; deliver the rest fast.

    ``starved_links`` are unordered pid pairs; ``victims`` starves every link
    touching those pids (both directions).  Everything else is delivered
    after ``fast_delay`` — the contrast is what makes the starvation an
    adversarial *schedule* rather than mere slowness.

    A tiny seeded jitter is added to starved deliveries so they do not all
    collapse onto one timestamp (keeping tie-breaking exercise realistic)
    while staying fully deterministic.
    """

    def __init__(
        self,
        starved_links: Iterable[tuple[Hashable, Hashable]] = (),
        victims: Iterable[Hashable] = (),
        starve_delay: float = 200.0,
        fast_delay: float = 0.5,
    ) -> None:
        if starve_delay <= 0 or fast_delay <= 0:
            raise ValueError("delays must be positive")
        self.starved_links: set[frozenset] = {frozenset(pair) for pair in starved_links}
        self.victims: set[Hashable] = set(victims)
        self.starve_delay = starve_delay
        self.fast_delay = fast_delay

    @classmethod
    def quorum_critical(
        cls,
        members: Iterable[Hashable],
        f: int,
        starve_delay: float = 200.0,
        fast_delay: float = 0.5,
    ) -> WorstCaseScheduler:
        """The strongest link-starving schedule the membership ``(n, f)`` allows.

        A proposer needs a Byzantine ack quorum ``q = floor((n + f) / 2) + 1``
        (the same formula as :func:`repro.core.quorum.byzantine_quorum`,
        restated locally to keep the sim layer import-free of the protocol
        layer).  A fixed victim list starves all links touching a hand-picked
        pid — but whenever fewer than ``n - q + 1`` processes are starved, the
        remaining fast processes still form a whole quorum and every other
        proposer decides at fast-link speed, so the adversary wastes most of
        its power.  This constructor instead *computes* the quorum-critical
        set: the minimal number of starved processes, ``n - q + 1``, that
        leaves only ``q - 1`` fast responders — forcing **every** proposer to
        wait on at least one starved link per ack quorum, round after round.

        The victims are the tail of the membership order.  Scenario builders
        place Byzantine processes in the tail slots, which makes this the
        adversary's best play twice over: the starved set overlaps the
        processes that were never going to help anyway, so the ``n - f``
        disclosure and ``q`` ack thresholds must both cross a starved link.
        The starvation is finite, so the paper's liveness theorems still
        apply: decisions are delayed, never prevented.
        """
        member_list = list(members)
        n = len(member_list)
        if n == 0:
            raise ValueError("quorum-critical starvation needs a non-empty membership")
        if f < 0:
            raise ValueError("f must be non-negative")
        quorum = (n + f) // 2 + 1
        count = min(n, max(1, n - quorum + 1))
        return cls(
            victims=member_list[n - count:],
            starve_delay=starve_delay,
            fast_delay=fast_delay,
        )

    def _starves(self, envelope: Envelope) -> bool:
        if envelope.sender in self.victims or envelope.dest in self.victims:
            return True
        if self.starved_links and frozenset((envelope.sender, envelope.dest)) in self.starved_links:
            return True
        return False

    def delay(self, envelope: Envelope, rng: random.Random) -> float:
        if self._starves(envelope):
            return self.starve_delay + rng.uniform(0.0, 1.0)
        return self.fast_delay

    def describe(self) -> str:
        return (
            f"WorstCaseScheduler({len(self.starved_links)} links, "
            f"{len(self.victims)} victims, starve={self.starve_delay})"
        )
