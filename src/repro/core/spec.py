"""Problem specifications and run checkers.

Section 3.1 defines the Byzantine Lattice Agreement task by five properties
(Liveness, Stability, Comparability, Inclusivity, Non-Triviality); Section
6.1 defines the Generalized version (Liveness, Local Stability,
Comparability, Inclusivity, Non-Triviality over prefixes).

:func:`check_la_run` and :func:`check_gla_run` verify those properties over
the observable outcome of a simulation: the proposals of correct processes,
their decisions, and the set of values the Byzantine processes managed to
inject (needed to evaluate Non-Triviality's ``B`` bound).  Every experiment
and most integration/property tests go through these checkers, so the
correctness argument of the reproduction is concentrated here.
"""

from __future__ import annotations

import itertools
from collections.abc import Hashable, Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.lattice.base import JoinSemilattice, LatticeElement


def render_element(value: Any) -> str:
    """Deterministic rendering of a lattice element for violation messages.

    ``repr`` of a set iterates in hash order, which for strings depends on
    ``PYTHONHASHSEED`` — embedding it in a checker message would make result
    artifacts differ between processes.  Sets and frozensets are therefore
    rendered with sorted contents; everything else keeps its ``repr`` (the
    lattice element contract requires immutability, and the repo's other
    element types — tuples, ints, frozen dataclasses — have stable reprs).
    """
    if isinstance(value, (set, frozenset)):
        return "{" + ", ".join(sorted(render_element(item) for item in value)) + "}"
    return repr(value)


@dataclass(frozen=True)
class LASpecification:
    """Static parameters of a Lattice Agreement instance."""

    lattice: JoinSemilattice
    n: int
    f: int

    def quorum(self) -> int:
        """The Byzantine ack quorum ``floor((n+f)/2)+1``."""
        from repro.core.quorum import byzantine_quorum

        return byzantine_quorum(self.n, self.f)


@dataclass(frozen=True)
class GLASpecification:
    """Static parameters of a Generalized Lattice Agreement instance."""

    lattice: JoinSemilattice
    n: int
    f: int


@dataclass
class LACheckResult:
    """Outcome of a specification check.

    ``ok`` is ``True`` when every checked property holds; ``violations`` maps
    property names to human-readable explanations of each failure (useful in
    test assertion messages and in the negative-control experiments, where we
    *expect* specific properties to fail).
    """

    ok: bool
    violations: dict[str, list[str]] = field(default_factory=dict)

    def add(self, prop: str, message: str) -> None:
        self.violations.setdefault(prop, []).append(message)
        self.ok = False

    def violated(self, prop: str) -> bool:
        """Whether property ``prop`` has at least one recorded violation."""
        return prop in self.violations

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        name = type(self).__name__
        if self.ok:
            return f"{name}(ok)"
        parts = [f"{prop}: {msgs}" for prop, msgs in self.violations.items()]
        return f"{name}(violations=" + "; ".join(parts) + ")"


def check_la_run(
    lattice: JoinSemilattice,
    proposals: Mapping[Hashable, LatticeElement],
    decisions: Mapping[Hashable, Sequence[LatticeElement]],
    byzantine_values: Iterable[LatticeElement] = (),
    f: int = 0,
    require_liveness: bool = True,
) -> LACheckResult:
    """Check one single-shot Byzantine LA run (Section 3.1 properties).

    Parameters
    ----------
    proposals:
        ``pid -> proposed value`` for every *correct* process.
    decisions:
        ``pid -> list of decision values`` recorded for each correct process
        (Stability requires the list to have exactly one entry).
    byzantine_values:
        Lattice elements the adversary injected (its disclosed values); used
        for the Non-Triviality upper bound ``dec_i <= join(X ∪ B)`` with
        ``|B| <= f``.
    f:
        The resilience parameter (bounds ``|B|``).
    require_liveness:
        Set to ``False`` for runs that were deliberately truncated (e.g. the
        lower-bound experiment) where only safety is being evaluated.
    """
    result = LACheckResult(ok=True)
    correct = list(proposals.keys())

    # Liveness: every correct process decides.
    for pid in correct:
        if require_liveness and not decisions.get(pid):
            result.add("liveness", f"process {pid!r} never decided")

    # Stability: a unique decision per process.
    for pid in correct:
        decs = list(decisions.get(pid, []))
        if len(decs) > 1:
            distinct = {repr(d) for d in decs}
            if len(distinct) > 1:
                result.add("stability", f"process {pid!r} decided {len(distinct)} values")

    flat: list[LatticeElement] = [
        decs[0] for pid, decs in decisions.items() if pid in proposals and decs
    ]

    # Comparability: decisions of correct processes form a chain.
    for a, b in itertools.combinations(flat, 2):
        if not lattice.comparable(a, b):
            result.add("comparability", f"incomparable decisions {render_element(a)} and {render_element(b)}")

    # Inclusivity: own proposal is contained in own decision.
    for pid in correct:
        decs = list(decisions.get(pid, []))
        if decs and not lattice.leq(proposals[pid], decs[0]):
            result.add(
                "inclusivity",
                f"process {pid!r} decided {render_element(decs[0])} which does not include "
                f"its proposal {render_element(proposals[pid])}",
            )

    # Non-Triviality: decision <= join(X ∪ B).  The |B| <= f part of the
    # property is enforced structurally: the caller passes the values the
    # adversary disclosed, and the reliable-broadcast / signature machinery
    # guarantees at most one value per Byzantine process reaches any SvS
    # (Observation 1 / Lemma 13), which the dedicated algorithm tests verify.
    byz_list = list(byzantine_values)
    upper = lattice.join_all(list(proposals.values()) + byz_list)
    for pid in correct:
        decs = list(decisions.get(pid, []))
        if decs and not lattice.leq(decs[0], upper):
            result.add(
                "non_triviality",
                f"process {pid!r} decided {render_element(decs[0])} exceeding join(X ∪ B) = {render_element(upper)}",
            )
    return result


def check_gla_run(
    lattice: JoinSemilattice,
    inputs: Mapping[Hashable, Sequence[LatticeElement]],
    decisions: Mapping[Hashable, Sequence[LatticeElement]],
    byzantine_values: Iterable[LatticeElement] = (),
    require_all_inputs_decided: bool = True,
) -> LACheckResult:
    """Check one (finite prefix of a) Generalized LA run (Section 6.1).

    Parameters
    ----------
    inputs:
        ``pid -> sequence of values received`` by each correct process.
    decisions:
        ``pid -> sequence of decision values`` of each correct process, in
        decision order.
    byzantine_values:
        Values injected by the adversary, for the Non-Triviality bound.
    require_all_inputs_decided:
        Inclusivity over the finite prefix: every input value must appear in
        (be below) some decision of the process that received it.  Disable
        for truncated runs where only safety is being assessed.
    """
    result = LACheckResult(ok=True)
    correct = list(inputs.keys())

    # Liveness over the prefix: every correct process decided at least once
    # (full liveness — an infinite sequence — is only checkable as "keeps
    # deciding while the run continues").
    for pid in correct:
        if not decisions.get(pid):
            result.add("liveness", f"process {pid!r} made no decision")

    # Local Stability: per-process decisions are non-decreasing.
    for pid in correct:
        decs = list(decisions.get(pid, []))
        for earlier, later in zip(decs, decs[1:], strict=False):
            if not lattice.leq(earlier, later):
                result.add(
                    "local_stability",
                    f"process {pid!r} decided {render_element(later)} after {render_element(earlier)} (not >=)",
                )

    # Comparability: any two decisions of correct processes are comparable.
    flat: list[LatticeElement] = []
    for pid in correct:
        flat.extend(decisions.get(pid, []))
    for a, b in itertools.combinations(flat, 2):
        if not lattice.comparable(a, b):
            result.add("comparability", f"incomparable decisions {render_element(a)} and {render_element(b)}")

    # Inclusivity: every received input value eventually appears in a decision.
    if require_all_inputs_decided:
        for pid in correct:
            decs = list(decisions.get(pid, []))
            last = decs[-1] if decs else lattice.bottom()
            for value in inputs.get(pid, []):
                if not lattice.leq(value, last):
                    result.add(
                        "inclusivity",
                        f"input {render_element(value)} of {pid!r} never included in its decisions",
                    )

    # Non-Triviality: decisions bounded by join of all inputs and Byzantine values.
    upper = lattice.join_all(
        [v for values in inputs.values() for v in values] + list(byzantine_values)
    )
    for pid in correct:
        for dec in decisions.get(pid, []):
            if not lattice.leq(dec, upper):
                result.add(
                    "non_triviality",
                    f"decision {render_element(dec)} of {pid!r} exceeds join of all proposed values {render_element(upper)}",
                )
    return result
