"""FaultPlan: declarative crash/partition scripts for a simulation run.

A :class:`FaultPlan` is a reusable, inspectable description of *when the
environment misbehaves*: which processes crash and recover when, which
partitions open and heal when, plus arbitrary timed injections.
:func:`~repro.harness.workloads.build_scenario` takes a plan and applies it
to the network before the run starts, so an experiment's fault script lives
next to its workload description instead of being smeared across
hand-rolled delay models.

Plans are built fluently and are order-independent (every action carries its
absolute time; the engine orders them)::

    plan = (
        FaultPlan()
        .partition(["p0", "p1"], ["p2", "p3"], at=5.0, heal_at=20.0)
        .crash("p1", at=25.0, recover_at=35.0)
        .crash("p2", at=40.0, recover_at=50.0)
    )
    build_scenario("gwts", 4, 1, fault_plan=plan, ...).run()

Crash semantics: a crashed process stops executing and everything addressed
to it (messages *and* timers) is held and handed over on recovery — channels
stay reliable, so a crash is indistinguishable from a very slow process and
the paper's asynchronous liveness arguments keep applying.
"""

from __future__ import annotations
from collections.abc import Callable, Hashable, Iterable

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.engine.effects import invalid_time

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.engine.kernel_backend import KernelEngine


def validate_partition_groups(groups: tuple[frozenset, ...]) -> None:
    """Reject partitions with fewer than two groups or overlapping groups.

    Shared by :meth:`FaultPlan.partition` (build time) and the engine
    backends' ``start_partition`` (schedule time) so the entry points cannot
    drift apart.
    """
    if len(groups) < 2:
        raise ValueError("a partition needs at least two groups")
    seen: set = set()
    for group in groups:
        if not group:
            raise ValueError("partition groups must be non-empty")
        overlap = seen & group
        if overlap:
            raise ValueError(
                f"partition groups overlap on {sorted(map(str, overlap))}"
            )
        seen |= group


@dataclass(frozen=True)
class FaultAction:
    """One scripted action: ``kind`` at absolute simulated time ``at``."""

    at: float
    kind: str  # "crash" | "recover" | "partition" | "heal" | "inject"
    pid: Hashable | None = None
    groups: tuple[frozenset, ...] = ()
    fn: Callable[..., Any] | None = None


class FaultPlan:
    """A declarative, chainable script of crashes, partitions and injections."""

    def __init__(self) -> None:
        self.actions: list[FaultAction] = []

    # -- builders (all chainable) -------------------------------------------------

    def crash(
        self, pid: Hashable, at: float, recover_at: float | None = None
    ) -> FaultPlan:
        """Crash ``pid`` at time ``at`` (optionally scheduling its recovery)."""
        self._check_time(at)
        if recover_at is not None and recover_at <= at:
            raise ValueError(
                f"recover_at ({recover_at!r}) must be after the crash at {at!r}"
            )
        self.actions.append(FaultAction(at=at, kind="crash", pid=pid))
        if recover_at is not None:
            self.recover(pid, at=recover_at)
        return self

    def recover(self, pid: Hashable, at: float) -> FaultPlan:
        """Recover ``pid`` at time ``at``; held messages/timers are released."""
        self._check_time(at)
        self.actions.append(FaultAction(at=at, kind="recover", pid=pid))
        return self

    def partition(
        self,
        *groups: Iterable[Hashable],
        at: float,
        heal_at: float | None = None,
    ) -> FaultPlan:
        """Split the membership into ``groups`` at ``at`` (optionally healing).

        Pids not listed in any group keep full connectivity, so a partial
        partition (isolate one process from two cliques, say) is one call.
        """
        self._check_time(at)
        if heal_at is not None and heal_at <= at:
            raise ValueError(
                f"heal_at ({heal_at!r}) must be after the partition at {at!r}"
            )
        frozen = tuple(frozenset(group) for group in groups)
        validate_partition_groups(frozen)
        self.actions.append(FaultAction(at=at, kind="partition", groups=frozen))
        if heal_at is not None:
            self.heal(at=heal_at)
        return self

    def heal(self, at: float) -> FaultPlan:
        """Dissolve the active partition at ``at``; held traffic is released."""
        self._check_time(at)
        self.actions.append(FaultAction(at=at, kind="heal"))
        return self

    def inject(self, at: float, fn: Callable[..., Any]) -> FaultPlan:
        """Run ``fn(engine)`` at ``at`` — the escape hatch for custom scripts."""
        self._check_time(at)
        self.actions.append(FaultAction(at=at, kind="inject", fn=fn))
        return self

    # -- application ---------------------------------------------------------------

    def apply(self, engine: KernelEngine) -> FaultPlan:
        """Schedule every action on ``engine`` (any backend works).

        Apply a plan once per run: each call schedules the full action list
        again (duplicate crash/partition events are absorbed by the
        engine's idempotence guards, but ``inject`` callbacks would run
        once per application).
        """
        for action in self.actions:
            if action.kind == "crash":
                engine.crash_node(action.pid, at=action.at)
            elif action.kind == "recover":
                engine.recover_node(action.pid, at=action.at)
            elif action.kind == "partition":
                engine.start_partition(*action.groups, at=action.at)
            elif action.kind == "heal":
                engine.heal_partition(at=action.at)
            elif action.kind == "inject":
                engine.inject(action.fn, at=action.at)
            else:  # pragma: no cover - builder methods prevent this
                raise ValueError(f"unknown fault action {action.kind!r}")
        return self

    # -- introspection ---------------------------------------------------------------

    def describe(self) -> str:
        """One-line summary for experiment reports."""
        counts: dict = {}
        for action in self.actions:
            counts[action.kind] = counts.get(action.kind, 0) + 1
        inner = ", ".join(f"{kind}×{count}" for kind, count in sorted(counts.items()))
        return f"FaultPlan({inner or 'empty'})"

    def __len__(self) -> int:
        return len(self.actions)

    @staticmethod
    def _check_time(at: float) -> None:
        if invalid_time(at):
            raise ValueError(f"invalid action time {at!r}")
