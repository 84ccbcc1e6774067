"""Engine services shared by every execution backend.

The backends (kernel, turbo, async) differ in *how* they move messages, but
they agree on a small service surface the layers above consume:

* :class:`Clock` — where an engine's notion of time comes from.  The
  simulated backends advance a :class:`SimulatedClock` event by event and
  report deterministic simulated time; the async backend anchors a
  :class:`WallClock` at run start and reports real elapsed seconds.  The
  ``time_source`` label travels into result artifacts (``repro-results/v3``)
  so consumers know whether latency metrics are deterministic simulated
  units or wall-clock measurements.
* :class:`RunResult` — the uniform outcome record of one engine run,
  whatever the backend.
* :class:`EngineBase` — the skeleton every in-process backend shares: core
  registration, fault scripting, the ``broadcast``/``decided``/``output``
  half of the effect sink (:func:`repro.engine.effects.interpret`) and the
  ``run_until_*`` helpers.  A backend adds only its calendar, its
  ``_push_control``, its ``send``/``arm_timer`` sink methods and its run
  loop.

Keeping these here (instead of inside one backend module) is what lets a new
backend be added without the harness, orchestrator or explorer learning
anything new — they already speak clocks and run results.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Hashable, Iterable
from dataclasses import dataclass, field
from typing import Any

from repro.engine.core import ProtocolCore
from repro.engine.delays import DelayModel, UniformDelay
from repro.engine.effects import TimerHandle, interpret, invalid_time, members_of
from repro.metrics.collector import MetricsCollector
from repro.sim.faults import validate_partition_groups
from repro.sim.scheduler import DelayModelScheduler, Scheduler

#: ``time_source`` label of the deterministic discrete-event backends.
TIME_SIMULATED = "simulated"
#: ``time_source`` label of backends measuring real elapsed seconds.
TIME_WALL_CLOCK = "wall-clock"

#: The labels a backend (and a ``repro-results/v3`` job payload) may carry.
TIME_SOURCES = (TIME_SIMULATED, TIME_WALL_CLOCK)


class Clock:
    """Uniform read surface for an engine's time.

    Engines own time *advancement* (turbo's loop pops events; the async
    backend's tcp transport lets the OS run); a clock only answers "what time is it" and
    names the semantics of the answer via :attr:`time_source`.
    """

    #: One of :data:`TIME_SOURCES`.
    time_source = TIME_SIMULATED

    def now(self) -> float:
        raise NotImplementedError

    def describe(self) -> str:
        return f"{type(self).__name__}({self.time_source})"


class SimulatedClock(Clock):
    """Deterministic simulated time, read off the owning engine.

    The engine advances its own time field on every event pop; the clock is
    a read adapter (``read`` is e.g. ``lambda: self._now``), so there is
    exactly one source of truth and no second counter to keep in sync.
    """

    time_source = TIME_SIMULATED

    def __init__(self, read: Callable[[], float]) -> None:
        self._read = read

    def now(self) -> float:
        return self._read()


class WallClock(Clock):
    """Real elapsed seconds since :meth:`start` (monotonic, never negative).

    Used by the async backend: ``now()`` before the run starts is 0.0, and
    afterwards it is the wall-clock duration since the run began — the same
    zero point simulated runs use, so per-run timestamps stay comparable in
    shape (decision times, operation histories) even though their *units*
    are real seconds.
    """

    time_source = TIME_WALL_CLOCK

    def __init__(self) -> None:
        self._origin: float | None = None

    def start(self) -> None:
        """Anchor the clock (idempotent; the first call wins)."""
        if self._origin is None:
            self._origin = time.perf_counter()

    def now(self) -> float:
        if self._origin is None:
            return 0.0
        return time.perf_counter() - self._origin


def percentile(sorted_samples: list[float], q: float) -> float:
    """Linear-interpolated percentile of pre-sorted ``sorted_samples``.

    ``q`` is a fraction in ``[0, 1]``; the sample list must be non-empty and
    ascending.  Matches the common "inclusive" definition (numpy's default):
    ``q=0`` is the minimum, ``q=1`` the maximum.
    """
    if not sorted_samples:
        raise ValueError("percentile of an empty sample list")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"percentile fraction {q!r} outside [0, 1]")
    position = (len(sorted_samples) - 1) * q
    lower = int(position)
    upper = min(lower + 1, len(sorted_samples) - 1)
    fraction = position - lower
    return sorted_samples[lower] * (1.0 - fraction) + sorted_samples[upper] * fraction


def latency_summary(samples: Iterable[float]) -> dict[str, float] | None:
    """p50/p95/p99/max tail-latency summary of ``samples`` (or ``None``).

    The shape every latency-carrying artifact in the repo uses: the async
    backend reports wall-clock decision latencies through it
    (:attr:`RunResult.decision_latency`), the open-loop load generator its
    per-value latencies, and ``repro-results/v4`` job payloads carry it as
    the ``wall_latency`` field.  ``None`` (not an empty dict) means "no
    samples" so consumers can distinguish "nothing decided" from "zero
    latency".
    """
    data = sorted(samples)
    if not data:
        return None
    return {
        "count": len(data),
        "p50": percentile(data, 0.50),
        "p95": percentile(data, 0.95),
        "p99": percentile(data, 0.99),
        "max": data[-1],
    }


@dataclass
class RunResult:
    """Outcome of one engine run."""

    #: Number of messages delivered during the run.
    delivered: int
    #: Engine time at the end of the run (simulated units or wall-clock
    #: seconds — see the engine's ``clock.time_source``).
    end_time: float
    #: Whether the run stopped because the stop predicate became true.
    stopped_by_predicate: bool
    #: Whether the engine still had undelivered messages when we stopped.
    pending_messages: int
    #: Total engine events processed (deliveries + timers + faults).
    events: int = 0
    #: Whether the run was truncated by the ``max_events`` valve (a scenario
    #: spinning on non-delivery events, e.g. self-rearming timers behind a
    #: never-healed partition).  Tests should treat this as a liveness
    #: failure, like hitting ``max_messages``.
    events_capped: bool = False
    #: Real seconds the run took, whatever the backend's time source (on the
    #: wall-clock backend this equals ``end_time``).
    wall_time_s: float = 0.0
    #: The metrics collector of the engine (for convenience).
    metrics: MetricsCollector = field(repr=False, default=None)
    #: Wall-clock decision-latency summary of this run — the
    #: :func:`latency_summary` shape (``count``/``p50``/``p95``/``p99``/
    #: ``max``, seconds from run start to each decision) on wall-clock
    #: backends, ``None`` on the simulated backends (their decision times
    #: are deterministic simulated units, not latency measurements) and on
    #: wall-clock runs that decided nothing.
    decision_latency: dict[str, float] | None = None

    @property
    def quiescent(self) -> bool:
        """True when the run ended with no messages left in flight.

        An event-cap truncation is never quiescent, even with an empty
        message queue — the scenario was still generating events.
        """
        return self.pending_messages == 0 and not self.events_capped


#: Kinds of scripted control events: slot 2 of a turbo calendar entry (after
#: its message and timer kinds), and the async tcp transport's scripted controls.
CRASH, RECOVER, PARTITION, HEAL, INJECT = range(2, 7)


class EngineBase:
    """The skeleton the kernel, turbo and async backends share.

    It validates the shared constructor arguments, registers cores, scripts
    faults and external timers, fans a ``Broadcast`` out to the emitting
    core's ``members``, records decisions and outputs, and owns the
    ``run_until_*`` helpers.  Registration says nothing about who hears a
    broadcast: a registered core outside every membership (an RSM client)
    hears none, and several disjoint memberships on one engine (a sharded
    RSM) never hear each other's.  A backend supplies:

    * ``_clock`` — its :class:`Clock`, and ``_partition_groups`` — the
      active partition (a tuple of frozensets of pids, ``()`` when
      connected);
    * ``_push_control(at, kind, arg)`` — queue one scripted :data:`CRASH` /
      :data:`RECOVER` (``arg`` is the pid), :data:`PARTITION` (the frozen
      groups), :data:`HEAL` or :data:`INJECT` (the callback) at ``at``
      (``None`` meaning now);
    * the ``send`` and ``arm_timer`` sink methods (and ``broadcast`` when the
      per-destination loop below is not fast enough);
    * ``run`` — its event loop.
    """

    #: Name under which scenario results report this backend.
    name = ""
    #: Time semantics of this backend (one of :data:`TIME_SOURCES`).
    time_source = TIME_SIMULATED

    def __init__(
        self,
        delay_model: DelayModel | None = None,
        metrics: MetricsCollector | None = None,
        scheduler: Scheduler | None = None,
    ) -> None:
        if delay_model is not None and scheduler is not None:
            raise ValueError(
                "pass either delay_model or scheduler, not both (a scheduler "
                "fully determines delays; wrap a DelayModel in "
                "DelayModelScheduler if you want to combine them)"
            )
        self._scheduler = scheduler or DelayModelScheduler(delay_model or UniformDelay())
        self.metrics = metrics or MetricsCollector()
        #: ``(time, pid, label, data)`` tuples from cores' ``Output`` effects.
        self.outputs: list[tuple[float, Hashable, str, Any]] = []
        self._nodes: dict[Hashable, ProtocolCore] = {}
        self._cores: list[ProtocolCore] = []
        self._index: dict[Hashable, int] = {}
        self._pids: tuple[Hashable, ...] = ()
        self._started = False

    # -- topology ---------------------------------------------------------------

    def add_core(self, core: ProtocolCore) -> ProtocolCore:
        """Register ``core`` under its pid (before the run starts)."""
        if self._started:
            raise RuntimeError("cannot add cores after the run started")
        pid = core.pid
        if pid in self._nodes:
            raise ValueError(f"duplicate process id {pid!r}")
        self._nodes[pid] = core
        self._index[pid] = len(self._cores)
        self._cores.append(core)
        self._pids += (pid,)
        return core

    # ``add_node`` reads better at call sites that think in cluster terms.
    add_node = add_core

    @property
    def pids(self) -> tuple[Hashable, ...]:
        """All registered process identifiers, in registration order."""
        return self._pids

    @property
    def nodes(self) -> dict[Hashable, ProtocolCore]:
        """Mapping from pid to core (read-only by convention)."""
        return self._nodes

    def node(self, pid: Hashable) -> ProtocolCore:
        """Return the core registered under ``pid``."""
        return self._nodes[pid]

    @property
    def clock(self) -> Clock:
        """The engine's time service (simulated or wall-clock)."""
        return self._clock

    @property
    def now(self) -> float:
        """Current engine time, read off :attr:`clock`."""
        return self._clock.now()

    @property
    def scheduler(self) -> Scheduler:
        """The active scheduling policy."""
        return self._scheduler

    def _check_pid(self, pid: Hashable) -> None:
        if pid not in self._nodes:
            raise ValueError(f"unknown process {pid!r}")

    # -- the sink half every backend shares (see repro.engine.effects) ----------

    def broadcast(self, sender: Hashable, payload: Any, depth: int) -> None:
        """One ``send`` per member of ``sender``'s core, in ``members`` order."""
        send = self.send
        for dest in members_of(self._nodes[sender]):
            send(sender, dest, payload, depth)

    def decided(self, pid: Hashable, value: Any, round: Any, causal_depth: int) -> None:
        self.metrics.record_decision(
            pid=pid, value=value, time=self.now, causal_depth=causal_depth, round=round
        )

    def output(self, pid: Hashable, label: str, data: Any) -> None:
        self.outputs.append((self.now, pid, label, data))

    # -- timers & faults --------------------------------------------------------

    def schedule_timer(
        self, pid: Hashable, delay: float, tag: str, payload: Any = None
    ) -> TimerHandle:
        """Arm a timer firing ``pid``'s ``on_timer`` after ``delay`` (harness API).

        Cores arm their own timers through ``SetTimer`` effects; this entry
        point exists for experiments that script external alarms.  Returns
        the cancellation handle.
        """
        self._check_pid(pid)
        if invalid_time(delay):
            raise ValueError(f"invalid timer delay {delay!r}")
        handle = TimerHandle(tag, payload)
        self.arm_timer(pid, delay, handle)
        return handle

    def crash_node(self, pid: Hashable, at: float | None = None) -> Any:
        """Schedule ``pid``'s crash at time ``at`` (default: now)."""
        self._check_pid(pid)
        return self._push_control(at, CRASH, pid)

    def recover_node(self, pid: Hashable, at: float | None = None) -> Any:
        """Schedule ``pid``'s recovery at time ``at`` (default: now)."""
        self._check_pid(pid)
        return self._push_control(at, RECOVER, pid)

    def start_partition(self, *groups: Iterable[Hashable], at: float | None = None) -> Any:
        """Schedule a partition into ``groups`` at ``at`` (default: now)."""
        frozen = tuple(frozenset(group) for group in groups)
        validate_partition_groups(frozen)
        for group in frozen:
            for pid in group:
                if pid not in self._nodes:
                    raise ValueError(f"unknown process {pid!r} in partition group")
        return self._push_control(at, PARTITION, frozen)

    def heal_partition(self, at: float | None = None) -> Any:
        """Schedule the partition heal at ``at`` (default: now)."""
        return self._push_control(at, HEAL, None)

    def inject(self, fn: Callable[[Any], Any], at: float | None = None) -> Any:
        """Schedule ``fn(engine)`` at ``at`` — arbitrary scripted action."""
        return self._push_control(at, INJECT, fn)

    def apply_fault_plan(self, plan) -> None:
        """Schedule every action of a :class:`~repro.sim.faults.FaultPlan`."""
        plan.apply(self)

    def _link_blocked(self, sender: Hashable, dest: Hashable) -> bool:
        """Whether the active partition separates ``sender`` and ``dest``.

        Blocked iff both endpoints belong to (different) partition groups; a
        pid not listed in any group keeps full connectivity.
        """
        group_a = group_b = -1
        for index, group in enumerate(self._partition_groups):
            if sender in group:
                group_a = index
            if dest in group:
                group_b = index
        return group_a >= 0 and group_b >= 0 and group_a != group_b

    # -- running ----------------------------------------------------------------

    def start(self) -> None:
        """Hand every core its start event (once, in registration order)."""
        if self._started:
            return
        self._started = True
        for core in self._cores:
            core.now = self.now
            core.on_start()
            interpret(core, self)

    def pending(self) -> int:
        """Messages currently in flight (including held ones)."""
        return self.pending_messages

    def run_until_quiescent(self, max_messages: int = 200_000) -> RunResult:
        """Deliver every message currently in the system (and those they spawn)."""
        return self.run(stop_when=None, max_messages=max_messages)

    def run_until_decided(self, pids: list[Hashable], max_messages: int = 200_000) -> RunResult:
        """Run until every process in ``pids`` has recorded a decision."""
        targets = set(pids)
        # The collector maintains the decided-pid set incrementally, so this
        # predicate is O(|targets|) per event.
        decided = self.metrics.decided

        def all_decided() -> bool:
            return targets <= decided

        return self.run(stop_when=all_decided, max_messages=max_messages)
