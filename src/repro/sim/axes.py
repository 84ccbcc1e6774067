"""String-encoded scenario axes: schedules and fault plans as data.

The orchestrator persists every job spec as JSON and re-executes it in a
worker process, so the adversarial knobs of a simulated run — which
:class:`~repro.engine.delays.DelayModel` drives delivery and which
:class:`~repro.sim.faults.FaultPlan` scripts the environment — must be
expressible as plain strings.  This module is the single parser for those
strings; :func:`~repro.harness.workloads.build_scenario` takes the specs
(its ``scheduler=`` and ``fault_plan=`` axes) and resolves them here.

Scheduler specs (``parse_scheduler``; the axis keeps its historical name,
which every job artifact and replay command carries)::

    ""                         inherit the builder's delay model (no override)
    delay                      same (explicit)
    random                     UniformDelay(0, 10): near-arbitrary reordering
    random:spread=5            UniformDelay(0, 5)
    worst-case                 SkewedPairDelay slowing every link of p0
    worst-case:victims=p0+p2   slow all links touching p0 and p2
    worst-case:victims=quorum  slow the quorum-critical link set computed
                               from the membership (n, f) — enough processes
                               that no ack quorum can form over fast links
                               only (needs ``pids``/``f``; builders pass them)
    worst-case:starve=100,fast=1,victims=p1

A ``worst-case`` slow link takes ``starve`` plus a jitter in ``[0, 1]``;
every other link takes exactly ``fast``.

Fault-plan specs (``parse_fault_plan``) are resolved against a concrete
membership, since group membership and crash targets depend on the cluster
size.  Terms are joined with ``+``; crash targets are indices into the
*correct* membership (modulo its size) so one spec string scales across
cluster sizes in a sweep::

    ""                          no faults
    none                        same (explicit)
    churn                       the E12 preset: a half/half partition at
                                3..18 plus two crash/recover cycles
    partition@3-18              split the membership into two halves
    crash:1@20-30               crash the 2nd correct process at 20, recover at 30
    partition@3-18+crash:0@20-30   compose terms

Every parse error raises :class:`ValueError` with the offending spec, so a
typo'd axis fails sweep expansion up front instead of inside a worker.
"""

from __future__ import annotations
from collections.abc import Hashable, Sequence

from repro.engine.delays import DelayModel, FixedDelay, SkewedPairDelay, UniformDelay
from repro.sim.faults import FaultPlan

#: Spec strings meaning "no scheduler override".
_NO_SCHEDULER = ("", "delay", "default")
#: Spec strings meaning "no fault plan".
_NO_FAULT_PLAN = ("", "none")

#: The churn preset mirrors E12 / ``examples/partition_churn.py``: keep the
#: timing constants in sync with ``run_partition_churn_experiment``.
CHURN_PRESET = "partition@3-18+crash:1@20-30+crash:-1@32-42"


def _parse_options(text: str, spec: str) -> dict[str, str]:
    options: dict[str, str] = {}
    for part in text.split(","):
        if not part:
            continue
        name, separator, value = part.partition("=")
        if not separator or not name or not value:
            raise ValueError(f"bad scheduler option {part!r} in {spec!r} (expected key=value)")
        options[name] = value
    return options


def _positive_float(value: str, what: str, spec: str) -> float:
    try:
        number = float(value)
    except ValueError:
        raise ValueError(f"bad {what} {value!r} in {spec!r}") from None
    if not number > 0:
        raise ValueError(f"{what} must be positive in {spec!r}, got {number!r}")
    return number


def parse_scheduler(
    spec: str | None,
    pids: Sequence[Hashable] | None = None,
    f: int | None = None,
) -> DelayModel | None:
    """Parse a scheduler spec; ``None`` means "keep the builder's delay model".

    ``pids`` and ``f`` are the concrete membership the spec is resolved
    against; they are only required by membership-dependent specs
    (``worst-case:victims=quorum``), so axis *validation* can still run
    membership-free for the fixed-victim forms.
    """
    if spec is None:
        return None
    spec = spec.strip()
    if spec in _NO_SCHEDULER:
        return None
    kind, _, rest = spec.partition(":")
    options = _parse_options(rest, spec)
    if kind == "random":
        spread = _positive_float(options.pop("spread", "10"), "spread", spec)
        if options:
            raise ValueError(f"unknown random-scheduler options {sorted(options)} in {spec!r}")
        return UniformDelay(0.0, spread)
    if kind == "worst-case":
        victims_text = options.pop("victims", "p0")
        starve = _positive_float(options.pop("starve", "200"), "starve delay", spec)
        fast = _positive_float(options.pop("fast", "0.5"), "fast delay", spec)
        if options:
            raise ValueError(f"unknown worst-case options {sorted(options)} in {spec!r}")
        if victims_text == "quorum":
            if pids is None or f is None:
                raise ValueError(
                    f"{spec!r} computes its starved links from the membership; "
                    "resolve it with pids= and f= (the scenario builders do)"
                )
            return SkewedPairDelay.quorum_critical(pids, f, slow_delay=starve, fast_delay=fast)
        victims = tuple(v for v in victims_text.split("+") if v)
        if not victims:
            raise ValueError(f"worst-case scheduler needs at least one victim in {spec!r}")
        return SkewedPairDelay(victims=victims, base=FixedDelay(fast), slow_delay=starve)
    raise ValueError(
        f"unknown scheduler spec {spec!r} (expected delay, random[:spread=S] "
        "or worst-case[:victims=p0+p1|quorum,starve=S,fast=F])"
    )


def _parse_window(text: str, term: str) -> tuple[float, float]:
    start_text, separator, end_text = text.partition("-")
    if not separator:
        raise ValueError(f"fault term {term!r} needs a START-END window, got {text!r}")
    try:
        start, end = float(start_text), float(end_text)
    except ValueError:
        raise ValueError(f"bad time window {text!r} in fault term {term!r}") from None
    if not 0 <= start < end:
        raise ValueError(f"fault window must satisfy 0 <= start < end, got {text!r} in {term!r}")
    return start, end


def parse_fault_plan(
    spec: str | None,
    pids: Sequence[Hashable],
    correct: Sequence[Hashable],
) -> FaultPlan | None:
    """Resolve a fault-plan spec against a concrete membership.

    ``pids`` is the full membership (partition groups are halves of it);
    ``correct`` are the correct processes (crash targets index into them, so
    Byzantine slots are never double-faulted).
    """
    if spec is None:
        return None
    spec = spec.strip()
    if spec in _NO_FAULT_PLAN:
        return None
    if spec == "churn":
        spec = CHURN_PRESET
    if not correct:
        raise ValueError("cannot resolve a fault plan without correct processes")
    plan = FaultPlan()
    for term in spec.split("+"):
        term = term.strip()
        if not term:
            raise ValueError(f"empty fault term in {spec!r}")
        head, _, window_text = term.partition("@")
        if not window_text:
            raise ValueError(f"fault term {term!r} needs an @START-END window")
        start, end = _parse_window(window_text, term)
        kind, _, argument = head.partition(":")
        if kind == "partition":
            if argument:
                raise ValueError(f"partition takes no argument, got {term!r}")
            half = max(1, len(pids) // 2)
            if len(pids) < 2:
                raise ValueError("a partition needs at least two processes")
            plan.partition(pids[:half], pids[half:], at=start, heal_at=end)
        elif kind == "crash":
            try:
                index = int(argument)
            except ValueError:
                raise ValueError(f"crash target must be an integer index, got {term!r}") from None
            plan.crash(correct[index % len(correct)], at=start, recover_at=end)
        else:
            raise ValueError(f"unknown fault term {term!r} (expected partition@A-B or crash:IDX@A-B)")
    return plan


def scheduler_spec_is_adversarial(spec: str | None) -> bool:
    """Whether ``spec`` names a schedule that may starve links for a long time."""
    return bool(spec) and spec.strip().startswith("worst-case")


def describe_axes(scheduler: str | None, fault_plan: str | None) -> str:
    """One-line human-readable summary used in reports and replay hints."""
    parts: list[str] = []
    if scheduler and scheduler.strip() not in _NO_SCHEDULER:
        parts.append(f"scheduler={scheduler}")
    if fault_plan and fault_plan.strip() not in _NO_FAULT_PLAN:
        parts.append(f"fault_plan={fault_plan}")
    return ", ".join(parts) or "default schedule, no faults"
