"""Randomized scenario specs: generation, execution, uniform outcomes.

A :class:`ScenarioSpec` is a fully JSON-able description of one randomized
run: protocol, cluster shape, Byzantine behaviour mix, scheduler spec,
fault-plan spec, rounds and the RNG seed.  Because every field round-trips
through strings and ints, a spec travels unchanged through the
orchestrator's :class:`~repro.orchestrator.jobs.JobSpec` params, a
``repro-results/v1`` artifact, and a ``python -m repro run SCENARIO``
replay command line.

:func:`generate_scenarios` derives a whole budget of specs from a single
seed (the explorer's only source of randomness), and
:func:`run_scenario_experiment` — registered as the hidden ``SCENARIO``
experiment — executes one spec through :func:`~repro.harness.build_scenario` and
judges it with the invariant library.  ``ok`` is ``True`` iff no invariant
was violated, which is what makes the orchestrator's exit codes and
artifact totals meaningful for fuzzing.

The ``mutant`` field re-enables the deliberately weakened variants of
:mod:`repro.core.ablations` (no wait-till-safe, plain disclosure, both, and
— for the wire axis — a signature-blind PKI).  Mutants exist so the
explorer can prove it is not blind: a seeded mutant run *must* surface an
invariant violation, and the shrinker must reduce it — ``tests/explore``
pins exactly that.

The ``wire`` field is the wire-level fault axis (PR 8): a non-empty
:func:`~repro.engine.wire_faults.parse_wire_faults` DSL string moves the
scenario onto the async backend's real TCP transport with a
:class:`~repro.engine.wire_faults.FaultyCodec` forging frames on the send
path.  Wire scenarios run the *signed-message* protocols (SbS/GSbS) with no
simulated scheduler, fault plan or in-process Byzantine processes — on this
axis the wire itself is the adversary, and the claim under test is the
paper's: nothing forged on the wire may ever influence a decision.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import Any

from repro.byzantine.behaviors import (
    AlwaysAckAcceptor,
    CrashByzantine,
    EquivocatingGWTSProposer,
    EquivocatingProposer,
    FastForwardGWTS,
    FlipFloppingAcceptor,
    ForgedSafetyByzantine,
    GarbageProposer,
    NackSpamAcceptor,
    SbSEquivocatingProposer,
    SilentByzantine,
    ValueInjectorProposer,
)
from repro.core.wts import WTSProcess
from repro.engine.wire import WireError
from repro.engine.wire_faults import parse_wire_faults
from repro.explore.invariants import PROOF_PROTOCOLS, check_scenario_invariants, proof_invariants
from repro.harness.workloads import PROTOCOLS, build_scenario
from repro.metrics.report import format_table
from repro.rsm.crdt import GCounterObject, GSetObject
from repro.sim.axes import describe_axes, parse_fault_plan, parse_scheduler, scheduler_spec_is_adversarial

#: Behaviour name -> factory builder.  Each builder takes the spec's
#: ``rounds`` (generalized behaviours pace themselves by it) and returns a
#: scenario-builder-compatible factory ``(pid, lattice, members, f, **kw)``.
_BEHAVIOUR_BUILDERS = {
    "silent": lambda rounds: (lambda pid, lat, members, f, **kw: SilentByzantine(pid)),
    "crash": lambda rounds: (
        lambda pid, lat, members, f, **kw: CrashByzantine(
            WTSProcess(pid, lat, members, f, proposal=frozenset({f"crash-{pid}"})),
            crash_after_deliveries=5,
        )
    ),
    "flip-flop": lambda rounds: (
        lambda pid, lat, members, f, **kw: FlipFloppingAcceptor(pid, lat, members, f)
    ),
    "nack-spam": lambda rounds: (
        lambda pid, lat, members, f, **kw: NackSpamAcceptor(pid, lat, members, f)
    ),
    "always-ack": lambda rounds: (
        lambda pid, lat, members, f, **kw: AlwaysAckAcceptor(pid, lat, members, f)
    ),
    "equivocator": lambda rounds: (
        lambda pid, lat, members, f, **kw: EquivocatingProposer(
            pid, lat, members, f,
            value_a=frozenset({"eq-a"}), value_b=frozenset({"eq-b"}),
        )
    ),
    "value-injector": lambda rounds: (
        lambda pid, lat, members, f, **kw: ValueInjectorProposer(
            pid, lat, members, f, proposal=frozenset({f"byz-{pid}"})
        )
    ),
    "garbage": lambda rounds: (
        lambda pid, lat, members, f, **kw: GarbageProposer(pid, lat, members, f)
    ),
    "sbs-equivocator": lambda rounds: (
        lambda pid, lat, members, f, **kw: SbSEquivocatingProposer(
            pid, lat, members, f,
            value_a=frozenset({"eq-a"}), value_b=frozenset({"eq-b"}), **kw,
        )
    ),
    "forged-safety": lambda rounds: (
        lambda pid, lat, members, f, **kw: ForgedSafetyByzantine(
            pid, lat, members, victim=members[0], injected=frozenset({f"forged-{pid}"})
        )
    ),
    "fast-forward": lambda rounds: (
        lambda pid, lat, members, f, **kw: FastForwardGWTS(
            pid, lat, members,
            rounds_ahead=rounds + 3,
            values=[frozenset({f"byz-ff-{pid}-{k}"}) for k in range(3)],
        )
    ),
    "gwts-equivocator": lambda rounds: (
        lambda pid, lat, members, f, **kw: EquivocatingGWTSProposer(
            pid, lat, members, f,
            max_rounds=rounds,
            equivocation_pool=[frozenset({f"eqg-{pid}-{k}"}) for k in range(2)],
        )
    ),
}

#: Which behaviours speak which protocol (a WTS-subclass attacker makes no
#: sense inside an SbS cluster, and vice versa).
PROTOCOL_BEHAVIOURS: dict[str, tuple[str, ...]] = {
    "wts": ("silent", "crash", "flip-flop", "nack-spam", "always-ack",
            "equivocator", "value-injector", "garbage"),
    "sbs": ("silent", "sbs-equivocator", "forged-safety"),
    "gwts": ("silent", "fast-forward", "gwts-equivocator"),
    "gsbs": ("silent",),
    "rsm": ("silent",),
}

#: The invariant set each protocol is judged by (from the protocol registry).
PROTOCOL_KINDS = {protocol: PROTOCOLS[protocol].kind for protocol in PROTOCOL_BEHAVIOURS}

#: Scheduler axis values sampled by the generator.  The worst-case starve
#: delay is kept moderate so a fuzzing run stays fast; it is still an order
#: of magnitude beyond the fast path.  The worst-case entry starves the
#: *quorum-critical* link set computed from each scenario's membership
#: (n, f) — the strongest finite starvation the thresholds allow — instead
#: of a fixed victim list.
_SCHEDULER_MENU = ("", "", "random:spread=3", "random:spread=10",
                   "worst-case:victims=quorum,starve=60,fast=1")
#: Fault-plan axis values sampled by the generator.
_FAULT_PLAN_MENU = ("", "", "churn", "partition@3-15", "crash:0@5-25")

#: RSM runs involve client retry timers, so keep their axes gentle: a
#: starved replica plus aggressive retries makes runs long without testing
#: anything the LA protocols' worst-case axis does not.  The crash window
#: stays well inside the replicas' round budget — replicas execute a finite
#: GWTS prefix, and a fault outlasting it wedges late reads by truncation,
#: not by a protocol defect.
_RSM_SCHEDULER_MENU = ("", "random:spread=3")
_RSM_FAULT_PLAN_MENU = ("", "crash:1@20-60")

#: Protocols the wire axis applies to: the ones whose defence *is* the
#: signature scheme.  WTS/GWTS have no signed payloads for a tamperer to
#: attack, and RSM rides GWTS.
WIRE_PROTOCOLS = ("sbs", "gsbs")

#: Wire-fault axis values used by the coverage-weighted generator (and as
#: the default menu for campaign files that enable the wire axis without
#: naming their own values).  Mostly empty so plain simulated scenarios
#: stay the bulk of a mixed campaign; the non-empty entries cover the
#: framing-layer attacks (flip/trunc), the well-formed floods (dup/replay)
#: and the Byzantine mutations (tamper-*) on both framings.
WIRE_MENU = (
    "", "", "", "",
    "flip:0.3+trunc:0.3",
    "dup:0.3+replay:0.3",
    "tamper-value:0.4+tamper-sig:0.3",
    "tamper-value:0.5+framing:binary",
)

#: Known-bad variants (see :mod:`repro.core.ablations`) and the adversary
#: that triggers each one's targeted property violation.  The WTS ablations
#: are triggered by an in-process Byzantine behaviour; ``no-signatures``
#: (the blind PKI, ablation A4) is triggered by the *wire axis* — on-wire
#: tampering that an honest registry rejects must land in decisions once
#: verification is disabled, proving the wire-Byzantine test can fail.
MUTANTS: dict[str, str] = {
    "no-wait-till-safe": "nack-spam",
    "plain-disclosure": "equivocator",
    "no-defences": "equivocator",
    "no-signatures": "",
}

#: The protocol each mutant must run under (default: the WTS ablations).
MUTANT_PROTOCOLS: dict[str, str] = {"no-signatures": "sbs"}

#: Wire-fault menus for the ``no-signatures`` mutant: every entry carries a
#: tamper term (the attack verification is supposed to stop).
_NO_SIGNATURES_WIRE_MENU = (
    "tamper-value:0.6",
    "tamper-value:0.5+tamper-sig:0.4",
    "tamper-value:0.6+framing:binary",
)


@dataclass(frozen=True)
class ScenarioSpec:
    """One randomized scenario, fully described by JSON-able fields."""

    protocol: str = "wts"
    n: int = 4
    f: int = 1
    byzantine: tuple[str, ...] = ()
    scheduler: str = ""
    fault_plan: str = ""
    rounds: int = 3
    mutant: str = ""
    wire: str = ""
    #: Per-round proposal batch cap for the generalized protocols and the
    #: RSM (0 = unbatched, the historic behaviour).
    batch: int = 0
    #: RSM data-plane shards (1 = the single-group RSM; >1 splits the
    #: replica fleet into independent per-shard GWTS groups).
    shards: int = 1
    seed: int = 0

    def params(self) -> dict[str, Any]:
        """The spec as ``SCENARIO`` experiment params (seed travels separately)."""
        params = dataclasses.asdict(self)
        del params["seed"]
        params["byzantine"] = "+".join(self.byzantine)
        return params

    def replay_command(self, quick: bool = False) -> str:
        """A copy-pastable deterministic replay of exactly this scenario.

        ``quick`` must match the campaign's flag: quick mode changes the
        generalized workload size, so a reproducer found under ``--quick``
        only replays under ``--quick``.
        """
        parts = [f"PYTHONPATH=src python -m repro run SCENARIO --seed {self.seed}"]
        if quick:
            parts.append("--quick")
        defaults = {"batch": 0, "shards": 1}
        parts += [
            f"--param {name}={value}"
            for name, value in self.params().items()
            if name in ("n", "f", "rounds", "protocol")
            or value not in ("", defaults.get(name, 0))
        ]
        return " ".join(parts)

    def describe(self) -> str:
        byz = "+".join(self.byzantine) or "none"
        extra = f", mutant={self.mutant}" if self.mutant else ""
        if self.wire:
            extra += f", wire={self.wire}"
        if self.batch:
            extra += f", batch={self.batch}"
        if self.shards > 1:
            extra += f", shards={self.shards}"
        return (
            f"{self.protocol} n={self.n} f={self.f} seed={self.seed} "
            f"byzantine={byz}, {describe_axes(self.scheduler, self.fault_plan)}{extra}"
        )

    def replace(self, **changes: Any) -> ScenarioSpec:
        return dataclasses.replace(self, **changes)


def validate_spec(spec: ScenarioSpec) -> None:
    """Reject structurally impossible specs before a worker touches them."""
    menu = PROTOCOL_BEHAVIOURS.get(spec.protocol)
    if menu is None:
        raise ValueError(
            f"unknown protocol {spec.protocol!r}; known: {', '.join(PROTOCOL_BEHAVIOURS)}"
        )
    if spec.f < 0:
        raise ValueError(f"f must be non-negative, got {spec.f}")
    if spec.n < 3 * spec.f + 1:
        raise ValueError(
            f"n={spec.n} cannot tolerate f={spec.f} (needs n >= 3f+1 = {3 * spec.f + 1})"
        )
    if len(spec.byzantine) > spec.f:
        raise ValueError(
            f"{len(spec.byzantine)} Byzantine behaviours exceed f={spec.f}"
        )
    for name in spec.byzantine:
        if name not in menu:
            raise ValueError(
                f"behaviour {name!r} does not speak {spec.protocol} "
                f"(menu: {', '.join(menu)})"
            )
    if spec.mutant and spec.mutant not in MUTANTS:
        raise ValueError(f"unknown mutant {spec.mutant!r}; known: {', '.join(MUTANTS)}")
    if spec.mutant:
        required = MUTANT_PROTOCOLS.get(spec.mutant, "wts")
        if spec.protocol != required:
            raise ValueError(
                f"mutant {spec.mutant!r} runs under protocol={required}, "
                f"got {spec.protocol!r}"
            )
    if spec.rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {spec.rounds}")
    if spec.batch < 0:
        raise ValueError(f"batch must be >= 0 (0 = unbatched), got {spec.batch}")
    if spec.batch and spec.protocol not in ("gwts", "gsbs", "rsm"):
        raise ValueError(
            f"batch applies to the generalized protocols (gwts/gsbs/rsm), "
            f"got protocol={spec.protocol!r}"
        )
    if spec.shards < 1:
        raise ValueError(f"shards must be >= 1, got {spec.shards}")
    if spec.shards > 1:
        if spec.protocol != "rsm":
            raise ValueError(
                f"shards > 1 runs the sharded RSM data plane, got "
                f"protocol={spec.protocol!r}"
            )
        if spec.byzantine or spec.mutant:
            raise ValueError(
                "sharded RSM scenarios drive correct replicas only (the "
                "sharded scenario builder has no per-shard Byzantine mix)"
            )
        if spec.n < spec.shards * (3 * spec.f + 1):
            raise ValueError(
                f"n={spec.n} cannot split into {spec.shards} shards of >= "
                f"3f+1 = {3 * spec.f + 1} replicas each"
            )
    _validate_wire_axis(spec)
    # Fail fast on malformed axis specs (same parsers the builders use).
    pids = [f"p{i}" for i in range(spec.n)]
    parse_scheduler(spec.scheduler, pids=pids, f=spec.f)
    parse_fault_plan(spec.fault_plan, pids=pids,
                     correct=pids[: spec.n - len(spec.byzantine)])


def _validate_wire_axis(spec: ScenarioSpec) -> None:
    if not spec.wire:
        if spec.mutant == "no-signatures":
            raise ValueError(
                "the no-signatures mutant needs a wire axis with a tamper-* "
                "term: it exists to prove on-wire tampering lands once "
                "verification is blind"
            )
        return
    if spec.protocol not in WIRE_PROTOCOLS:
        raise ValueError(
            f"the wire axis tests the signed-message protocols "
            f"({', '.join(WIRE_PROTOCOLS)}); got protocol={spec.protocol!r}"
        )
    try:
        plan = parse_wire_faults(spec.wire)
    except WireError as exc:
        raise ValueError(f"bad wire axis {spec.wire!r}: {exc}") from None
    if spec.scheduler or spec.fault_plan:
        raise ValueError(
            "wire scenarios run on the real-time TCP transport: the "
            "simulated scheduler/fault_plan axes do not apply there"
        )
    if spec.byzantine:
        raise ValueError(
            "wire scenarios drive honest processes — the wire itself is "
            "the adversary; drop the byzantine axis"
        )
    if spec.mutant == "no-signatures" and not (
        plan.has("tamper-value") or plan.has("tamper-sig")
    ):
        raise ValueError(
            "the no-signatures mutant needs a tamper-* wire term: without "
            "one there is nothing for blind verification to miss"
        )


def generate_scenarios(
    seed: int,
    budget: int,
    mutant: str = "",
    coverage: Any = None,
    menus: dict[str, tuple[str, ...]] | None = None,
) -> list[ScenarioSpec]:
    """Derive ``budget`` scenario specs deterministically from one seed.

    With ``mutant`` set, every spec runs the named weakened variant with
    its triggering adversary in the mix — the self-test mode proving the
    invariant checkers still catch known-bad implementations.

    ``coverage`` (a :class:`~repro.explore.coverage.CoverageMap`) and/or
    ``menus`` (campaign axis menus) switch to the weighted generator; the
    plain call keeps its historic draw sequence byte-exact.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    sampler = ScenarioSampler(seed=seed, mutant=mutant, coverage=coverage, menus=menus)
    return sampler.take(budget)


#: Axis-menu keys a campaign file (or caller) may override.
MENU_KEYS = ("protocols", "schedulers", "fault_plans", "wire")

_DEFAULT_MENUS: dict[str, tuple[str, ...]] = {
    "protocols": ("wts", "wts", "sbs", "gwts", "gwts", "gsbs", "rsm"),
    "schedulers": _SCHEDULER_MENU,
    "fault_plans": _FAULT_PLAN_MENU,
    "wire": WIRE_MENU,
}


class ScenarioSampler:
    """A deterministic stream of scenario specs, one batch at a time.

    Three modes, all pure functions of the constructor arguments plus (for
    coverage) the observation history fed back between batches:

    * plain — no coverage, no menus: draws exactly the sequence
      :func:`generate_scenarios` has always drawn (pinned by the explorer
      determinism tests);
    * mutant — every spec runs the named known-bad variant;
    * weighted — a :class:`~repro.explore.coverage.CoverageMap` and/or
      campaign menus steer each axis draw through
      ``random.Random.choices`` with integer weights, which keeps the
      stream independent of worker count (feedback happens strictly
      between batches, never inside one).
    """

    def __init__(
        self,
        seed: int,
        mutant: str = "",
        coverage: Any = None,
        menus: dict[str, tuple[str, ...]] | None = None,
    ) -> None:
        if mutant and mutant not in MUTANTS:
            raise ValueError(f"unknown mutant {mutant!r}; known: {', '.join(MUTANTS)}")
        if menus:
            unknown = sorted(set(menus) - set(MENU_KEYS))
            if unknown:
                raise ValueError(
                    f"unknown axis menus {unknown}; known: {', '.join(MENU_KEYS)}"
                )
        self.rng = random.Random(seed)
        self.mutant = mutant
        self.coverage = coverage
        self.menus = dict(_DEFAULT_MENUS)
        for key, values in (menus or {}).items():
            if not values:
                raise ValueError(f"axis menu {key!r} must not be empty")
            self.menus[key] = tuple(values)
        self._weighted = coverage is not None or bool(menus)

    def take(self, count: int) -> list[ScenarioSpec]:
        specs: list[ScenarioSpec] = []
        for _ in range(count):
            if self.mutant:
                spec = _generate_mutant_spec(self.rng, self.mutant)
            elif self._weighted:
                spec = _generate_weighted_spec(self.rng, self.menus, self.coverage)
            else:
                spec = _generate_spec(self.rng)
            validate_spec(spec)
            specs.append(spec)
        return specs


def _generate_spec(rng: random.Random) -> ScenarioSpec:
    protocol = rng.choice(("wts", "wts", "sbs", "gwts", "gwts", "gsbs", "rsm"))
    f = rng.choice((1, 1, 2)) if protocol in ("wts", "sbs") else 1
    n = 3 * f + 1 + rng.choice((0, 0, 1))
    menu = PROTOCOL_BEHAVIOURS[protocol]
    byzantine = tuple(rng.choice(menu) for _ in range(rng.randint(0, f)))
    if protocol == "rsm":
        scheduler = rng.choice(_RSM_SCHEDULER_MENU)
        fault_plan = rng.choice(_RSM_FAULT_PLAN_MENU)
    else:
        scheduler = rng.choice(_SCHEDULER_MENU)
        fault_plan = rng.choice(_FAULT_PLAN_MENU)
    return ScenarioSpec(
        protocol=protocol,
        n=n,
        f=f,
        byzantine=byzantine,
        scheduler=scheduler,
        fault_plan=fault_plan,
        rounds=rng.choice((2, 3)) if protocol in ("gwts", "gsbs") else 3,
        seed=rng.randrange(1_000_000),
    )


def _generate_weighted_spec(
    rng: random.Random,
    menus: dict[str, tuple[str, ...]],
    coverage: Any,
) -> ScenarioSpec:
    """The coverage/campaign generator: every axis draw is menu-driven and
    (with a CoverageMap) weighted toward values that recently found novel
    signatures or violations.  Same spec shapes as :func:`_generate_spec`;
    only the draw mechanics differ."""

    def choose(axis: str, menu: tuple[str, ...]) -> str:
        if coverage is not None:
            return coverage.choose(rng, axis, menu)
        return rng.choice(menu)

    protocol = choose("protocol", menus["protocols"])
    f = rng.choice((1, 1, 2)) if protocol in ("wts", "sbs") else 1
    n = 3 * f + 1 + rng.choice((0, 0, 1))
    rounds = rng.choice((2, 3)) if protocol in ("gwts", "gsbs") else 3
    wire = ""
    if protocol in WIRE_PROTOCOLS:
        wire = choose("wire", menus["wire"])
    if wire:
        # On the wire axis the forged frames are the adversary; the
        # simulated axes do not exist on the real-time TCP transport.
        # Wire runs also ride real wall-clock sockets where cost grows
        # steeply with quorum size and round count (a GSbS proof frame is
        # nested sets of signed values — n=5 at rounds=3 costs tens of
        # seconds to serialize and verify), so the wire axis keeps the
        # minimum quorum and shallow rounds: the claim under test is that
        # *verification* rejects tampered bytes, which quorum geometry
        # does not change.  The draws above still happen so the RNG
        # stream (and hence campaign determinism) is unaffected.
        return ScenarioSpec(
            protocol=protocol, n=4, f=1, rounds=2,
            wire=wire, seed=rng.randrange(1_000_000),
        )
    menu = PROTOCOL_BEHAVIOURS[protocol]
    byzantine = tuple(rng.choice(menu) for _ in range(rng.randint(0, f)))
    # The data-plane axes (PR 9): a per-round batch cap for the generalized
    # protocols, and — for the RSM — a sharded replica fleet.  Both default
    # to the historic unbatched/single-group shapes most of the time.
    batch = rng.choice((0, 0, 2, 4)) if protocol in ("gwts", "gsbs", "rsm") else 0
    shards = 1
    if protocol == "rsm":
        # RSM keeps its gentle axes regardless of campaign menus (see the
        # comment on _RSM_SCHEDULER_MENU).
        scheduler = rng.choice(_RSM_SCHEDULER_MENU)
        fault_plan = rng.choice(_RSM_FAULT_PLAN_MENU)
        shards = rng.choice((1, 1, 2))
        if shards > 1:
            # The sharded scenario builder drives correct replicas only,
            # and every shard group needs >= 3f + 1 members.
            byzantine = ()
            n = shards * (3 * f + 1)
    else:
        scheduler = choose("scheduler", menus["schedulers"])
        fault_plan = choose("fault_plan", menus["fault_plans"])
    return ScenarioSpec(
        protocol=protocol, n=n, f=f, byzantine=byzantine,
        scheduler=scheduler, fault_plan=fault_plan, rounds=rounds,
        batch=batch, shards=shards,
        seed=rng.randrange(1_000_000),
    )


def _generate_mutant_spec(rng: random.Random, mutant: str) -> ScenarioSpec:
    if mutant == "no-signatures":
        return ScenarioSpec(
            protocol="sbs",
            n=4 + rng.choice((0, 1)),
            f=1,
            wire=rng.choice(_NO_SIGNATURES_WIRE_MENU),
            mutant=mutant,
            seed=rng.randrange(1_000_000),
        )
    trigger = MUTANTS[mutant]
    extras = ("silent",) if rng.random() < 0.3 else ()
    f = 1 + len(extras)
    return ScenarioSpec(
        protocol="wts",
        n=3 * f + 1 + rng.choice((0, 1)),
        f=f,
        byzantine=(trigger,) + extras,
        scheduler=rng.choice(_SCHEDULER_MENU),
        fault_plan=rng.choice(_FAULT_PLAN_MENU),
        mutant=mutant,
        seed=rng.randrange(1_000_000),
    )


def _mutant_process_class(mutant: str) -> type:
    # Imported here, not at module level: the ablations are deliberately
    # incorrect implementations and stay out of import-time surfaces.
    from repro.core.ablations import (
        NoDefencesWTSProcess,
        NoSafetyWTSProcess,
        PlainDisclosureWTSProcess,
    )

    return {
        "no-wait-till-safe": NoSafetyWTSProcess,
        "plain-disclosure": PlainDisclosureWTSProcess,
        "no-defences": NoDefencesWTSProcess,
    }[mutant]


def _run_spec(spec: ScenarioSpec, quick: bool, backend: str = "kernel"):
    """Execute one spec; returns ``(scenario, kind, strict)``.

    The spec's fields become :func:`~repro.harness.workloads.build_scenario`
    arguments; the protocol registry supplies the rest (core class, seeding,
    stop predicate) and the invariant ``kind``.  ``strict=False`` relaxes the
    invariant that is only *eventual* over a perturbed finite prefix
    (inclusivity for generalized runs, operation liveness for RSM runs) — the
    same treatment E12 gives its churn configurations.
    """
    kind = PROTOCOL_KINDS[spec.protocol]
    kwargs: dict[str, Any] = dict(
        seed=spec.seed,
        byzantine_factories=[_BEHAVIOUR_BUILDERS[name](spec.rounds) for name in spec.byzantine],
        scheduler=spec.scheduler,
        fault_plan=spec.fault_plan,
        backend=backend,
    )
    if spec.wire:
        # The wire axis forces the async backend's real TCP transport with
        # the FaultyCodec injecting on the send path; a wall-clock budget
        # bounds the run because real sockets have no simulated-time cap.
        kwargs.update(
            backend="async",
            transport="tcp",
            wire_faults=spec.wire,
            # Generous relative to a healthy run (~1-15s at the clamped
            # spec sizes, dominated by reconnect backoff under flip/trunc
            # churn): a cap-induced "liveness violation" on a loaded CI
            # runner is a false alarm, and the campaign's per-job
            # timeout_s still bounds a genuinely wedged run.
            max_wall_s=30.0 if quick else 60.0,
        )
    if spec.mutant == "no-signatures":
        from repro.core.ablations import BlindKeyRegistry

        kwargs["registry"] = BlindKeyRegistry(seed=spec.seed)
    elif spec.mutant:
        # Mirror E11: run the weakened variant to quiescence under a
        # message cap so liveness-destroying mutants terminate and
        # value-laundering mutants get time to contaminate decisions.
        kwargs.update(process_class=_mutant_process_class(spec.mutant), run_to_quiescence=True, max_messages=30_000)
    undisturbed = spec.fault_plan in ("", "none")
    strict = True
    if kind == "gla":
        kwargs.update(values_per_process=1 if quick else 2, rounds=spec.rounds, batch_size=spec.batch or None)
        # Inclusivity over the finite prefix is only guaranteed when the
        # environment does not hold traffic for long stretches.  Wire runs
        # ride real wall-clock TCP, whose timing can truncate the prefix
        # the same way, so they get the same relaxation.
        strict = undisturbed and not scheduler_spec_is_adversarial(spec.scheduler) and not spec.wire
    elif kind == "rsm":
        counter = GCounterObject("hits")
        gset = GSetObject("tags")
        scripts = {
            "client0": [("update", counter.op_inc(1)), ("update", counter.op_inc(2)), ("read",)],
            "client1": [("update", gset.op_add("tag-a")), ("read",)],
        }
        kwargs.update(inputs=scripts, rounds=12, batch_size=spec.batch or None)
        if spec.shards > 1:
            # The sharded data plane (PR 9): independent per-shard GWTS
            # groups, commands routed by object, reads joining every shard.
            kwargs.update(shards=spec.shards)
        else:
            kwargs.update(byzantine_client_payloads={"badclient": ["junk-0", "junk-1"]})
        # Replicas execute a finite GWTS prefix; a fault window can eat
        # rounds on empty batches, so operation liveness is only strict on
        # an unperturbed run (read safety is always checked).
        strict = undisturbed
    return build_scenario(spec.protocol, spec.n, spec.f, **kwargs).run(), kind, strict


def run_scenario_spec(
    spec: ScenarioSpec, quick: bool = False, backend: str = "kernel"
) -> dict[str, Any]:
    """Run one spec and return the uniform experiment outcome dictionary."""
    validate_spec(spec)
    scenario, kind, strict = _run_spec(spec, quick, backend)
    violations = check_scenario_invariants(
        scenario,
        kind,
        require_liveness=strict if kind == "rsm" else True,
        require_inclusivity=strict,
    )
    if spec.protocol in PROOF_PROTOCOLS:
        violations.update(proof_invariants(scenario))
    ok = not violations
    rows = [
        (invariant, len(messages), messages[0])
        for invariant, messages in sorted(violations.items())
    ] or [("(all invariants)", 0, "no violations")]
    headers = ["invariant", "#violations", "first violation"]
    return {
        "experiment": "SCENARIO",
        "expected": "all protocol invariants hold on a randomized scenario",
        "spec": spec.params() | {"seed": spec.seed},
        "kind": kind,
        "violations": violations,
        "replay": spec.replay_command(quick=quick),
        "headers": headers,
        "rows": rows,
        "table": format_table(headers, rows, title=f"SCENARIO: {spec.describe()}"),
        "check": {"ok": ok, "violations": violations},
        "ok": ok,
        "headline": {
            "violated_invariants": float(len(violations)),
            "decided": float(sum(1 for decs in scenario.decisions().values() if decs)),
        },
        "latency": {},
    }


def run_scenario_experiment(
    seed: int = 0, quick: bool = False, backend: str = "kernel", **params: Any
) -> dict[str, Any]:
    """The hidden ``SCENARIO`` experiment: one randomized-explorer scenario.

    ``params`` are :class:`ScenarioSpec` fields in their
    :meth:`ScenarioSpec.params` form (``byzantine`` is ``+``-joined), so
    ``repro run SCENARIO --seed S --param ...`` replays any scenario the
    explorer reports — including shrunk reproducers.
    """
    return run_scenario_spec(spec_from_params(seed, params), quick=quick, backend=backend)


def spec_from_params(seed: int, params: dict[str, Any]) -> ScenarioSpec:
    """Rebuild a :class:`ScenarioSpec` from ``SCENARIO`` job params.

    Absent fields keep their defaults; present ones are coerced to the
    field's type (job params may arrive as CLI strings).
    """
    fields = {field.name: field for field in dataclasses.fields(ScenarioSpec)}
    unknown = sorted(set(params) - set(fields))
    if unknown:
        raise ValueError(f"unknown scenario parameters {unknown}; known: {', '.join(fields)}")
    values: dict[str, Any] = {"seed": seed}
    for name, value in params.items():
        if name != "byzantine":
            values[name] = type(fields[name].default)(value)
        elif isinstance(value, str):
            values[name] = tuple(part for part in value.split("+") if part)
        else:
            values[name] = tuple(value)
    return ScenarioSpec(**values)
