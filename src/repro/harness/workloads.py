"""The scenario path: a protocol registry, one build step, one run step.

:data:`PROTOCOLS` records what distinguishes the algorithms (correct-core
factory, how inputs are seeded, stop predicate, message cap, invariant
family); :func:`build_scenario` assembles a cluster of any of them into a
:class:`Scenario` and :meth:`Scenario.run` executes it — two steps, so a
caller can time the run window alone.  Every simulated run goes through that
pair: ``build_scenario("wts", 4, 1, seed=42).run()``.

The recipe, written once in :func:`build_scenario`:

1. create the membership (``p0 .. p{n-1}``) and an engine backend resolved
   through the :mod:`repro.engine.backends` registry (``backend="kernel"``
   — the deterministic reference — ``"turbo"``, the benchmark fast path
   executing the same schedule, or ``"async"``, real asyncio I/O reporting
   wall-clock time) with the requested delay model and seed;
2. instantiate correct protocol cores for the first ``n - b`` slots and
   Byzantine cores (produced by user-supplied factories) for the last ``b``
   slots;
3. (:meth:`Scenario.run`) run the engine until the protocol's stop condition;
4. wrap everything in a :class:`ScenarioResult` that knows how to extract
   proposals, decisions and Byzantine-injected values and to run the
   specification checkers.

Byzantine factories receive ``(pid, lattice, members, f)`` (plus the shared
key registry for the signature algorithms) and return any
:class:`~repro.engine.ProtocolCore`.  A class of :mod:`repro.byzantine`
whose constructor takes exactly those arguments is a factory as it stands
(``byzantine_factories=[AlwaysAckAcceptor]``); the others fit through a
small lambda, e.g.::

    build_scenario("wts", 4, 1, byzantine_factories=[
        lambda pid, lat, members, f: SilentByzantine(pid)
    ]).run()
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Hashable, Mapping, Sequence

from dataclasses import dataclass, field
from typing import Any

from repro.baselines.crash_gla import CrashGLAProcess
from repro.baselines.crash_la import CrashLAProcess
from repro.core.gsbs import GSbSProcess
from repro.core.gwts import GWTSProcess
from repro.core.process import HALTED
from repro.core.sbs import SbSProcess
from repro.core.spec import LACheckResult, check_gla_run, check_la_run
from repro.core.wts import WTSProcess
from repro.crypto.signatures import KeyRegistry
from repro.engine import RunResult, create_engine, latency_summary
from repro.engine.core import ProtocolCore
from repro.engine.delays import DelayModel, UniformDelay
from repro.engine.effects import interpret
from repro.lattice.base import JoinSemilattice, LatticeElement
from repro.lattice.set_lattice import SetLattice
from repro.metrics.collector import MetricsCollector
from repro.rsm.client import ByzantineClient, RSMClient
from repro.rsm.replica import Replica
from repro.rsm.sharding import ShardedRSMClient, partition_replicas
from repro.sim.axes import parse_fault_plan, parse_scheduler
from repro.sim.faults import FaultPlan

#: Signature of a Byzantine core factory.
ByzantineFactory = Callable[..., ProtocolCore]

#: Builders accept a Scheduler/FaultPlan object or its string spec (the
#: orchestrator's JSON-able axis form, see :mod:`repro.sim.axes`).
SchedulerSpec = Any | None
FaultPlanSpec = Any | None


def member_pids(n: int, prefix: str = "p") -> list[str]:
    """Standard membership identifiers ``p0 .. p{n-1}``."""
    return [f"{prefix}{i}" for i in range(n)]


def default_proposals(lattice: SetLattice, pids: Sequence[Hashable]) -> dict[Hashable, LatticeElement]:
    """One distinct singleton proposal per process (the Figure 1 workload)."""
    return {pid: frozenset({f"v-{pid}"}) for pid in pids}


@dataclass
class ScenarioResult:
    """Everything a test, benchmark or example needs about one finished run."""

    #: The engine that executed the run (kernel or turbo backend).
    engine: Any
    nodes: dict[Hashable, ProtocolCore]
    correct_pids: list[Hashable]
    byzantine_pids: list[Hashable]
    lattice: JoinSemilattice
    f: int
    run: RunResult
    #: Extra per-scenario payload (e.g. client histories for RSM runs).
    extras: dict[str, Any] = field(default_factory=dict)

    # -- common views -----------------------------------------------------------------

    @property
    def metrics(self) -> MetricsCollector:
        """The run's metrics collector."""
        return self.engine.metrics

    @property
    def backend(self) -> str:
        """Name of the engine backend that executed the run."""
        return self.engine.name

    def correct_nodes(self) -> list[ProtocolCore]:
        """The correct processes, in membership order."""
        return [self.nodes[pid] for pid in self.correct_pids]

    def proposals(self) -> dict[Hashable, LatticeElement]:
        """``pid -> proposal`` for correct single-shot proposers."""
        return {
            pid: getattr(self.nodes[pid], "proposal")
            for pid in self.correct_pids
            if hasattr(self.nodes[pid], "proposal")
        }

    def inputs(self) -> dict[Hashable, list[LatticeElement]]:
        """``pid -> received input values`` for correct generalized proposers."""
        return {
            pid: list(getattr(self.nodes[pid], "received_inputs", []))
            for pid in self.correct_pids
        }

    def decisions(self) -> dict[Hashable, list[LatticeElement]]:
        """``pid -> decision sequence`` for correct processes."""
        return {
            pid: list(getattr(self.nodes[pid], "decisions", []))
            for pid in self.correct_pids
        }

    def byzantine_values(self) -> list[LatticeElement]:
        """Lattice elements the Byzantine nodes injected (best effort).

        Collected from the Byzantine nodes' declared attack values so the
        Non-Triviality bound can be evaluated; behaviours that only send
        garbage (non-elements) contribute nothing because correct processes
        filter those out.
        """
        values: list[LatticeElement] = []
        for pid in self.byzantine_pids:
            node = self.nodes[pid]
            # Wrapper behaviours (e.g. CrashByzantine) delegate to an inner
            # honest process; its proposal counts as a Byzantine input too.
            candidates = [node, getattr(node, "inner", None)]
            for candidate in candidates:
                if candidate is None:
                    continue
                for attr in ("proposal", "value_a", "value_b", "injected"):
                    value = getattr(candidate, attr, None)
                    if value is not None and self.lattice.is_element(value):
                        values.append(value)
                pool = getattr(candidate, "equivocation_pool", None) or getattr(
                    candidate, "values", None
                )
                if pool:
                    values.extend(v for v in pool if self.lattice.is_element(v))
        return values

    # -- checkers ----------------------------------------------------------------------

    def check_la(self, require_liveness: bool = True) -> LACheckResult:
        """Run the single-shot LA specification checker on this scenario."""
        return check_la_run(
            self.lattice,
            self.proposals(),
            self.decisions(),
            byzantine_values=self.byzantine_values(),
            f=self.f,
            require_liveness=require_liveness,
        )

    def check_gla(self, require_all_inputs_decided: bool = True) -> LACheckResult:
        """Run the generalized LA specification checker on this scenario."""
        return check_gla_run(
            self.lattice,
            self.inputs(),
            self.decisions(),
            byzantine_values=self.byzantine_values(),
            require_all_inputs_decided=require_all_inputs_decided,
        )


# ---------------------------------------------------------------------------
# The protocol registry
# ---------------------------------------------------------------------------


def _has_decided(core: ProtocolCore) -> bool:
    return getattr(core, "has_decided", False)


def _has_halted(core: ProtocolCore) -> bool:
    return getattr(core, "state", None) == HALTED


def _has_completed(client: Any) -> bool:
    return client.all_completed


def _replica(pid: Hashable, lattice: JoinSemilattice, members: Sequence[Hashable], f: int, **kwargs: Any):
    return Replica(pid, members, f, lattice=lattice, **kwargs)


@dataclass(frozen=True)
class Protocol:
    """One registry row: everything that differs between two protocols."""

    #: Invariant family the runs are judged by: ``la``, ``gla`` or ``rsm``.
    kind: str
    #: Correct-core factory ``(pid, lattice, members, f, **kwargs)``.
    core: Callable[..., ProtocolCore]
    #: How inputs reach the cluster: one ``proposal`` per core, values
    #: ``queued`` through ``new_value`` before the run, or client ``scripts``.
    seeding: str
    #: Whether one participant is done — a correct core, or a client where
    #: inputs are client ``scripts``; a run stops once every one of them is.
    done: Callable[[Any], bool]
    #: Default message cap of a run.
    max_messages: int
    #: Whether the cores and Byzantine factories share a :class:`KeyRegistry`.
    signed: bool = False
    #: Whether the core takes a per-round ``batch_size``.
    batched: bool = False


_LA = dict(kind="la", seeding="proposal", done=_has_decided, max_messages=400_000)
_GLA = dict(kind="gla", seeding="queued", done=_has_halted, max_messages=1_500_000)

#: Every protocol :func:`build_scenario` can assemble.
PROTOCOLS: dict[str, Protocol] = {
    "wts": Protocol(core=WTSProcess, **_LA),
    "sbs": Protocol(core=SbSProcess, signed=True, **_LA),
    "crash-la": Protocol(core=CrashLAProcess, **_LA),
    "gwts": Protocol(core=GWTSProcess, batched=True, **_GLA),
    "gsbs": Protocol(core=GSbSProcess, signed=True, batched=True, **_GLA),
    "crash-gla": Protocol(core=CrashGLAProcess, **_GLA),
    "rsm": Protocol(
        kind="rsm", core=_replica, seeding="scripts", done=_has_completed, max_messages=2_000_000, batched=True
    ),
}


# ---------------------------------------------------------------------------
# Build -> run
# ---------------------------------------------------------------------------


def make_gla_inputs(pids: Sequence[Hashable], values_per_process: int) -> dict[Hashable, list[LatticeElement]]:
    """Distinct singleton inputs per process, ``values_per_process`` each."""
    return {pid: [frozenset({f"cmd-{pid}-{k}"}) for k in range(values_per_process)] for pid in pids}


def _split_members(n: int, byzantine_factories: Sequence[ByzantineFactory]) -> tuple[list[str], list[str], list[str]]:
    pids = member_pids(n)
    b = len(byzantine_factories)
    if b > n:
        raise ValueError("more Byzantine factories than processes")
    return pids, pids[: n - b], pids[n - b :]


def _build_engine(
    delay_model: DelayModel | None,
    seed: int,
    scheduler: SchedulerSpec,
    backend: str,
    pids: Sequence[Hashable],
    f: int,
    **engine_kwargs: Any,
):
    """One engine per scenario.

    ``scheduler`` may be a :class:`Scheduler`, a string spec (see
    :mod:`repro.sim.axes`) or ``None``.  An explicit scheduler *overrides*
    the builder's delay model — that is what lets the orchestrator's
    ``scheduler=`` axis re-run any experiment (which typically picks its own
    delay model) under an adversarial schedule without each runner having to
    special-case the combination.  Membership-dependent specs
    (``worst-case:victims=quorum``) resolve against ``pids``/``f``.
    ``backend`` picks the execution engine via the registry; the simulated
    backends and the async backend's in-process transport run the same loop
    on the same schedule, so decided values are backend-independent.
    """
    if isinstance(scheduler, str):
        scheduler = parse_scheduler(scheduler, pids=pids, f=f)
    if scheduler is not None:
        return create_engine(backend, seed=seed, scheduler=scheduler, **engine_kwargs)
    return create_engine(backend, delay_model=delay_model or UniformDelay(), seed=seed, **engine_kwargs)


def _client_views(clients: Mapping[Hashable, Any], shards: int | None) -> dict[str, Any]:
    """Snapshots of the clients' operation histories, taken after the run."""
    if shards is None:
        return {"histories": {cid: list(client.history) for cid, client in clients.items()}}
    return {
        "histories": {
            cid: [record for inner in client.clients for record in inner.history] for cid, client in clients.items()
        },
        # Per-shard histories for the invariant checkers: each shard is an
        # independent RSM instance, so Read Consistency and friends hold *per
        # shard* — reads of different shards are views of disjoint lattices and
        # are legitimately incomparable.
        "shard_histories": {
            shard: {cid: list(client.clients[shard].history) for cid, client in clients.items()}
            for shard in range(shards)
        },
        "cross_shard_reads": {cid: list(client.reads) for cid, client in clients.items()},
    }


@dataclass
class Scenario:
    """A built cluster that has not run yet; :meth:`run` executes it once."""

    engine: Any
    nodes: dict[Hashable, ProtocolCore]
    correct_pids: list[Hashable]
    byzantine_pids: list[Hashable]
    lattice: JoinSemilattice
    f: int
    #: Stop predicate (``None`` runs to quiescence or the message cap).
    stop: Callable[[], bool] | None
    max_messages: int
    fault_plan: FaultPlan | None = None
    max_wall_s: float | None = None
    extras: dict[str, Any] = field(default_factory=dict)
    #: Extras that only exist once the run finished (client histories).
    views: Callable[[], dict[str, Any]] | None = None

    def run(self) -> ScenarioResult:
        """Apply the fault plan, run the engine to the stop condition, wrap up."""
        if self.fault_plan is not None:
            self.engine.apply_fault_plan(self.fault_plan)
        limits = {} if self.max_wall_s is None else {"max_wall_s": self.max_wall_s}
        run = self.engine.run(stop_when=self.stop, max_messages=self.max_messages, **limits)
        if self.views is not None:
            self.extras.update(self.views())
        return ScenarioResult(
            engine=self.engine,
            nodes=self.nodes,
            correct_pids=self.correct_pids,
            byzantine_pids=self.byzantine_pids,
            lattice=self.lattice,
            f=self.f,
            run=run,
            extras=self.extras,
        )


def build_scenario(
    protocol: str,
    n: int,
    f: int,
    *,
    inputs: Mapping[Hashable, Any] | None = None,
    values_per_process: int = 2,
    rounds: int = 3,
    lattice: JoinSemilattice | None = None,
    byzantine_factories: Sequence[ByzantineFactory] = (),
    byzantine_client_payloads: Mapping[Hashable, Sequence[Any]] | None = None,
    delay_model: DelayModel | None = None,
    seed: int = 0,
    scheduler: SchedulerSpec = None,
    fault_plan: FaultPlanSpec = None,
    backend: str = "kernel",
    max_messages: int | None = None,
    run_to_quiescence: bool = False,
    process_class: type | None = None,
    registry_seed: int = 1234,
    registry: KeyRegistry | None = None,
    max_wall_s: float | None = None,
    batch_size: int | None = None,
    shards: int | None = None,
    client_retry_timeout: float | None = 150.0,
    client_pipeline: int = 1,
    **engine_kwargs: Any,
) -> Scenario:
    """Assemble one cluster of any registered protocol, ready to run.

    ``inputs`` is what the protocol's seeding consumes: ``pid -> proposal``
    (single-shot LA; default one distinct singleton each), ``pid -> values``
    queued before the run (generalized LA; default ``values_per_process``
    distinct singletons each, spread over the first of ``rounds`` rounds so
    the remaining rounds give in-flight values time to be included), or
    ``client id -> operation script`` of ``("update", payload)`` /
    ``("read",)`` steps (RSM).  Byzantine cores — built by
    ``byzantine_factories`` — occupy the last membership slots; Byzantine
    RSM clients (one per entry of ``byzantine_client_payloads``) flood
    inadmissible/under-replicated updates as per Lemma 12.  The run stops at
    the protocol's stop predicate (everyone decided / halted / every client
    script finished) or the message cap, which tests treat as a liveness
    failure; ``run_to_quiescence`` drops the predicate.

    ``process_class`` substitutes the correct-core class (the deliberately
    weakened variants of :mod:`repro.core.ablations`); ``registry``
    substitutes the shared PKI of the signature protocols (the explorer's
    :class:`~repro.core.ablations.BlindKeyRegistry`).  ``batch_size`` caps
    how many queued values one round's proposal joins (``None`` = unbounded,
    the paper's implicit behaviour); ``client_pipeline`` lets each RSM client
    keep that many commutative updates in flight (reads always barrier).

    ``shards`` splits an RSM's replicas into that many contiguous groups
    (:func:`repro.rsm.sharding.partition_replicas`), each running its own
    GWTS instance over a disjoint membership on the same engine — a
    broadcast reaches its sender's members only, so the per-round message complexity
    scales with the group size, not the total replica count; ``f`` is then
    the per-shard threshold.  Clients become
    :class:`~repro.rsm.sharding.ShardedRSMClient` cores: an update hashes to
    one shard by its routing key, a read fans out to every shard and
    completes with the join of the per-shard confirmed views.

    Extra keyword arguments go to the backend constructor (the async
    backend's ``transport=`` / ``framing=`` / ``time_scale=`` /
    ``wire_faults=``).
    """
    proto = PROTOCOLS.get(protocol)
    if proto is None:
        raise ValueError(f"unknown protocol {protocol!r}; known: {', '.join(PROTOCOLS)}")
    lattice = lattice if lattice is not None else SetLattice()
    pids, correct, byz = _split_members(n, byzantine_factories)
    groups: Sequence[Sequence[Hashable]] = [pids]
    if shards is not None:
        if byz or byzantine_client_payloads:
            raise ValueError("a sharded scenario drives correct replicas and clients only")
        groups = partition_replicas(pids, shards)
        for group in groups:
            if len(group) < 3 * f + 1:
                raise ValueError(f"shard group of {len(group)} replicas cannot tolerate f={f} (needs >= {3 * f + 1})")
    engine = _build_engine(delay_model, seed, scheduler, backend, pids, f, **engine_kwargs)
    extras: dict[str, Any] = {}
    shared: dict[str, Any] = {}
    if proto.signed:
        if registry is None:
            registry = KeyRegistry(seed=registry_seed)
        shared["registry"] = extras["registry"] = registry
    core_kwargs = dict(shared)
    if proto.seeding != "proposal":
        core_kwargs["max_rounds"] = rounds
    if proto.batched:
        core_kwargs["batch_size"] = batch_size
    if inputs is None and proto.seeding == "proposal":
        inputs = default_proposals(lattice, correct)  # type: ignore[arg-type]
    elif inputs is None and proto.seeding == "queued":
        inputs = make_gla_inputs(correct, values_per_process)
    make_core = process_class or proto.core
    byzantine = dict(zip(byz, byzantine_factories, strict=True))
    nodes: dict[Hashable, ProtocolCore] = {}
    for group in groups:
        for pid in group:
            if pid in byzantine:
                core = byzantine[pid](pid, lattice, group, f, **shared)
            elif proto.seeding == "proposal":
                core = make_core(pid, lattice, group, f, proposal=inputs.get(pid, lattice.bottom()), **core_kwargs)
            else:
                core = make_core(pid, lattice, group, f, **core_kwargs)
                if proto.seeding == "queued":
                    for value in inputs.get(pid, []):
                        core.new_value(value)
            nodes[pid] = engine.add_core(core)

    watched: list[Any] = [nodes[pid] for pid in correct]
    views = None
    if proto.seeding == "scripts":
        clients: dict[Hashable, Any] = {}
        extras["clients"] = clients
        if shards is None:
            client_class, replicas = RSMClient, pids
            extras["replica_pids"] = list(pids)
        else:
            client_class, replicas = ShardedRSMClient, groups
            extras["shard_groups"] = groups
        for client_id, script in (inputs or {}).items():
            client = client_class(
                client_id, replicas, f, script=script, retry_timeout=client_retry_timeout, pipeline=client_pipeline
            )
            clients[client_id] = nodes[client_id] = engine.add_core(client)
        for client_id, payloads in (byzantine_client_payloads or {}).items():
            nodes[client_id] = engine.add_core(ByzantineClient(client_id, pids, f, payloads=payloads))
            byz.append(client_id)
        watched = list(clients.values())
        views = functools.partial(_client_views, clients, shards)

    if isinstance(fault_plan, str):
        fault_plan = parse_fault_plan(fault_plan, pids=pids, correct=correct)
    return Scenario(
        engine=engine,
        nodes=nodes,
        correct_pids=correct,
        byzantine_pids=byz,
        lattice=lattice,
        f=f,
        stop=None if run_to_quiescence else lambda: all(map(proto.done, watched)),
        max_messages=proto.max_messages if max_messages is None else max_messages,
        fault_plan=fault_plan,
        max_wall_s=max_wall_s,
        extras=extras,
        views=views,
    )


# ---------------------------------------------------------------------------
# Open-loop load generation
# ---------------------------------------------------------------------------


@dataclass
class OpenLoopReport:
    """Outcome of one :func:`run_open_loop_scenario` arrival process.

    ``latency`` is the :func:`repro.engine.services.latency_summary` shape
    (``count``/``p50``/``p95``/``p99``/``max``) over per-value decision
    latencies, in the engine's time units — wall-clock seconds on the async
    backend, simulated units on the deterministic ones (``time_source`` says
    which).  A value's latency runs from its scheduled *arrival* to the first
    decision of its proposer that includes it, so queueing delay behind a
    busy cluster is charged to the value — the property that makes open-loop
    tails honest where closed-loop drivers (which stop offering load while
    they wait) understate them.
    """

    #: Values injected (the offered load).
    offered: int
    #: Values that made it into a decision of their proposer.
    decided: int
    #: Arrival interval in engine time units (the fixed rate is 1/interval).
    interval: float
    #: Tail-latency summary of the decided values (``None`` if none decided).
    latency: dict[str, float] | None
    #: ``simulated`` or ``wall-clock`` — the unit of every latency figure.
    time_source: str

    @property
    def all_decided(self) -> bool:
        return self.decided == self.offered


def run_open_loop_scenario(
    n: int,
    f: int,
    values: int = 16,
    interval: float = 5.0,
    rounds: int | None = None,
    lattice: JoinSemilattice | None = None,
    delay_model: DelayModel | None = None,
    seed: int = 0,
    scheduler: SchedulerSpec = None,
    backend: str = "kernel",
    max_messages: int = 1_500_000,
    **engine_kwargs: Any,
) -> ScenarioResult:
    """Drive a GWTS cluster with an open-loop (fixed-rate) arrival process.

    Unlike a closed-loop :func:`build_scenario` run — which queues all inputs
    up front or waits for one operation to finish before issuing the next —
    this generator injects one new value every ``interval`` engine time units
    *regardless of how the cluster is keeping up*, round-robin across the
    correct proposers.
    The per-value latencies (arrival to first including decision of the
    proposer) land in ``result.extras["open_loop"]`` as an
    :class:`OpenLoopReport`.

    Extra keyword arguments go to the backend constructor (the async
    backend's ``transport=`` / ``time_scale=`` / ``framing=``), so the same
    arrival schedule can be paced over real sockets.
    """
    if values < 1:
        raise ValueError("need at least one value to offer")
    if interval <= 0:
        raise ValueError("the arrival interval must be positive")
    scenario = build_scenario(
        "gwts",
        n,
        f,
        inputs={},
        # Generous ceiling: every value gets its own round plus settle time.
        rounds=values + 8 if rounds is None else rounds,
        lattice=lattice,
        delay_model=delay_model,
        seed=seed,
        scheduler=scheduler,
        backend=backend,
        max_messages=max_messages,
        **engine_kwargs,
    )
    engine, lattice, pids = scenario.engine, scenario.lattice, scenario.correct_pids

    arrivals: dict[Any, tuple[Hashable, float]] = {}

    def _arrival(pid: Hashable, value: LatticeElement):
        def arrive(live_engine) -> None:
            core = live_engine.node(pid)
            arrivals[value] = (pid, live_engine.now)
            core.new_value(value)
            core.recheck()
            interpret(core, live_engine)

        return arrive

    for index in range(values):
        pid = pids[index % len(pids)]
        value = lattice.lift(f"load-{index}")
        engine.inject(_arrival(pid, value), at=(index + 1) * interval)

    result = scenario.run()

    # A value is decided when its proposer's first decision at-or-after the
    # arrival includes it; records are scanned in time order, so the latency
    # is the earliest such decision.
    latencies: list[float] = []
    records = sorted(engine.metrics.decisions, key=lambda record: record.time)
    for value, (pid, arrived_at) in arrivals.items():
        element = lattice.lift(value) if not lattice.is_element(value) else value
        for record in records:
            if record.pid == pid and record.time >= arrived_at and lattice.leq(element, record.value):
                latencies.append(record.time - arrived_at)
                break
    result.extras["open_loop"] = OpenLoopReport(
        offered=values,
        decided=len(latencies),
        interval=interval,
        latency=latency_summary(latencies),
        time_source=engine.clock.time_source,
    )
    return result
