"""The seven workloads: what each repeat builds, runs, checks and reports.

Every function here runs **one repeat** in the calling interpreter (the
ledger starts a fresh one per repeat) and returns a plain dict:

``attempted`` / ``completed``
    operations (client operations, or correct processes that had to decide);
``window_start``
    ``time.monotonic()`` at the start of the measured window — the parent
    turns it into ``setup_s``;
``window_s`` / ``cpu_s``
    wall and user+sys CPU (every process involved) of the measured window;
``latencies_ms``
    one sample per operation (cluster workloads), or ``latency_ms``, the wall
    time one operation was in flight (in-process workloads);
``peak_rss_mb``, ``check_ok`` / ``check_detail``, ``check_s``
    memory, the verdict of the correctness check and the time it took
    (always outside the window);
``layer``
    counters read at the window's edges and, when a tracer is passed, the
    per-layer shares and the span file.

Sizes are the trimmed ones that fit three repeats of every workload into the
contract's time cap on a 2-core box; README.md has the sizing table.
"""

from __future__ import annotations

import asyncio
import contextlib
import random
import tempfile
import time
from collections.abc import Callable
from pathlib import Path
from typing import Any

from repro.broadcast.reliable import RBInit, ReliableBroadcaster
from repro.cluster import Cluster, ServiceClient, localhost_spec
from repro.cluster.client import COUNTER_NAME, probe_cluster
from repro.core.sbs import SbSProcess
from repro.core.wts import WTSProcess
from repro.crypto.signatures import KeyRegistry
from repro.engine import UniformDelay, create_engine
from repro.harness.workloads import ScenarioResult, default_proposals, member_pids
from repro.lattice.set_lattice import SetLattice
from repro.rsm.checker import check_rsm_history, collect_admissible_commands
from repro.rsm.client import RSMClient
from repro.rsm.crdt import GCounterObject
from repro.rsm.replica import Replica

import measure
from tracing import Tracer, wrap_methods

OUT_DIR = Path(__file__).resolve().parent / "out"

#: Virtual clients of every client-driven workload (= nproc of the reference box).
CLIENTS = 2

# -- sizes (see README.md "Sizing") ---------------------------------------------------
CLUSTER_NODES = 4
CLUSTER_UPDATES_PER_CLIENT = 14
CLUSTER_READ_PRELOAD_PER_CLIENT = 6
CLUSTER_READS_PER_CLIENT = 8
#: cluster-crash kills n0 when this many operations have completed.
CLUSTER_CRASH_AFTER = 8
SIM_RSM_N, SIM_RSM_F, SIM_RSM_UPDATES_PER_CLIENT = 7, 2, 9
SIM_WTS_N, SIM_WTS_F = 46, 15
SIM_SBS_N, SIM_SBS_F = 37, 12
ASYNC_WTS_N, ASYNC_WTS_F = 25, 8
#: Repeats per run at the default ``--seconds``: a cluster repeat pays ~4 s of
#: bring-up and drain around its window, an in-process one ~0.2 s, so the
#: in-process workloads take more, shorter repeats for a steadier median.
CLUSTER_REPEATS, IN_PROCESS_REPEATS = 3, 5

#: Seconds one repeat's operations may take before the rest count as failed.
DEFAULT_DEADLINE_S = 60.0

LATTICE_METHODS = ("join", "join_all", "leq", "lt", "geq", "comparable", "equal", "is_element")
CORE_HOOKS = ("on_start", "on_message", "on_timer")


# =====================================================================================
# In-process workloads: cores the benchmark builds, on an engine it creates
# =====================================================================================


@contextlib.contextmanager
def traced_reliable_broadcast(tracer: Tracer):
    """Span every ``ReliableBroadcaster.handle`` call; count RB traffic.

    The broadcaster is created inside each core's ``on_start``, so the only
    handle the benchmark has on it is the class's public method — replaced
    for the duration of the block and restored after.
    """
    counts = {"messages": 0, "instances": set()}
    original = ReliableBroadcaster.handle
    spanned = tracer.span_function(original, "broadcast.handle")

    def handle(self, sender, payload):
        consumed = spanned(self, sender, payload)
        if consumed:
            counts["messages"] += 1
            if type(payload) is RBInit:
                counts["instances"].add((payload.origin, payload.tag))
        return consumed

    ReliableBroadcaster.handle = handle
    try:
        yield counts
    finally:
        ReliableBroadcaster.handle = original


def _trace_core(tracer: Tracer, core, span_name: str) -> None:
    wrap_methods(core, CORE_HOOKS, lambda fn, _m: tracer.span_function(fn, span_name, op=core.pid))


def _trace_lattice(tracer: Tracer, lattice) -> None:
    wrap_methods(lattice, LATTICE_METHODS, lambda fn, m: tracer.leaf_function(fn, f"lattice.{m}"))


def _trace_registry(tracer: Tracer, registry) -> None:
    # Signer.sign is one registry.mac call; verify's own mac call is nested
    # inside the verify leaf and not counted twice.
    registry.verify = tracer.leaf_function(registry.verify, "crypto.verify")
    registry.mac = tracer.leaf_function(registry.mac, "crypto.sign")


def _engine_window(
    workload: str,
    engine,
    engine_layer: str,
    stop_when: Callable[[], bool],
    max_messages: int,
    tracer: Tracer | None,
    **run_kwargs: Any,
) -> dict:
    """Run ``engine`` to ``stop_when`` as the measured window of one repeat."""
    with traced_reliable_broadcast(tracer) if tracer else contextlib.nullcontext({}) as rb:
        window_start = time.monotonic()
        cpu_before = measure.self_cpu_seconds()
        started = time.perf_counter()
        span = tracer.enter("engine.run") if tracer else None
        run = engine.run(stop_when=stop_when, max_messages=max_messages, **run_kwargs)
        if tracer:
            tracer.exit(span)
        window_s = time.perf_counter() - started
        cpu_s = measure.self_cpu_seconds() - cpu_before
    out = {
        "window_start": window_start,
        "window_s": window_s,
        "cpu_s": cpu_s,
        "run": run,
        "layer": {"delivered": run.delivered},
    }
    if tracer:
        out["layer"].update(_in_process_shares(tracer, engine_layer, rb))
        tracer.write(OUT_DIR / f"trace-{workload}.json", workload=workload)
    return out


def _in_process_shares(tracer: Tracer, engine_layer: str, rb: dict) -> dict:
    """Self-time shares of ``engine.run`` per layer, plus the exact call counts."""
    table = tracer.summary()
    whole = table["engine.run"]["total"]

    def share(*prefixes: str) -> float:
        return sum(row["self"] for name, row in table.items() if name.startswith(prefixes)) / whole

    layer = {
        f"{engine_layer}.self_share": table["engine.run"]["self"] / whole,
        "lattice.self_share": share("lattice."),
        "crypto.self_share": share("crypto."),
        "broadcast.self_share": share("broadcast."),
        "rsm.client.self_share": share("rsm.client"),
        "lattice.calls": sum(row["calls"] for name, row in table.items() if name.startswith("lattice.")),
        "crypto.verify_calls": table.get("crypto.verify", {"calls": 0})["calls"],
        "rb.messages": rb["messages"],
        "rb.instances": len(rb["instances"]),
        "traced_self_sum_share": sum(row["self"] for row in table.values()) / whole,
        "spans": len(tracer.start),
    }
    for kind in ("wts", "sbs", "gwts"):
        layer[f"core.{kind}.self_share"] = share(f"core.{kind}")
    return layer


def _run_one_shot(
    workload: str,
    engine,
    engine_layer: str,
    core_layer: str,
    n: int,
    f: int,
    make_core: Callable[..., Any],
    tracer: Tracer | None,
    registry: KeyRegistry | None = None,
    **run_kwargs: Any,
) -> dict:
    """One single-shot agreement instance (WTS / SbS): every process proposes
    at once, the window ends when the last correct one has decided."""
    lattice = SetLattice()
    pids = member_pids(n)
    proposals = default_proposals(lattice, pids)
    cores = [engine.add_core(make_core(pid, lattice, pids, f, proposal=proposals[pid])) for pid in pids]
    if tracer:
        _trace_lattice(tracer, lattice)
        if registry is not None:
            _trace_registry(tracer, registry)
        for core in cores:
            _trace_core(tracer, core, core_layer)
    window = _engine_window(
        workload,
        engine,
        engine_layer,
        lambda: all(core.has_decided for core in cores),
        2_000_000,
        tracer,
        **run_kwargs,
    )
    run = window.pop("run")
    decided = sum(1 for core in cores if core.has_decided)
    started = time.perf_counter()
    verdict = ScenarioResult(
        engine=engine,
        nodes={core.pid: core for core in cores},
        correct_pids=pids,
        byzantine_pids=[],
        lattice=lattice,
        f=f,
        run=run,
    ).check_la()
    check_s = time.perf_counter() - started
    ok = bool(verdict.ok) and run.stopped_by_predicate and decided == n
    return {
        **window,
        "attempted": n,
        "completed": decided,
        # The instance is over when the last process decides: the whole
        # window is the operation's latency.
        "latency_ms": window["window_s"] * 1000.0,
        "peak_rss_mb": measure.self_peak_rss_mb(),
        "check_ok": ok,
        "check_detail": "" if ok else f"check_la={verdict} stopped_by_predicate={run.stopped_by_predicate}",
        "check_s": check_s,
    }


def run_sim_wts(seed: int, tracer: Tracer | None = None, n: int = SIM_WTS_N, f: int = SIM_WTS_F, **_: Any) -> dict:
    """One-shot WTS on the turbo engine: reliable-broadcast bound."""
    engine = create_engine("turbo", delay_model=UniformDelay(), seed=seed)
    return _run_one_shot("sim-wts", engine, "engine.turbo", "core.wts", n, f, WTSProcess, tracer)


def run_async_tcp_wts(
    seed: int,
    tracer: Tracer | None = None,
    n: int = ASYNC_WTS_N,
    f: int = ASYNC_WTS_F,
    deadline_s: float = DEFAULT_DEADLINE_S,
    **_: Any,
) -> dict:
    """One-shot WTS over the async engine's own TCP links, binary framing."""
    engine = create_engine("async", seed=seed, transport="tcp", framing="binary")
    return _run_one_shot(
        "async-tcp-wts", engine, "engine.async", "core.wts", n, f, WTSProcess, tracer, max_wall_s=deadline_s
    )


def run_sim_sbs(seed: int, tracer: Tracer | None = None, n: int = SIM_SBS_N, f: int = SIM_SBS_F, **_: Any) -> dict:
    """One-shot SbS on the turbo engine: signature bound."""
    registry = KeyRegistry(seed)
    engine = create_engine("turbo", delay_model=UniformDelay(), seed=seed)

    def make_core(*args: Any, **kwargs: Any) -> SbSProcess:
        return SbSProcess(*args, registry=registry, **kwargs)

    return _run_one_shot("sim-sbs", engine, "engine.turbo", "core.sbs", n, f, make_core, tracer, registry=registry)


def counter_scripts(seed: int, clients: int, per_client: int, kind: str = "update") -> tuple[list[list[tuple]], int]:
    """Seeded scripts for ``clients`` virtual clients and the sum they add up to."""
    rng = random.Random(seed)
    counter = GCounterObject(COUNTER_NAME)
    if kind == "read":
        return [[("read",)] * per_client for _ in range(clients)], 0
    amounts = [[rng.randint(1, 9) for _ in range(per_client)] for _ in range(clients)]
    scripts = [[("update", counter.op_inc(amount)) for amount in row] for row in amounts]
    return scripts, sum(map(sum, amounts))


def run_sim_rsm(
    seed: int,
    tracer: Tracer | None = None,
    n: int = SIM_RSM_N,
    f: int = SIM_RSM_F,
    updates_per_client: int = SIM_RSM_UPDATES_PER_CLIENT,
    **_: Any,
) -> dict:
    """The RSM with no sockets, codec or processes: replicas and clients on turbo."""
    lattice = SetLattice()
    engine = create_engine("turbo", delay_model=UniformDelay(), seed=seed)
    replica_pids = member_pids(n)
    # rounds: a replica that runs out of GWTS rounds halts, and the run then
    # burns to max_messages on client retries — keep the budget out of reach.
    replicas = [
        engine.add_core(Replica(pid, replica_pids, f, max_rounds=100_000, lattice=lattice))
        for pid in replica_pids
    ]
    scripts, _total = counter_scripts(seed, CLIENTS, updates_per_client)
    clients = [
        engine.add_core(RSMClient(f"c{index}", replica_pids, f, script=script, pipeline=1))
        for index, script in enumerate(scripts)
    ]
    if tracer:
        _trace_lattice(tracer, lattice)
        for core in replicas:
            _trace_core(tracer, core, "core.gwts")
        for core in clients:
            _trace_core(tracer, core, "rsm.client")
    window = _engine_window(
        "sim-rsm",
        engine,
        "engine.turbo",
        lambda: all(client.all_completed for client in clients),
        4_000_000,
        tracer,
    )
    run = window.pop("run")
    histories = [client.history for client in clients]
    attempted = CLIENTS * updates_per_client
    completed = sum(len(client.completed_operations()) for client in clients)
    started = time.perf_counter()
    verdict = check_rsm_history(
        histories, admissible_commands=collect_admissible_commands(replicas, histories)
    )
    check_s = time.perf_counter() - started
    ok = verdict.ok and run.stopped_by_predicate and completed == attempted
    window["layer"].update(
        core_rounds=max(replica.round for replica in replicas),
        retries=sum(client.retries for client in clients),
    )
    return {
        **window,
        "attempted": attempted,
        "completed": completed,
        # Closed loop, CLIENTS operations in flight at any time (Little's law).
        "latency_ms": window["window_s"] * 1000.0 * CLIENTS / max(completed, 1),
        "peak_rss_mb": measure.self_peak_rss_mb(),
        "check_ok": ok,
        "check_detail": "" if ok else f"{verdict.violations} stopped_by_predicate={run.stopped_by_predicate}",
        "check_s": check_s,
    }


# =====================================================================================
# Cluster workloads: real node processes, the socket client, SIGKILL
# =====================================================================================


def _node_counters(procs: dict) -> tuple[float, float]:
    """(CPU seconds, peak RSS MB) summed over the node processes still there."""
    cpu = sum(filter(None, (measure.cpu_seconds(proc.pid) for proc in procs.values())))
    rss = sum(filter(None, (measure.peak_rss_mb(proc.pid) for proc in procs.values())))
    return cpu, rss


async def _wait_for(service: ServiceClient, deadline_s: float, on_progress: Callable[[int], None] | None = None) -> bool:
    """``ServiceClient.wait_all`` with a progress hook (the crash trigger)."""
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        if on_progress is not None:
            on_progress(service.completed_count)
        if all(host.core.all_completed for host in service.hosts.values()):
            return True
        await asyncio.sleep(0.002)
    return False


async def _drive_cluster(
    cluster: Cluster,
    seed: int,
    timed_kind: str,
    timed_per_client: int,
    preload_per_client: int,
    crash_after: int | None,
    deadline_s: float,
) -> dict:
    spec = cluster.spec
    procs = dict(cluster.procs)
    async with ServiceClient(spec, clients=CLIENTS) as service:
        clock_origin = next(iter(service.hosts.values())).clock_origin
        expected_total = 0
        if preload_per_client:
            scripts, expected_total = counter_scripts(seed + 1, CLIENTS, preload_per_client)
            service.submit(scripts)
            if not await service.wait_all(deadline_s):
                return {"error": "preload did not complete"}

        killed: dict[str, float] = {}

        def maybe_crash(done: int) -> None:
            if crash_after is not None and not killed and done >= crash_after:
                victim = procs.pop("n0")
                killed["cpu"] = measure.cpu_seconds(victim.pid) or 0.0
                killed["rss"] = measure.peak_rss_mb(victim.pid) or 0.0
                cluster.kill_node("n0")
                killed["at"] = time.monotonic() - clock_origin

        scripts, total = counter_scripts(seed, CLIENTS, timed_per_client, timed_kind)
        expected_total += total
        before = await probe_cluster(spec)
        retries_before = service.retries
        node_cpu_before, _ = _node_counters(procs)
        self_cpu_before = measure.self_cpu_seconds()
        window_start = time.monotonic()
        service.submit(scripts)
        finished = await _wait_for(service, deadline_s, maybe_crash)
        window_end = time.monotonic()
        self_cpu = measure.self_cpu_seconds() - self_cpu_before
        node_cpu_after, node_rss = _node_counters(procs)
        node_cpu = node_cpu_after + killed.get("cpu", 0.0) - node_cpu_before
        retries = service.retries - retries_before
        after = await probe_cluster(spec)

        timed = [record for history in service.histories() for record in history[preload_per_client:]]
        done = [record for record in timed if record.completed]
        retry_counts: dict[tuple, int] = {}
        for host in service.hosts.values():
            for _when, label, data in host.core.trace:
                if label == "operation_retry":
                    key = (host.core.pid, data["seq"])
                    retry_counts[key] = retry_counts.get(key, 0) + 1

        # One untimed read after the window: the counter must show every
        # increment this repeat made (an update-only history gives the audit
        # nothing to compare).
        service.submit([[("read",)]])
        read_back = await service.wait_all(deadline_s)
        started = time.perf_counter()
        audit = service.audit(require_liveness=finished and read_back)
        check_s = time.perf_counter() - started
        value = service.counter_value()

    if done:
        window_s = max(r.end_time for r in done) - min(r.start_time for r in timed)
    else:
        window_s = window_end - window_start
    alive = [name for name in procs if before.get(name) and after.get(name)]

    def delta(field: str) -> float:
        """Median over the surviving nodes of a status counter's growth in the window."""
        return measure.median([after[n][field] - before[n][field] for n in alive]) if alive else 0.0

    problems = []
    if not finished:
        problems.append(f"{len(timed) - len(done)} operation(s) missed the {deadline_s:g}s deadline")
    if not audit.ok:
        problems.append(f"audit: {audit.violations}")
    if value != expected_total:
        problems.append(f"counter reads {value}, increments sum to {expected_total}")
    return {
        "attempted": len(timed),
        "completed": len(done),
        "window_start": window_start,
        "window_s": window_s,
        "cpu_s": node_cpu + self_cpu,
        "records": [
            (r.client, r.command.seq, r.start_time, r.end_time, retry_counts.get((r.client, r.command.seq), 0))
            for r in done
        ],
        "killed_at": killed.get("at"),
        "node_rss_mb": node_rss + killed.get("rss", 0.0),
        "problems": problems,
        "check_s": check_s,
        "layer": {
            "node_cpu_s": node_cpu,
            "client_cpu_s": self_cpu,
            "wall_s": window_end - window_start,
            "retries": retries,
            "node_rounds": delta("round"),
            "node_decisions": delta("decisions"),
        },
    }


def _history_slowdown(records: list[tuple]) -> float:
    """Median latency of the last third of the operations over the first third."""
    ordered = sorted(records, key=lambda record: record[2])
    third = max(1, len(ordered) // 3)
    first = measure.median([end - start for _c, _s, start, end, _r in ordered[:third]])
    last = measure.median([end - start for _c, _s, start, end, _r in ordered[-third:]])
    return last / first


def _run_cluster(
    workload: str,
    seed: int,
    tracer: Tracer | None,
    *,
    timed_kind: str = "update",
    timed_per_client: int = CLUSTER_UPDATES_PER_CLIENT,
    preload_per_client: int = 0,
    crash_after: int | None = None,
    deadline_s: float = DEFAULT_DEADLINE_S,
    nodes: int = CLUSTER_NODES,
) -> dict:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="state-", dir=OUT_DIR) as state_dir:
        # Default spec: what `repro cluster up --nodes 4` gives an operator.
        cluster = Cluster(localhost_spec(nodes), state_dir=state_dir)
        procs: dict = {}
        try:
            cluster.start()
            procs = dict(cluster.procs)
            driven = asyncio.run(
                _drive_cluster(
                    cluster, seed, timed_kind, timed_per_client, preload_per_client, crash_after, deadline_s
                )
            )
        finally:
            # Also reached on an exception, a missed deadline and Ctrl-C: no
            # node process and no state directory outlives the repeat.
            cluster.stop()
    if "error" in driven:
        attempted = CLIENTS * timed_per_client
        return {
            "attempted": attempted,
            "completed": 0,
            "check_ok": False,
            "check_detail": driven["error"],
        }
    expected_exit = {name: (-9 if crash_after is not None and name == "n0" else 0) for name in procs}
    exits = {name: proc.returncode for name, proc in procs.items()}
    problems = driven.pop("problems")
    if exits != expected_exit:
        problems.append(f"node exit codes {exits}, expected {expected_exit}")
    records = driven.pop("records")
    killed_at = driven.pop("killed_at")
    if crash_after is not None and killed_at is None:
        problems.append("the crash never fired")
    # cluster-crash reports the latency of operations that started after the kill.
    sampled = [r for r in records if killed_at is None or r[2] > killed_at]
    layer = driven["layer"]
    layer["clean_exits"] = sum(1 for name, code in exits.items() if code == expected_exit[name]) / len(exits)
    if records:
        layer["history_slowdown"] = _history_slowdown(records)
    if killed_at is not None:
        ends = sorted(end for _c, _s, _start, end, _r in records if end > killed_at)
        layer["crash_max_gap_ms"] = max(
            (b - a for a, b in zip([killed_at, *ends], ends, strict=False)), default=0.0
        ) * 1000.0
    if tracer and records:
        origin = min(r[2] for r in records)
        root = tracer.add_span(
            "cluster.window", 0, round((max(r[3] for r in records) - origin) * 1e9), -1
        )
        for client, seq, start, end, retried in records:
            tracer.add_span(
                "cluster.op",
                round((start - origin) * 1e9),
                round((end - origin) * 1e9),
                root,
                op=f"{client}#{seq} retries={retried}",
            )
        tracer.write(OUT_DIR / f"trace-{workload}.json", workload=workload)
        layer["spans"] = len(tracer.start)
    return {
        **driven,
        "latencies_ms": [(end - start) * 1000.0 for _c, _s, start, end, _r in sampled],
        "peak_rss_mb": measure.self_peak_rss_mb() + driven.pop("node_rss_mb"),
        "check_ok": not problems,
        "check_detail": "; ".join(problems),
    }


def run_cluster_update(seed: int, tracer: Tracer | None = None, **sizes: Any) -> dict:
    """The headline path: counter increments through a fresh 4-node cluster."""
    return _run_cluster("cluster-update", seed, tracer, **sizes)


def run_cluster_read(seed: int, tracer: Tracer | None = None, **sizes: Any) -> dict:
    """Reads (nop-update + confirm) over a history that is already there."""
    sizes.setdefault("timed_per_client", CLUSTER_READS_PER_CLIENT)
    sizes.setdefault("preload_per_client", CLUSTER_READ_PRELOAD_PER_CLIENT)
    return _run_cluster("cluster-read", seed, tracer, timed_kind="read", **sizes)


def run_cluster_crash(seed: int, tracer: Tracer | None = None, **sizes: Any) -> dict:
    """``cluster-update`` with a contacted replica SIGKILLed mid-run."""
    sizes.setdefault("crash_after", CLUSTER_CRASH_AFTER)
    return _run_cluster("cluster-crash", seed, tracer, **sizes)


#: name -> (function, one-line reason) in the order the ledger runs them.
WORKLOADS: dict[str, tuple[Callable[..., dict], str]] = {
    "cluster-update": (
        run_cluster_update,
        "headline path: socket client, 4 node processes, json framing, GWTS rounds; codec, link and round work all show",
    ),
    "cluster-read": (
        run_cluster_read,
        "reads are nop-update plus confirm over an existing history: per-frame cost dominates round count",
    ),
    "cluster-crash": (
        run_cluster_crash,
        "cluster-update with a contacted replica SIGKILLed: a faster happy path must not lose operations or stall under f faults",
    ),
    "sim-rsm": (
        run_sim_rsm,
        "same RSM protocol with no sockets, codec or processes: core, broadcast, lattice and turbo only; codec changes must not move it",
    ),
    "sim-wts": (
        run_sim_wts,
        "broadcast-bound one-shot agreement: time spread over turbo dispatch, reliable broadcast and the WTS core",
    ),
    "sim-sbs": (
        run_sim_sbs,
        "crypto-bound one-shot agreement: signature verification on top, engine and broadcast nearly idle",
    ),
    "async-tcp-wts": (
        run_async_tcp_wts,
        "the other link layer and framing: async engine TCP links with binary frames; guard for the link-layer rewrite",
    ),
}

#: Workloads whose cores run inside the repeat's own interpreter.
IN_PROCESS = ("sim-rsm", "sim-wts", "sim-sbs", "async-tcp-wts")
#: Workloads on a simulated clock: the seed fixes every delivery, so counts are exact.
DETERMINISTIC = ("sim-rsm", "sim-wts", "sim-sbs")
