"""Layer probes: micro-measurements on inputs the benchmark builds itself.

Each probe times calls into one layer's public functions in isolation, so a
change in an end-to-end number can be set against the one layer that moved.
They are workload-independent and run once per traced pass, in their own
interpreter.  Every probe repeats its measurement :data:`ROUNDS` times and
reports the median, in the unit the metric name carries.
"""

from __future__ import annotations

import asyncio
import random
import tempfile
import time
from collections.abc import Callable, Hashable
from typing import Any

from repro.cluster import Cluster, ServiceClient, localhost_spec
from repro.cluster.protocol import msg_frame, request_status
from repro.core.wts import WTSProcess
from repro.crypto.signatures import KeyRegistry
from repro.engine import FixedDelay, ProtocolCore, UniformDelay, create_engine
from repro.engine.wire import HEADER_SIZE, get_codec
from repro.harness.workloads import default_proposals, member_pids
from repro.lattice.set_lattice import SetLattice
from repro.rsm.client import RSMClient
from repro.rsm.replica import Replica

import measure
from workloads import CLIENTS, CLUSTER_NODES, OUT_DIR, counter_scripts

ROUNDS = 3

LATTICE_CALLS = 20_000
CRYPTO_CALLS = 2_000
DISPATCH_CORES, DISPATCH_MESSAGES = 25, 50_000
WIRE_CORPUS_FRAMES = 1_500
TRANSPORT_WTS_N, TRANSPORT_WTS_F = 22, 7
STATUS_ROUND_TRIPS = 50
N1_UPDATES = 20


def _median_of(rounds: int, measure_once: Callable[[], float]) -> float:
    return measure.median([measure_once() for _ in range(rounds)])


def _per_call_us(fn: Callable[[], Any], calls: int) -> float:
    started = time.perf_counter()
    for _ in range(calls):
        fn()
    return (time.perf_counter() - started) / calls * 1e6


def _per_item_us(fn: Callable[[Any], Any], items: list) -> float:
    started = time.perf_counter()
    for item in items:
        fn(item)
    return (time.perf_counter() - started) / len(items) * 1e6


# -- lattice, crypto ------------------------------------------------------------------


def probe_lattice() -> dict[str, float]:
    """``SetLattice.join`` / ``leq`` on two 64-element half-overlapping sets."""
    lattice = SetLattice()
    left, right = frozenset(range(64)), frozenset(range(32, 96))
    return {
        "lattice.set.join_us": _median_of(ROUNDS, lambda: _per_call_us(lambda: lattice.join(left, right), LATTICE_CALLS)),
        "lattice.set.leq_us": _median_of(ROUNDS, lambda: _per_call_us(lambda: lattice.leq(left, right), LATTICE_CALLS)),
    }


def probe_crypto(seed: int) -> dict[str, float]:
    """``Signer.sign`` / ``KeyRegistry.verify`` on a 32-element set value."""
    registry = KeyRegistry(seed)
    signer = registry.register("p0")
    value = frozenset(f"v-{index}" for index in range(32))

    def once() -> tuple[float, float]:
        started = time.perf_counter()
        signed = [signer.sign(value) for _ in range(CRYPTO_CALLS)]
        sign_us = (time.perf_counter() - started) / CRYPTO_CALLS * 1e6
        # verify memoises per object: each fresh SignedValue is checked once.
        started = time.perf_counter()
        valid = sum(registry.verify(item) for item in signed)
        verify_us = (time.perf_counter() - started) / CRYPTO_CALLS * 1e6
        if valid != CRYPTO_CALLS:
            raise RuntimeError("a genuine signature failed to verify")
        return sign_us, verify_us

    samples = [once() for _ in range(ROUNDS)]
    return {
        "crypto.sign_us": measure.median([s for s, _ in samples]),
        "crypto.verify_us": measure.median([v for _, v in samples]),
    }


# -- engine dispatch ------------------------------------------------------------------


class Forwarder(ProtocolCore):
    """Starts one chain and forwards every received token to the next core."""

    def __init__(self, pid: int, n: int, hops: int) -> None:
        super().__init__(pid)
        self.n = n
        self.hops = hops

    def on_start(self) -> None:
        self.send((self.pid + 1) % self.n, (self.hops, frozenset({"tok", str(self.pid)})))

    def on_message(self, sender: Hashable, payload: Any) -> None:
        hops, token = payload
        if hops > 1:
            self.send((self.pid + 1) % self.n, (hops - 1, token))


def _dispatch_us(backend: str) -> float:
    hops = DISPATCH_MESSAGES // DISPATCH_CORES
    engine = create_engine(backend, delay_model=FixedDelay(1.0), seed=0)
    for pid in range(DISPATCH_CORES):
        engine.add_core(Forwarder(pid, DISPATCH_CORES, hops))
    started = time.perf_counter()
    result = engine.run(stop_when=None, max_messages=DISPATCH_MESSAGES + 1)
    elapsed = time.perf_counter() - started
    if result.delivered != DISPATCH_MESSAGES:
        raise RuntimeError(f"{backend}: delivered {result.delivered} of {DISPATCH_MESSAGES}")
    return elapsed / result.delivered * 1e6


def probe_dispatch() -> dict[str, float]:
    """Trivial forwarding cores: what one event costs each engine on its own."""
    return {
        f"engine.{backend}.dispatch_us_per_event": _median_of(ROUNDS, lambda: _dispatch_us(backend))
        for backend in ("turbo", "kernel", "async")
    }


# -- wire codecs ----------------------------------------------------------------------


def wire_corpus(seed: int) -> list[dict]:
    """Realistic frames: a seeded sample of every payload a small RSM run delivers.

    The kernel engine keeps a delivery log; each logged payload is wrapped in
    the ``msg`` frame a cluster node would put it in, so set sizes and message
    mix are the protocol's own, not toy frames.
    """
    engine = create_engine("kernel", delay_model=UniformDelay(), seed=seed)
    pids = member_pids(4)
    for pid in pids:
        engine.add_core(Replica(pid, pids, 1, max_rounds=100_000))
    scripts, _total = counter_scripts(seed, CLIENTS, 8)
    clients = [
        engine.add_core(RSMClient(f"c{index}", pids, 1, script=script)) for index, script in enumerate(scripts)
    ]
    engine.run(stop_when=lambda: all(client.all_completed for client in clients), max_messages=1_000_000)
    log = engine.delivery_log
    rng = random.Random(seed)
    picked = rng.sample(range(len(log)), min(WIRE_CORPUS_FRAMES, len(log)))
    return [msg_frame(str(log[i].sender), log[i].payload) for i in sorted(picked)]


def probe_wire(seed: int) -> dict[str, float]:
    """``encode_frame`` / ``decode_body`` of both framings over the corpus."""
    corpus = wire_corpus(seed)
    out: dict[str, float] = {}
    for framing in ("json", "binary"):
        codec = get_codec(framing)
        frames = [codec.encode_frame(frame) for frame in corpus]
        bodies = [frame[HEADER_SIZE:] for frame in frames]
        if [codec.decode_body(body) for body in bodies] != corpus:
            raise RuntimeError(f"{framing} framing did not round-trip the corpus")
        prefix = f"engine.wire.{framing}"
        out[f"{prefix}.encode_us_per_frame"] = _median_of(ROUNDS, lambda: _per_item_us(codec.encode_frame, corpus))
        out[f"{prefix}.decode_us_per_frame"] = _median_of(ROUNDS, lambda: _per_item_us(codec.decode_body, bodies))
        out[f"{prefix}.bytes_per_frame"] = sum(map(len, frames)) / len(frames)
    return out


# -- async engine transports ----------------------------------------------------------


def _transport_us_per_msg(seed: int, **engine_kwargs: Any) -> float:
    engine = create_engine("async", seed=seed, **engine_kwargs)
    lattice = SetLattice()
    pids = member_pids(TRANSPORT_WTS_N)
    proposals = default_proposals(lattice, pids)
    cores = [
        engine.add_core(WTSProcess(pid, lattice, pids, TRANSPORT_WTS_F, proposal=proposals[pid])) for pid in pids
    ]
    started = time.perf_counter()
    run = engine.run(stop_when=lambda: all(core.has_decided for core in cores), max_messages=1_000_000)
    elapsed = time.perf_counter() - started
    if not run.stopped_by_predicate:
        raise RuntimeError(f"async WTS probe did not decide ({engine_kwargs})")
    return elapsed / run.delivered * 1e6


def probe_transports(seed: int) -> dict[str, float]:
    """The same WTS cores on the async engine's TCP and memory transports.

    The difference is what the socket and the binary codec cost per message.
    """
    return {
        "engine.async.tcp_us_per_msg": _median_of(
            2, lambda: _transport_us_per_msg(seed, transport="tcp", framing="binary")
        ),
        "engine.async.mem_us_per_msg": _median_of(ROUNDS, lambda: _transport_us_per_msg(seed, transport="memory")),
    }


# -- cluster: supervisor, idle link, single node --------------------------------------


async def _status_rtts_ms(spec) -> list[float]:
    codec = get_codec(spec.framing)
    node = spec.nodes[0]
    samples = []
    for _ in range(STATUS_ROUND_TRIPS):
        started = time.perf_counter()
        await request_status(node.host, node.port, codec)
        samples.append((time.perf_counter() - started) * 1000.0)
    return samples


async def _n1_update_latencies_ms(spec, seed: int) -> list[float]:
    async with ServiceClient(spec, clients=1) as service:
        scripts, _total = counter_scripts(seed, 1, N1_UPDATES)
        service.submit(scripts)
        if not await service.wait_all(30.0):
            raise RuntimeError("single-node cluster did not complete its updates")
        return [(r.end_time - r.start_time) * 1000.0 for r in service.histories()[0]]


def probe_cluster(seed: int) -> dict[str, float]:
    """Supervisor start/stop, idle status round trip, and the one-node baseline."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    out: dict[str, float] = {}
    with tempfile.TemporaryDirectory(prefix="state-", dir=OUT_DIR) as state_dir:
        cluster = Cluster(localhost_spec(CLUSTER_NODES), state_dir=state_dir)
        procs: dict = {}
        try:
            started = time.perf_counter()
            cluster.start()
            out["cluster.supervisor.start_s"] = time.perf_counter() - started
            procs = dict(cluster.procs)
            out["cluster.link.status_rtt_ms"] = measure.median(asyncio.run(_status_rtts_ms(cluster.spec)))
        finally:
            started = time.perf_counter()
            cluster.stop()
            out["cluster.supervisor.stop_s"] = time.perf_counter() - started
        out["cluster.clean_exit_share"] = sum(1 for proc in procs.values() if proc.returncode == 0) / max(len(procs), 1)
    with tempfile.TemporaryDirectory(prefix="state-", dir=OUT_DIR) as state_dir:
        cluster = Cluster(localhost_spec(1), state_dir=state_dir)
        try:
            cluster.start()
            out["cluster.n1.update_p50_ms"] = measure.median(asyncio.run(_n1_update_latencies_ms(cluster.spec, seed)))
        finally:
            cluster.stop()
    return out


def run_all(seed: int) -> dict[str, float]:
    """Every probe, as one ``{metric name: value}`` dict."""
    out: dict[str, float] = {}
    for probe in (
        probe_lattice,
        lambda: probe_crypto(seed),
        probe_dispatch,
        lambda: probe_wire(seed),
        lambda: probe_transports(seed),
        lambda: probe_cluster(seed),
    ):
        out.update(probe())
    return out
