"""Micro-benchmarks of the substrates the algorithms are built on.

These are classic pytest-benchmark kernels (many iterations of a small
operation) complementing the experiments of ``python -m repro sweep``: lattice
joins, reliable broadcast, network delivery throughput and signature
verification.
They are useful when profiling changes to the substrate code paths that
dominate the big experiments.
"""

import random

from repro.broadcast import ReliableBroadcaster
from repro.crypto import KeyRegistry
from repro.engine import AsyncEngine, FixedDelay, KernelEngine, ProtocolCore, TurboEngine
from repro.lattice import GCounterLattice, MapLattice, SetLattice, VectorClockLattice


def test_set_lattice_join_all(benchmark):
    lattice = SetLattice()
    rng = random.Random(0)
    elements = [frozenset(rng.sample(range(200), 12)) for _ in range(300)]
    result = benchmark(lattice.join_all, elements)
    assert len(result) > 0


def test_gcounter_join(benchmark):
    lattice = GCounterLattice()
    a = lattice.lift({f"p{i}": i for i in range(50)})
    b = lattice.lift({f"p{i}": 100 - i for i in range(50)})
    result = benchmark(lattice.join, a, b)
    assert lattice.value(result) > 0


def test_vector_clock_join(benchmark):
    lattice = VectorClockLattice(64)
    a = tuple(range(64))
    b = tuple(reversed(range(64)))
    result = benchmark(lattice.join, a, b)
    assert lattice.is_element(result)


def test_map_lattice_join(benchmark):
    lattice = MapLattice(SetLattice())
    a = lattice.lift({f"k{i}": {i, i + 1} for i in range(60)})
    b = lattice.lift({f"k{i}": {i + 2} for i in range(30, 90)})
    result = benchmark(lattice.join, a, b)
    assert lattice.is_element(result)


def test_signature_roundtrip(benchmark):
    registry = KeyRegistry(seed=1)
    signer = registry.register("p0")
    payload = ("round", 3, frozenset({"a", "b", "c"}))

    def roundtrip():
        signed = signer.sign(payload)
        assert registry.verify(signed)

    benchmark(roundtrip)


class _Sink(ProtocolCore):
    """Core that counts deliveries (for raw engine throughput)."""

    def __init__(self, pid):
        super().__init__(pid)
        self.seen = 0

    def on_message(self, sender, payload):
        self.seen += 1


class _Chirper(_Sink):
    """Broadcasts 20 rounds of pings at start (engine throughput driver)."""

    members = tuple(f"p{i}" for i in range(10))

    def on_start(self):
        for _ in range(20):
            self.broadcast(("ping", self.pid))


def _engine_throughput(engine_class):
    engine = engine_class(delay_model=FixedDelay(1.0), seed=0)
    nodes = [engine.add_core(_Chirper(f"p{i}")) for i in range(10)]
    engine.run_until_quiescent()
    return sum(node.seen for node in nodes)


def test_kernel_engine_delivery_throughput(benchmark):
    delivered = benchmark(_engine_throughput, KernelEngine)
    assert delivered == 10 * 10 * 20


def test_turbo_engine_delivery_throughput(benchmark):
    delivered = benchmark(_engine_throughput, TurboEngine)
    assert delivered == 10 * 10 * 20


def test_async_engine_delivery_throughput(benchmark):
    """The async backend's in-process transport (the kernel plus wall-clock stamps)."""
    delivered = benchmark(_engine_throughput, AsyncEngine)
    assert delivered == 10 * 10 * 20


def _async_tcp_throughput(framing):
    engine = AsyncEngine(
        delay_model=FixedDelay(1.0), seed=0, transport="tcp", time_scale=0.0,
        framing=framing,
    )
    nodes = [engine.add_core(_Chirper(f"p{i}")) for i in range(10)]
    engine.run(max_wall_s=120.0)
    return sum(node.seen for node in nodes)


def test_async_tcp_delivery_throughput(benchmark):
    """The real network path: localhost TCP, length-prefixed JSON frames."""
    delivered = benchmark(_async_tcp_throughput, "json")
    assert delivered == 10 * 10 * 20


def test_async_tcp_binary_delivery_throughput(benchmark):
    """The same socket path on the compact binary framing."""
    delivered = benchmark(_async_tcp_throughput, "binary")
    assert delivered == 10 * 10 * 20


class _RBHost(ProtocolCore):
    """Minimal host running a reliable-broadcast endpoint."""

    def __init__(self, pid, n, f):
        super().__init__(pid)
        self.members = tuple(f"p{i}" for i in range(n))
        self.n = n
        self.f = f
        self.delivered = []
        self.rb = None

    def on_start(self):
        self.rb = ReliableBroadcaster(
            node=self, n=self.n, f=self.f,
            deliver=lambda origin, tag, value: self.delivered.append((origin, tag, value)),
        )
        if self.pid == "p0":
            self.rb.broadcast("bench", ("payload", 42))

    def on_message(self, sender, payload):
        self.rb.handle(sender, payload)


def test_reliable_broadcast_round(benchmark):
    def run():
        n, f = 7, 2
        engine = KernelEngine(delay_model=FixedDelay(1.0), seed=0)
        hosts = [engine.add_core(_RBHost(f"p{i}", n, f)) for i in range(n)]
        engine.run_until_quiescent()
        return sum(len(host.delivered) for host in hosts)

    delivered = benchmark(run)
    assert delivered == 7
