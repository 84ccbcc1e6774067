#!/usr/bin/env python3
"""Engine throughput: events/sec of every execution path, against the seed's loop.

Four substrates run the identical workload — ``n`` nodes forwarding tokens
round-robin until ``--messages`` total deliveries — so the ratios isolate
the messaging substrate:

* **seed** — in-file replica of the original pre-kernel transport loop
  (frozen-dataclass envelope, eager size estimation, heap of tuples), the
  yardstick every ratio divides by;
* **kernel** — the reference backend (:class:`repro.engine.KernelEngine`):
  turbo's event loop plus one envelope, full metrics and a delivery-log
  entry per message;
* **turbo** — the simulated-time event loop (:class:`repro.engine.
  TurboEngine`): no per-message objects, interned node ids, calendar-
  bucketed event queue (same-timestamp bursts cost one heap sift instead
  of one per message);
* **async** — the wall-clock backend (:class:`repro.engine.AsyncEngine`,
  in-process transport): the kernel's loop with a wall-clock stamp per
  event, so this row tracks what wall-clock time costs on top of the
  kernel's recording.

A fifth row, **shim** (the retired ``Network``/``NodeContext`` path over
the typed-event sim kernel), was the yardstick until both it and that
kernel were deleted.  Its last committed figures (n=25, 200k msgs, best of
3, CPython 3.11.7): 167 935 events/s, ``turbo_vs_shim`` 2.773,
``kernel_vs_shim`` 0.736.

The acceptance bar: ``async`` must beat ``seed`` (``--min-async-vs-seed``)
— real event-loop machinery is allowed to cost something, but never more
than the retired pre-kernel loop.  The regression gate compares the
turbo/seed, kernel/seed and async/seed ratios against the committed
artifact; a gated ratio that is missing from the baseline or cannot be
measured fails the gate.

Run::

    PYTHONPATH=src python benchmarks/bench_kernel_throughput.py             # full: 200k msgs
    PYTHONPATH=src python benchmarks/bench_kernel_throughput.py --smoke     # CI: 20k msgs
    PYTHONPATH=src python benchmarks/bench_kernel_throughput.py \
        --json BENCH_kernel.json                                            # perf trajectory
    PYTHONPATH=src python benchmarks/bench_kernel_throughput.py --smoke \
        --check-against BENCH_kernel.json --max-regression 0.25             # CI gate

The JSON artifact records best-of-``--repeats`` events/s per substrate plus
the git SHA and timestamp; the regression gate compares the *speedup ratios*
(:data:`GATED_RATIOS`) against the committed baseline — ratios transfer
across machines where absolute rates do not.
"""

from __future__ import annotations

import argparse
import heapq
import json
import pathlib
import subprocess
import sys
import time
from collections.abc import Hashable
from dataclasses import dataclass
from typing import Any

from repro.engine import AsyncEngine, FixedDelay, KernelEngine, ProtocolCore, TurboEngine
from repro.engine.envelope import estimate_size
from repro.metrics.collector import MetricsCollector

BENCH_SCHEMA = "repro-bench-kernel/v1"

#: The ratios ``--check-against`` gates, each ``<substrate>_vs_<substrate>``.
GATED_RATIOS = ("turbo_vs_seed", "kernel_vs_seed", "async_vs_seed")


# ---------------------------------------------------------------------------
# Workload: round-robin forwarding, `hops` messages per chain
# ---------------------------------------------------------------------------


class Forwarder(ProtocolCore):
    """Starts one chain and forwards every received token to the next core."""

    def __init__(self, pid: int, n: int, hops: int) -> None:
        super().__init__(pid)
        self.n = n
        self.hops = hops

    def _next(self) -> int:
        return (self.pid + 1) % self.n

    def on_start(self) -> None:
        if self.hops > 0:
            self.send(self._next(), (self.hops, frozenset({"tok", str(self.pid)})))

    def on_message(self, sender: Hashable, payload: Any) -> None:
        hops, token = payload
        if hops > 1:
            self.send(self._next(), (hops - 1, token))


class _CallbackForwarder:
    """The same workload as a classic callback node (for the seed replica)."""

    def __init__(self, pid: int, n: int, hops: int) -> None:
        self.pid = pid
        self.n = n
        self.hops = hops
        self.causal_depth = 0
        self.ctx = None

    def bind(self, ctx) -> None:
        self.ctx = ctx

    def _next(self) -> int:
        return (self.pid + 1) % self.n

    def on_start(self) -> None:
        if self.hops > 0:
            self.ctx.send(self._next(), (self.hops, frozenset({"tok", str(self.pid)})))

    def on_message(self, sender: Hashable, payload: Any) -> None:
        hops, token = payload
        if hops > 1:
            self.ctx.send(self._next(), (hops - 1, token))


# ---------------------------------------------------------------------------
# Seed-equivalent baseline transport (pre-kernel semantics, verbatim)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _SeedEnvelope:
    """Replica of the seed's frozen-dataclass envelope."""

    sender: Hashable
    dest: Hashable
    payload: Any
    send_time: float
    deliver_time: float | None = None
    depth: int = 1
    seq: int = 0
    size: int = 0

    def delivered_at(self, time: float) -> _SeedEnvelope:
        return _SeedEnvelope(
            sender=self.sender,
            dest=self.dest,
            payload=self.payload,
            send_time=self.send_time,
            deliver_time=time,
            depth=self.depth,
            seq=self.seq,
            size=self.size,
        )

    @property
    def mtype(self) -> str:
        payload = self.payload
        mtype = getattr(payload, "mtype", None)
        if isinstance(mtype, str):
            return mtype
        return type(payload).__name__


class _Context:
    """Replica of the retired ``NodeContext`` capability object."""

    def __init__(self, network, pid) -> None:
        self._network = network
        self._pid = pid

    def send(self, dest, payload) -> None:
        self._network.submit(self._pid, dest, payload)


class _SeedNetwork:
    """The pre-kernel message-only delivery loop (eager sizes, frozen copies)."""

    def __init__(self, delay_model, seed: int = 0) -> None:
        import random

        self._nodes = {}
        self._queue = []
        self._seq = 0
        self._delay_model = delay_model
        self._rng = random.Random(seed)
        self._now = 0.0
        self.metrics = MetricsCollector()
        self._delivery_log = []
        self._started = False

    @property
    def now(self):
        return self._now

    def add_node(self, node):
        self._nodes[node.pid] = node
        node.bind(_Context(self, node.pid))
        return node

    def submit(self, sender, dest, payload):
        sender_node = self._nodes[sender]
        self._seq += 1
        envelope = _SeedEnvelope(
            sender=sender,
            dest=dest,
            payload=payload,
            send_time=self._now,
            depth=sender_node.causal_depth + 1,
            seq=self._seq,
            size=estimate_size(payload),
        )
        delay = self._delay_model.delay(envelope, self._rng)
        heapq.heappush(self._queue, (self._now + delay, self._seq, envelope))
        self.metrics.record_send(sender, dest, envelope.mtype, envelope.size)
        return envelope

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        for node in self._nodes.values():
            node.on_start()

    def step(self):
        if not self._queue:
            return None
        deliver_time, _seq, envelope = heapq.heappop(self._queue)
        self._now = max(self._now, deliver_time)
        delivered = envelope.delivered_at(self._now)
        receiver = self._nodes[delivered.dest]
        receiver.causal_depth = max(receiver.causal_depth, delivered.depth)
        self.metrics.record_delivery(delivered.sender, delivered.dest, delivered.mtype)
        self._delivery_log.append(delivered)
        receiver.on_message(delivered.sender, delivered.payload)
        return delivered


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def run_seed(n: int, hops: int) -> tuple:
    network = _SeedNetwork(FixedDelay(1.0), seed=0)
    for pid in range(n):
        network.add_node(_CallbackForwarder(pid, n, hops))
    network.start()
    start = time.perf_counter()
    delivered = 0
    while network.step() is not None:
        delivered += 1
    elapsed = time.perf_counter() - start
    return delivered, elapsed


def _run_engine(engine, n: int, hops: int) -> tuple:
    for pid in range(n):
        engine.add_core(Forwarder(pid, n, hops))
    engine.start()
    start = time.perf_counter()
    result = engine.run_until_quiescent(max_messages=n * hops + 1)
    elapsed = time.perf_counter() - start
    return result.delivered, elapsed


def run_kernel(n: int, hops: int) -> tuple:
    return _run_engine(KernelEngine(delay_model=FixedDelay(1.0), seed=0), n, hops)


def run_turbo(n: int, hops: int) -> tuple:
    return _run_engine(TurboEngine(delay_model=FixedDelay(1.0), seed=0), n, hops)


def run_async(n: int, hops: int) -> tuple:
    """The async backend's in-process transport (the wall-clock row).

    Timing includes the start events (the async run owns them); they are
    ``n`` sends against ``n * hops`` deliveries, i.e. noise.  Deliveries run
    on the kernel's loop — envelopes, full metrics, the delivery log — with
    one wall-clock reading per event, so this row tracks the kernel plus
    wall-clock stamping rather than raw simulation speed.
    """
    engine = AsyncEngine(delay_model=FixedDelay(1.0), seed=0)
    for pid in range(n):
        engine.add_core(Forwarder(pid, n, hops))
    start = time.perf_counter()
    result = engine.run_until_quiescent(max_messages=n * hops + 1)
    elapsed = time.perf_counter() - start
    return result.delivered, elapsed


RUNNERS = {
    "seed": run_seed,
    "kernel": run_kernel,
    "turbo": run_turbo,
    "async": run_async,
}


def _git_sha() -> str:
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=pathlib.Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return completed.stdout.strip() if completed.returncode == 0 else "unknown"


def measure(n: int, hops: int, repeats: int, substrates) -> dict:
    """Best-of-``repeats`` events/s per substrate, interleaved against drift."""
    expected = n * hops
    # Warm-up (JIT-less CPython still benefits from warmed allocator/caches).
    for name in substrates:
        RUNNERS[name](n, max(1, hops // 20))
    best = {name: float("inf") for name in substrates}
    for _ in range(max(1, repeats)):
        for name in substrates:
            delivered, elapsed = RUNNERS[name](n, hops)
            assert delivered == expected, (name, delivered, expected)
            best[name] = min(best[name], elapsed)
    return {name: expected / elapsed for name, elapsed in best.items()}


def check_regression(rates: dict, baseline_path: str, max_regression: float) -> list:
    """Compare the :data:`GATED_RATIOS` against the committed baseline artifact.

    A gated ratio the baseline does not record, or that ``rates`` cannot
    compute, is a problem too: a gate must never drop out silently.
    """
    baseline = json.loads(pathlib.Path(baseline_path).read_text())
    problems = []
    for ratio_name in GATED_RATIOS:
        recorded = baseline.get("speedups", {}).get(ratio_name)
        numerator, denominator = ratio_name.split("_vs_")
        missing = [name for name in (numerator, denominator) if name not in rates]
        if recorded is None or missing:
            where = f"not measured ({', '.join(missing)} missing)" if missing else "not in the baseline"
            problems.append(f"{ratio_name}: gated ratio {where}")
            continue
        current = rates[numerator] / rates[denominator]
        floor = recorded * (1.0 - max_regression)
        if current < floor:
            problems.append(
                f"{ratio_name}: {current:.2f}x is more than "
                f"{max_regression:.0%} below the committed {recorded:.2f}x"
            )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=25)
    parser.add_argument("--messages", type=int, default=200_000)
    parser.add_argument(
        "--smoke", action="store_true", help="CI mode: 20k messages, ~seconds"
    )
    parser.add_argument(
        "--backend",
        choices=sorted(RUNNERS),
        default=None,
        help="measure one substrate only (default: all four)",
    )
    parser.add_argument(
        "--min-async-vs-seed",
        type=float,
        default=None,
        help="exit non-zero unless async/seed >= this ratio "
        "(the wire-speed bar: the event loop must beat the pre-kernel loop)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="timing repetitions per substrate; best (minimum) elapsed is used",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write the BENCH_kernel.json perf-trajectory artifact to PATH",
    )
    parser.add_argument(
        "--check-against",
        metavar="BASELINE",
        default=None,
        help="fail if speedup ratios regress vs this committed artifact",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.25,
        help="allowed relative drop of a speedup ratio before failing (default 0.25)",
    )
    args = parser.parse_args(argv)

    messages = 20_000 if args.smoke else args.messages
    n = args.nodes
    hops = messages // n
    if args.backend and (args.json or args.check_against):
        parser.error(
            "--backend measures one substrate, but --json/--check-against "
            "need all of them for the speedup ratios"
        )
    substrates = [args.backend] if args.backend else list(RUNNERS)

    rates = measure(n, hops, args.repeats, substrates)

    print(f"nodes={n} messages={n * hops} repeats={args.repeats}")
    for name in substrates:
        print(f"{name:>7}: {rates[name]:>12,.0f} events/s")
    speedups = {}
    if "seed" in rates:
        for backend in ("kernel", "turbo", "async"):
            if backend in rates:
                speedups[f"{backend}_vs_seed"] = rates[backend] / rates["seed"]
    if "kernel" in rates and "turbo" in rates:
        speedups["turbo_vs_kernel"] = rates["turbo"] / rates["kernel"]
    for name, value in speedups.items():
        print(f"{name}: {value:.2f}x")

    if args.json:
        payload = {
            "schema": BENCH_SCHEMA,
            "git_sha": _git_sha(),
            "created_unix": time.time(),
            "python": sys.version.split()[0],
            "nodes": n,
            "messages": n * hops,
            "repeats": args.repeats,
            "events_per_second": {name: round(rate, 1) for name, rate in rates.items()},
            "speedups": {name: round(value, 3) for name, value in speedups.items()},
        }
        pathlib.Path(args.json).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.json}")

    status = 0
    if args.min_async_vs_seed is not None:
        async_ratio = speedups.get("async_vs_seed", 0.0)
        if async_ratio < args.min_async_vs_seed:
            print(
                f"FAIL: async/seed {async_ratio:.2f}x < required "
                f"{args.min_async_vs_seed:.2f}x"
            )
            status = 1
    if args.check_against:
        problems = check_regression(rates, args.check_against, args.max_regression)
        for problem in problems:
            print(f"FAIL: {problem}")
        if problems:
            status = 1
        else:
            print(f"regression gate OK (allowed drop {args.max_regression:.0%})")
    return status


if __name__ == "__main__":
    sys.exit(main())
