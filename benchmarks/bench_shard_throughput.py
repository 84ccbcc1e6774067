#!/usr/bin/env python3
"""Sharded + batched RSM data-plane throughput (wall clock, turbo backend).

Three wall-clock studies over the sharded data plane (PR 9):

* **batch curve** — 25 replicas as 5 shards of 5 (f=1 per group) decide the
  same command stream under ``batch_size`` 1..16.  ``batch_size=1`` forces
  one GWTS round per command; batching amortises the round's O(group³)
  reliable-broadcast ack traffic over the whole batch.  The acceptance bar:
  commands-decided/s at ``batch_size >= 8`` must be at least **2x** the
  unbatched rate (the CI gate holds a 1.5x absolute floor,
  ``--min-batched-speedup``).
* **shard curve** — a fixed fleet of 24 replicas split into 1..6 groups,
  same workload.  Per-round message cost scales with the *cube* of the
  group size, so splitting the fleet is worth orders of magnitude: the
  monolithic 1x24 anchor runs ~800k messages per GWTS round and is the
  slowest point by far (full mode only — it takes minutes and one repeat).
* **large-n scaling rows** — message complexity and decision latency at
  n=100 and n=250, the quorum-size study.  Full Byzantine GLA is measured
  where wall-feasible (WTS single-shot at n=100, ~2M messages); the
  echo-based crash baseline covers both sizes.  Rows are recorded, not
  gated: they document the quorum-size cost, they do not race the runner.

Smoke mode measures the same workloads as full mode (so the speedup ratios
are comparable against the committed artifact) but only the gated subset of
points: batch {1, 8}, shards {2, 6}, and the n=100 crash row.

Run::

    PYTHONPATH=src python benchmarks/bench_shard_throughput.py              # full curves
    PYTHONPATH=src python benchmarks/bench_shard_throughput.py --smoke      # CI subset
    PYTHONPATH=src python benchmarks/bench_shard_throughput.py \
        --json BENCH_shard.json                                             # artifact
    PYTHONPATH=src python benchmarks/bench_shard_throughput.py --smoke \
        --check-against BENCH_shard.json --min-batched-speedup 1.5          # CI gate

The JSON artifact records best-of-``--repeats`` commands/s per point plus
the git SHA and timestamp; the regression gate compares the *speedup
ratios* (``batched_vs_unbatched``, ``sharded_scaleup``) against the
committed baseline — ratios transfer across machines where absolute rates
do not.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys
import time

from repro.core.quorum import max_faults
from repro.harness.workloads import build_scenario
from repro.lattice.set_lattice import SetLattice

BENCH_SCHEMA = "repro-bench-shard/v1"

#: Batch curve topology: 25 replicas as 5 shards of 5, f=1 per group.
BATCH_REPLICAS = 25
BATCH_SHARDS = 5
BATCH_COMMANDS = 60
#: Shard curve topology: a fixed fleet of 24 replicas, f=1 per group.
SHARD_REPLICAS = 24
SHARD_COMMANDS = 24

FULL_BATCH_SWEEP = (1, 2, 4, 8, 16)
SMOKE_BATCH_SWEEP = (1, 8)
FULL_SHARD_SWEEP = (1, 2, 3, 4, 6)
SMOKE_SHARD_SWEEP = (2, 6)


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def _scripts(total_commands: int) -> dict:
    per_client = total_commands // 2
    return {
        f"c{index}": [("update", (f"obj-{index}-{k}", k)) for k in range(per_client)]
        for index in range(2)
    }


def run_point(n_replicas: int, shards: int, batch_size: int, total_commands: int) -> tuple:
    """One sharded-RSM run; returns (commands completed, elapsed wall seconds)."""
    start = time.perf_counter()
    scenario = build_scenario(
        "rsm", n_replicas, 1,
        shards=shards,
        inputs=_scripts(total_commands),
        rounds=total_commands + 10,
        seed=7,
        backend="turbo",
        batch_size=batch_size,
        client_pipeline=16,
        max_messages=8_000_000,
    ).run()
    elapsed = time.perf_counter() - start
    completed = sum(
        client.completed_updates() for client in scenario.extras["clients"].values()
    )
    return completed, elapsed, scenario.run.delivered


def measure_curve(points, runner, repeats: int) -> dict:
    """Best-of-``repeats`` commands/s per point (the heaviest points once).

    The monolithic shard anchor and the unbatched batch anchor dominate the
    wall budget by construction — that is the phenomenon being measured —
    so any point slower than 30s wall is measured once instead of
    ``repeats`` times.
    """
    rates = {}
    for point in points:
        best = float("inf")
        runs = repeats
        for _ in range(max(1, repeats)):
            completed, elapsed, _ = runner(point)
            expected = point_expected(point)
            assert completed == expected, (point, completed, expected)
            best = min(best, elapsed)
            if elapsed > 30.0:
                runs = 1
                break
        rates[point] = (point_expected(point) / best, runs)
    return rates


def point_expected(point) -> int:
    kind, _value = point
    return BATCH_COMMANDS if kind == "batch" else SHARD_COMMANDS


def run_curve_point(point) -> tuple:
    kind, value = point
    if kind == "batch":
        return run_point(BATCH_REPLICAS, BATCH_SHARDS, value, BATCH_COMMANDS)
    return run_point(SHARD_REPLICAS, value, 8, SHARD_COMMANDS)


def run_scaling_rows(smoke: bool) -> list[dict]:
    """The large-n rows: wall time, messages and simulated decision latency."""
    rows: list[dict] = []

    def record(protocol: str, n: int, f: int, quorum: int, scenario, elapsed: float) -> None:
        decided = sum(1 for decs in scenario.decisions().values() if decs)
        last = max((r.time for r in scenario.metrics.decisions), default=0.0)
        rows.append(
            {
                "protocol": protocol,
                "n": n,
                "f": f,
                "quorum": quorum,
                "decided": decided,
                "correct": len(scenario.correct_pids),
                "messages": scenario.run.delivered,
                "msgs_per_process": round(
                    scenario.metrics.mean_messages_per_process(scenario.correct_pids), 1
                ),
                "last_decision_delays": last,
                "wall_s": round(elapsed, 2),
            }
        )

    sizes = (100,) if smoke else (100, 250)
    for n in sizes:
        f = max_faults(n)
        start = time.perf_counter()
        crash = build_scenario(
            "crash-gla", n, f, values_per_process=1, rounds=2, seed=141 + n,
            backend="turbo", max_messages=4_000_000,
        ).run()
        record("crash-GLA", n, f, n // 2 + 1, crash, time.perf_counter() - start)
    if not smoke:
        n, f = 100, max_faults(100)
        start = time.perf_counter()
        wts = build_scenario(
            "wts", n, f,
            inputs={f"p{i}": frozenset({f"v{i}"}) for i in range(3)},
            lattice=SetLattice(), seed=1141, backend="turbo",
            max_messages=4_000_000,
        ).run()
        record("WTS", n, f, (n + f) // 2 + 1, wts, time.perf_counter() - start)
    return rows


def check_regression(speedups: dict, baseline_path: str, max_regression: float) -> list:
    """Compare speedup *ratios* against the committed baseline artifact."""
    baseline = json.loads(pathlib.Path(baseline_path).read_text())
    problems = []
    for ratio_name in ("batched_vs_unbatched", "sharded_scaleup"):
        recorded = baseline.get("speedups", {}).get(ratio_name)
        current = speedups.get(ratio_name)
        if recorded is None or current is None:
            continue
        floor = recorded * (1.0 - max_regression)
        if current < floor:
            problems.append(
                f"{ratio_name}: {current:.2f}x is more than "
                f"{max_regression:.0%} below the committed {recorded:.2f}x"
            )
    return problems


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI mode: gated points only (batch 1/8, shards 2/6, n=100 row)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=2,
        help="timing repetitions per point; best (minimum) elapsed is used "
        "(points slower than 30s wall run once regardless)",
    )
    parser.add_argument(
        "--min-batched-speedup",
        type=float,
        default=None,
        help="exit non-zero unless batch>=8 commands/s >= this multiple of batch=1",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write the BENCH_shard.json perf-trajectory artifact to PATH",
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
        default=0.5,
        help="allowed relative drop of a speedup ratio before failing "
        "(default 0.5: wall ratios of multi-second protocol runs are noisier "
        "than the kernel microbenchmark's)",
    )
    args = parser.parse_args(argv)

    batch_sweep = SMOKE_BATCH_SWEEP if args.smoke else FULL_BATCH_SWEEP
    shard_sweep = SMOKE_SHARD_SWEEP if args.smoke else FULL_SHARD_SWEEP
    points = [("batch", value) for value in batch_sweep] + [
        ("shards", value) for value in shard_sweep
    ]
    rates = measure_curve(points, run_curve_point, args.repeats)

    print(
        f"batch curve: {BATCH_REPLICAS} replicas as {BATCH_SHARDS} shards, "
        f"{BATCH_COMMANDS} commands | shard curve: {SHARD_REPLICAS} replicas, "
        f"{SHARD_COMMANDS} commands | repeats={args.repeats}"
    )
    for point in points:
        kind, value = point
        rate, runs = rates[point]
        print(f"{kind}={value:>2}: {rate:>8.1f} commands/s  (best of {runs})")

    speedups = {}
    batch_rates = {value: rates[("batch", value)][0] for value in batch_sweep}
    shard_rates = {value: rates[("shards", value)][0] for value in shard_sweep}
    best_batched = max(rate for value, rate in batch_rates.items() if value >= 8)
    speedups["batched_vs_unbatched"] = best_batched / batch_rates[1]
    # The gated scale-up compares the same pair of points (shards 6 vs 2) in
    # smoke and full mode; the monolithic 1x24 anchor is full-mode-only and
    # recorded, not gated.
    speedups["sharded_scaleup"] = shard_rates[max(shard_sweep)] / shard_rates[2]
    if 1 in shard_rates:
        speedups["sharded_vs_monolithic"] = (
            shard_rates[max(shard_sweep)] / shard_rates[1]
        )
    for name, value in speedups.items():
        print(f"{name}: {value:.2f}x")

    scaling = run_scaling_rows(args.smoke)
    for row in scaling:
        print(
            f"{row['protocol']:>9} n={row['n']:>3} f={row['f']:>2} "
            f"quorum={row['quorum']:>3}: {row['decided']}/{row['correct']} decided, "
            f"{row['messages']:,} msgs, {row['msgs_per_process']:.0f}/proc, "
            f"{row['last_decision_delays']:.0f} delays, {row['wall_s']:.1f}s wall"
        )

    if args.json:
        payload = {
            "schema": BENCH_SCHEMA,
            "git_sha": _git_sha(),
            "created_unix": time.time(),
            "python": sys.version.split()[0],
            "batch_topology": {
                "replicas": BATCH_REPLICAS,
                "shards": BATCH_SHARDS,
                "commands": BATCH_COMMANDS,
            },
            "shard_topology": {"replicas": SHARD_REPLICAS, "commands": SHARD_COMMANDS},
            "repeats": args.repeats,
            "commands_per_second": {
                "batch": {str(value): round(rate, 2) for value, rate in batch_rates.items()},
                "shards": {str(value): round(rate, 2) for value, rate in shard_rates.items()},
            },
            "speedups": {name: round(value, 3) for name, value in speedups.items()},
            "scaling": scaling,
        }
        pathlib.Path(args.json).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.json}")

    status = 0
    if args.min_batched_speedup is not None:
        measured = speedups["batched_vs_unbatched"]
        if measured < args.min_batched_speedup:
            print(
                f"FAIL: batched_vs_unbatched {measured:.2f}x < "
                f"required {args.min_batched_speedup:.2f}x"
            )
            status = 1
    if args.check_against:
        problems = check_regression(speedups, args.check_against, args.max_regression)
        for problem in problems:
            print(f"FAIL: {problem}")
        if problems:
            status = 1
        else:
            print(f"regression gate OK (allowed drop {args.max_regression:.0%})")
    return status


if __name__ == "__main__":
    sys.exit(main())
