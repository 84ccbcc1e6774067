#!/usr/bin/env python3
"""Throughput-vs-tail-latency curves for the wall-clock AsyncEngine.

Closed-loop drivers (issue, wait, issue) hide queueing delay: the harder the
system struggles, the *less* load a closed loop offers, so its latency
numbers flatter the system (coordinated omission).  This bench drives the
GWTS cluster with the **open-loop** generator instead — values arrive at a
fixed rate regardless of how fast decisions come back — and records the
honest p50/p95/p99/max decision latencies at each offered rate.

One curve per configuration:

* ``async`` — in-process transport (the kernel's loop on a wall clock);
* ``async-tcp-json`` — localhost TCP, tagged-JSON frames;
* ``async-tcp-binary`` — localhost TCP, compact binary frames.

Offered load is swept by shrinking the arrival interval; the simulated
arrival calendar is scaled onto the wall clock by ``time_scale``, so the
wall-clock offered rate is ``1 / (interval * time_scale)`` values/s.

Run::

    PYTHONPATH=src python benchmarks/bench_async_latency.py               # full sweep
    PYTHONPATH=src python benchmarks/bench_async_latency.py --smoke       # CI: one point
    PYTHONPATH=src python benchmarks/bench_async_latency.py \
        --json BENCH_async_latency.json                                   # artifact

The artifact is a trajectory record (absolute wall-clock latencies are
machine-dependent), not a regression gate: the gated async number lives in
``BENCH_kernel.json`` (``async_vs_seed``).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys
import time

from repro.harness import run_open_loop_scenario

BENCH_SCHEMA = "repro-bench-async-latency/v1"

#: (label, engine kwargs beyond backend="async").
CONFIGS = (
    ("async", {}),
    ("async-tcp-json", {"transport": "tcp", "framing": "json"}),
    ("async-tcp-binary", {"transport": "tcp", "framing": "binary"}),
)


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


def measure_point(
    label: str,
    engine_kwargs: dict,
    interval: float,
    time_scale: float,
    values: int,
    seed: int,
) -> dict:
    """One (configuration, offered-rate) point of the curve."""
    scenario = run_open_loop_scenario(
        n=4,
        f=1,
        values=values,
        interval=interval,
        seed=seed,
        backend="async",
        time_scale=time_scale,
        **engine_kwargs,
    )
    report = scenario.extras["open_loop"]
    offered_rate = 1.0 / (interval * time_scale)
    point = {
        "config": label,
        "interval": interval,
        "offered_per_s": round(offered_rate, 1),
        "offered": report.offered,
        "decided": report.decided,
        "all_decided": report.all_decided,
        "latency": report.latency,
    }
    return point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true", help="CI mode: one rate point per config"
    )
    parser.add_argument(
        "--values", type=int, default=24, help="values offered per point"
    )
    parser.add_argument(
        "--time-scale",
        type=float,
        default=0.001,
        help="wall-clock seconds per simulated time unit",
    )
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write the BENCH_async_latency.json trajectory artifact to PATH",
    )
    args = parser.parse_args(argv)

    # Simulated arrival intervals; with --time-scale 0.001 these are offered
    # rates of ~100, ~200 and ~500 values/s on the wall clock.
    intervals = (10.0,) if args.smoke else (10.0, 5.0, 2.0)
    values = max(4, args.values // 4) if args.smoke else args.values

    points = []
    for label, engine_kwargs in CONFIGS:
        for interval in intervals:
            point = measure_point(
                label, engine_kwargs, interval, args.time_scale, values, args.seed
            )
            points.append(point)
            latency = point["latency"] or {}
            print(
                f"{label:>17} @ {point['offered_per_s']:>7,.1f}/s: "
                f"decided {point['decided']}/{point['offered']}  "
                f"p50 {latency.get('p50', float('nan')) * 1e3:7.2f}ms  "
                f"p95 {latency.get('p95', float('nan')) * 1e3:7.2f}ms  "
                f"p99 {latency.get('p99', float('nan')) * 1e3:7.2f}ms  "
                f"max {latency.get('max', float('nan')) * 1e3:7.2f}ms"
            )
            if not point["all_decided"]:
                print(f"FAIL: {label} dropped values at interval {interval}")
                return 1

    if args.json:
        payload = {
            "schema": BENCH_SCHEMA,
            "git_sha": _git_sha(),
            "created_unix": time.time(),
            "python": sys.version.split()[0],
            "time_scale": args.time_scale,
            "values_per_point": values,
            "seed": args.seed,
            "points": points,
        }
        pathlib.Path(args.json).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
