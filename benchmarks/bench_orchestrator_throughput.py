#!/usr/bin/env python3
"""Orchestrator campaign throughput: persistent pool vs process-per-job.

The PR 10 execution layer forks ``workers`` long-lived children once per
sweep and feeds them jobs over request/reply pipes; the design it replaced
forked a fresh OS process for every job.  For the workloads that motivated
the change — thousands of small jobs (the nightly 500-scenario campaigns,
10k-job ``batch=``/``shards=`` sweeps) — fork startup dominates, so this
benchmark measures exactly that regime:

* **dispatch workload (gated)** — SLEEP jobs with ``duration=0``: the job
  body is free, so jobs/s is pure orchestration cost (fork vs pipe
  round-trip).  The committed ``pool_vs_spawn`` ratio is the acceptance
  number: the persistent pool must clear **1.5x** process-per-job
  (``--min-pool-speedup``), and CI compares the ratio against the committed
  artifact — ratios transfer across machines where absolute rates do not.
* **realism row (recorded, not gated)** — the same pair on E1 quick jobs,
  where the job body does real work; it documents how much of the win
  survives once jobs stop being free.

The process-per-job baseline is reimplemented here (bounded concurrency,
one fork per job, same payload machinery) because the shipping pool no
longer works that way — the baseline is the yardstick, not a code path.

Run::

    PYTHONPATH=src python benchmarks/bench_orchestrator_throughput.py            # full
    PYTHONPATH=src python benchmarks/bench_orchestrator_throughput.py --smoke    # CI subset
    PYTHONPATH=src python benchmarks/bench_orchestrator_throughput.py \
        --json BENCH_orchestrator.json                                           # artifact
    PYTHONPATH=src python benchmarks/bench_orchestrator_throughput.py --smoke \
        --check-against BENCH_orchestrator.json --min-pool-speedup 1.5           # CI gate
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import pathlib
import sys
import time
from multiprocessing.connection import wait as connection_wait

from repro.orchestrator.jobs import JobSpec
from repro.orchestrator.pool import execute_job, iter_job_results
from repro.orchestrator.results import git_sha

BENCH_SCHEMA = "repro-bench-orchestrator/v1"

WORKERS = 4
FULL_DISPATCH_JOBS = 400
SMOKE_DISPATCH_JOBS = 120
FULL_REAL_JOBS = 24
SMOKE_REAL_JOBS = 12


def dispatch_jobs(count: int) -> list[JobSpec]:
    """SLEEP duration=0: the cheapest job the registry can express."""
    return [
        JobSpec(
            experiment="SLEEP", seed=seed, params=(("duration", 0.0),),
            quick=False, timeout_s=None, index=seed,
        )
        for seed in range(count)
    ]


def real_jobs(count: int) -> list[JobSpec]:
    """E1 quick across seeds: jobs whose body does real protocol work."""
    return [
        JobSpec(experiment="E1", seed=seed, params=(), quick=True, timeout_s=None, index=seed)
        for seed in range(count)
    ]


def _spawn_child(connection, job: JobSpec) -> None:
    try:
        connection.send(execute_job(job))
    finally:
        connection.close()


def run_process_per_job(jobs: list[JobSpec], workers: int) -> int:
    """The retired design: one fork per job, ``workers`` in flight."""
    context = multiprocessing.get_context()
    pending = list(jobs)
    pending.reverse()
    running: dict = {}
    done = 0
    while pending or running:
        while pending and len(running) < workers:
            job = pending.pop()
            parent_conn, child_conn = context.Pipe(duplex=False)
            process = context.Process(target=_spawn_child, args=(child_conn, job), daemon=True)
            process.start()
            child_conn.close()
            running[parent_conn] = process
        for connection in connection_wait(list(running)):
            process = running.pop(connection)
            try:
                connection.recv()
            except EOFError:
                pass
            connection.close()
            process.join()
            done += 1
    return done


def run_persistent_pool(jobs: list[JobSpec], workers: int) -> int:
    done = 0
    for _position, _result in iter_job_results(jobs, workers=workers):
        done += 1
    return done


def measure(runner, jobs: list[JobSpec], workers: int, repeats: int) -> float:
    """Best-of-``repeats`` jobs/s."""
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        done = runner(jobs, workers)
        elapsed = time.perf_counter() - start
        assert done == len(jobs), (done, len(jobs))
        best = min(best, elapsed)
    return len(jobs) / best


def check_regression(speedups: dict, baseline_path: str, max_regression: float) -> list:
    """Compare speedup *ratios* against the committed baseline artifact."""
    baseline = json.loads(pathlib.Path(baseline_path).read_text())
    problems = []
    for ratio_name in ("pool_vs_spawn",):
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI mode: fewer jobs per point, same measured ratios",
    )
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="timing repetitions per point; best (minimum) elapsed is used",
    )
    parser.add_argument(
        "--workers", type=int, default=WORKERS,
        help=f"worker processes for both designs (default {WORKERS})",
    )
    parser.add_argument(
        "--min-pool-speedup", type=float, default=None,
        help="exit non-zero unless pool jobs/s >= this multiple of process-per-job",
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="write the BENCH_orchestrator.json perf artifact to PATH",
    )
    parser.add_argument(
        "--check-against", metavar="BASELINE", default=None,
        help="fail if the pool_vs_spawn ratio regresses vs this committed artifact",
    )
    parser.add_argument(
        "--max-regression", type=float, default=0.5,
        help="allowed relative drop of a speedup ratio before failing "
        "(default 0.5: fork cost varies with machine load)",
    )
    args = parser.parse_args(argv)

    dispatch_count = SMOKE_DISPATCH_JOBS if args.smoke else FULL_DISPATCH_JOBS
    real_count = SMOKE_REAL_JOBS if args.smoke else FULL_REAL_JOBS

    dispatch = dispatch_jobs(dispatch_count)
    pool_rate = measure(run_persistent_pool, dispatch, args.workers, args.repeats)
    spawn_rate = measure(run_process_per_job, dispatch, args.workers, args.repeats)

    real = real_jobs(real_count)
    real_pool_rate = measure(run_persistent_pool, real, args.workers, args.repeats)
    real_spawn_rate = measure(run_process_per_job, real, args.workers, args.repeats)

    speedups = {
        "pool_vs_spawn": pool_rate / spawn_rate,
        "pool_vs_spawn_real": real_pool_rate / real_spawn_rate,
    }

    print(f"dispatch workload: {dispatch_count} SLEEP(0) jobs, "
          f"{args.workers} workers, repeats={args.repeats}")
    print(f"  persistent pool:  {pool_rate:>9.1f} jobs/s")
    print(f"  process-per-job:  {spawn_rate:>9.1f} jobs/s")
    print(f"realism workload: {real_count} E1 quick jobs")
    print(f"  persistent pool:  {real_pool_rate:>9.1f} jobs/s")
    print(f"  process-per-job:  {real_spawn_rate:>9.1f} jobs/s")
    for name, value in speedups.items():
        print(f"{name}: {value:.2f}x")

    if args.json:
        payload = {
            "schema": BENCH_SCHEMA,
            "git_sha": git_sha(),
            "created_unix": time.time(),
            "python": sys.version.split()[0],
            "workers": args.workers,
            "repeats": args.repeats,
            "jobs": {"dispatch": dispatch_count, "real": real_count},
            "jobs_per_second": {
                "dispatch_pool": round(pool_rate, 2),
                "dispatch_spawn": round(spawn_rate, 2),
                "real_pool": round(real_pool_rate, 2),
                "real_spawn": round(real_spawn_rate, 2),
            },
            "speedups": {name: round(value, 3) for name, value in speedups.items()},
        }
        pathlib.Path(args.json).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.json}")

    status = 0
    if args.min_pool_speedup is not None:
        measured = speedups["pool_vs_spawn"]
        if measured < args.min_pool_speedup:
            print(f"FAIL: pool_vs_spawn {measured:.2f}x < "
                  f"required {args.min_pool_speedup:.2f}x")
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
