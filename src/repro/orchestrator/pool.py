"""Job execution: inline or fanned out across a persistent worker pool.

Each job runs one experiment, which is a pure function of its
``(experiment, seed, params, quick)`` spec — the simulation kernel seeds its
own RNG — so executing in a child process cannot change the outcome, only
the wall-clock.  That invariant is what lets ``run_jobs`` hand the same job
list to one worker or eight and produce byte-identical canonical artifacts
(``tests/orchestrator/test_orchestrator_pool.py`` pins it).

The pool forks ``workers`` long-lived child processes once per call and
feeds them jobs over dedicated request/reply pipes; the supervisor blocks in
``multiprocessing.connection.wait()`` (event-driven readiness, no sleep-poll
loop).  This replaced the original process-per-job design once sweeps grew
from 36 jobs to 10k-job campaigns: fork startup was cheap next to a
multi-second experiment but dominates a many-small-jobs workload
(``benchmarks/bench_orchestrator_throughput.py`` measures the ratio, CI
gates it).  Per-job timeouts survive the change because every worker owns a
*dedicated* pipe — the classic objection to timeouts on a shared
``multiprocessing.Pool`` (``terminate()`` cannot surgically kill one task)
does not apply when killing the worker kills exactly the one job it is
running; the supervisor then respawns only that worker.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from multiprocessing.connection import wait as _connection_wait
from typing import Any

from repro.engine.backends import backend_time_source
from repro.orchestrator.jobs import JobSpec
from repro.orchestrator.results import jsonable
from repro.orchestrator.spec import get_spec

#: Grace period for a terminated worker to die before escalating to kill().
_TERMINATE_GRACE_S = 5.0

#: Upper bound on one `connection.wait` block: even with no deadlines armed,
#: wake occasionally so a worker that died without closing its pipe (should
#: be impossible, but cheap to defend against) is noticed.
_MAX_WAIT_S = 5.0


@dataclass
class JobResult:
    """One executed job: its spec plus the JSON-ready payload."""

    job: JobSpec
    payload: dict[str, Any]

    @property
    def status(self) -> str:
        return self.payload["status"]

    @property
    def ok(self) -> bool:
        return self.payload["status"] == "ok"


#: Outcome fields lifted to the top of the job payload (or, for "table",
#: reconstructable from headers/rows) and therefore not repeated in "data".
_EXTRACTED_OUTCOME_FIELDS = frozenset({"table", "check", "headline", "latency", "wall_latency", "ok"})


def _safe_time_source(backend: str) -> str:
    try:
        return backend_time_source(backend)
    except ValueError:
        return "simulated"


def _base_payload(job: JobSpec, status: str, wall_time_s: float, error: str | None) -> dict[str, Any]:
    """The one place the job-payload shape is defined; overlaid per status."""
    backend = job.params_dict.get("backend") or "kernel"
    return {
        "key": job.key,
        "experiment": job.experiment,
        "seed": job.seed,
        "params": jsonable(job.params_dict),
        "quick": job.quick,
        # repro-results/v2: which engine backend executed the job.  The
        # backend is a declared axis param; unset means the default kernel
        # backend.  Results are backend-independent (the cross-backend
        # golden test pins it), so the field is provenance, not identity —
        # JobSpec.key excludes it, letting a turbo run diff against the
        # kernel baseline.
        "backend": backend,
        # repro-results/v3: whether the job's latency metrics are
        # deterministic simulated-time units (safe to gate regressions on)
        # or wall-clock measurements (informational only) — resolved from
        # the engine's backend table.  A job spec naming an unknown
        # backend still needs an error payload, so fall back to simulated.
        "time_source": _safe_time_source(backend),
        # repro-results/v4: wall-clock decision-latency histogram (the
        # latency_summary count/p50/p95/p99/max shape) when the job ran on
        # a wall-clock backend and decided something; None otherwise.  A
        # measurement, not schedule state — canonicalize_payload strips it.
        "wall_latency": None,
        # repro-results/v5: the data-plane shape the job drove.  Both are
        # declared axis/scenario params; unset means the pre-sharding
        # default of one replica group and singly-proposed commands.
        "shards": int(job.params_dict.get("shards") or 1),
        "batch_size": int(job.params_dict.get("batch") or job.params_dict.get("batch_size") or 0),
        "status": status,
        "ok": None,
        "wall_time_s": wall_time_s,
        "check": None,
        "headline": None,
        "latency": None,
        "data": None,
        "error": error,
    }


def payload_from_outcome(job: JobSpec, outcome: dict[str, Any], wall_time_s: float) -> dict[str, Any]:
    """Turn an already-computed experiment outcome into the job payload."""
    ok = bool(outcome.get("ok", True))
    check = outcome.get("check")
    payload = _base_payload(job, "ok" if ok else "check_failed", wall_time_s, None)
    payload.update(
        ok=ok,
        check=jsonable(check) if check is not None else None,
        headline=jsonable(outcome.get("headline") or {}),
        latency=jsonable(outcome.get("latency") or {}),
        wall_latency=jsonable(outcome["wall_latency"]) if outcome.get("wall_latency") else None,
        data=jsonable({k: v for k, v in outcome.items() if k not in _EXTRACTED_OUTCOME_FIELDS}),
    )
    return payload


def execute_job(job: JobSpec) -> dict[str, Any]:
    """Run one job in-process and return its JSON-ready payload."""
    started = time.perf_counter()
    try:
        spec = get_spec(job.experiment)
        outcome = spec.run(seed=job.seed, quick=job.quick, **job.params_dict)
    except Exception:
        return _base_payload(job, "error", time.perf_counter() - started, traceback.format_exc())
    return payload_from_outcome(job, outcome, time.perf_counter() - started)


def _timeout_payload(job: JobSpec, elapsed_s: float) -> dict[str, Any]:
    return _base_payload(
        job, "timeout", elapsed_s,
        f"job exceeded its {job.timeout_s}s timeout and was terminated",
    )


def _crash_payload(job: JobSpec, elapsed_s: float, exitcode: int | None) -> dict[str, Any]:
    return _base_payload(
        job, "error", elapsed_s,
        f"worker process died with exit code {exitcode} before reporting a result",
    )


def _worker_main(connection, supervisor_end) -> None:
    """Loop of one persistent worker process (top-level so it survives spawn).

    Receives ``(position, JobSpec)`` tasks over its dedicated pipe, replies
    ``(position, payload)``, and exits on the ``None`` sentinel or EOF.

    ``supervisor_end`` is the other end of that pipe, inherited by a forked
    child.  It is closed first thing: while the worker holds it, a dead
    supervisor never reads as EOF and the orphaned worker waits forever.
    """
    supervisor_end.close()
    try:
        while True:
            try:
                task = connection.recv()
            except (EOFError, OSError):
                break
            if task is None:
                break
            position, job = task
            try:
                payload = execute_job(job)
            except BaseException:  # never let a worker die silently
                payload = _base_payload(job, "error", 0.0, traceback.format_exc())
            try:
                connection.send((position, payload))
            except OSError:  # the supervisor died mid-job
                break
    finally:
        connection.close()


@dataclass
class PoolStats:
    """Observability counters for one pool run (tests pin timeout surgicality)."""

    workers_spawned: int = 0
    workers_respawned: int = 0


@dataclass
class _Worker:
    process: Any
    connection: Any
    position: int | None = None  # job currently being executed, if any
    job: JobSpec | None = None
    started: float = 0.0

    @property
    def busy(self) -> bool:
        return self.job is not None


def iter_job_results(
    jobs: list[JobSpec],
    workers: int = 1,
    stats: PoolStats | None = None,
) -> Iterator[tuple[int, JobResult]]:
    """Execute ``jobs`` and yield ``(position, result)`` in completion order.

    This is the streaming primitive under ``run_jobs``: the supervisor holds
    at most ``workers`` in-flight payloads, so a consumer that flushes each
    result as it arrives (the JSONL shard writer) keeps memory O(workers)
    regardless of campaign size.

    ``workers <= 1`` with no timeouts runs everything inline (simplest
    possible execution, handy under a debugger); otherwise a pool of
    ``workers`` persistent worker processes executes them, enforcing each
    job's ``timeout_s`` by killing and respawning only that job's worker.
    """
    if stats is None:
        stats = PoolStats()
    needs_processes = workers > 1 or any(job.timeout_s is not None for job in jobs)
    if not needs_processes:
        for position, job in enumerate(jobs):
            yield position, JobResult(job=job, payload=execute_job(job))
        return
    yield from _iter_pool_results(jobs, max(1, workers), stats)


def _stop_worker(worker: _Worker) -> None:
    """Tear one worker down, escalating terminate -> kill."""
    try:
        worker.connection.close()
    except OSError:  # pragma: no cover - close() on a pipe does not fail in practice
        pass
    if worker.process.is_alive():
        worker.process.terminate()
        worker.process.join(timeout=_TERMINATE_GRACE_S)
        if worker.process.is_alive():  # pragma: no cover - terminate() sufficed so far
            worker.process.kill()
    worker.process.join()


def _iter_pool_results(
    jobs: list[JobSpec],
    workers: int,
    stats: PoolStats,
) -> Iterator[tuple[int, JobResult]]:
    context = multiprocessing.get_context()
    pending = list(enumerate(jobs))
    pending.reverse()  # pop() takes jobs in submission order

    def spawn() -> _Worker:
        parent_conn, child_conn = context.Pipe(duplex=True)
        process = context.Process(target=_worker_main, args=(child_conn, parent_conn), daemon=True)
        process.start()
        child_conn.close()  # parent keeps only its end
        stats.workers_spawned += 1
        return _Worker(process=process, connection=parent_conn)

    pool = [spawn() for _ in range(min(workers, len(pending)))]
    idle = list(pool)
    try:
        while True:
            while pending and idle:
                worker = idle.pop()
                position, job = pending.pop()
                worker.connection.send((position, job))
                worker.position, worker.job, worker.started = position, job, time.perf_counter()
            busy = [worker for worker in pool if worker.busy]
            if not busy:
                break

            wait_s = _MAX_WAIT_S
            now = time.perf_counter()
            for worker in busy:
                if worker.job.timeout_s is not None:
                    wait_s = min(wait_s, worker.job.timeout_s - (now - worker.started))
            ready = set(_connection_wait([worker.connection for worker in busy], max(0.0, wait_s)))

            now = time.perf_counter()
            for worker in busy:
                position, job, elapsed = worker.position, worker.job, now - worker.started
                if worker.connection in ready:
                    try:
                        reply_position, payload = worker.connection.recv()
                    except (EOFError, OSError):
                        # The worker died mid-job (its pipe reads as ready at
                        # EOF): report the crash and replace just this worker.
                        worker.process.join()
                        pool.remove(worker)
                        replacement = spawn()
                        pool.append(replacement)
                        idle.append(replacement)
                        stats.workers_respawned += 1
                        payload = _crash_payload(job, elapsed, worker.process.exitcode)
                        yield position, JobResult(job=job, payload=payload)
                        continue
                    assert reply_position == position, "worker replied for a job it was not assigned"
                    worker.position, worker.job = None, None
                    idle.append(worker)
                    yield position, JobResult(job=job, payload=payload)
                elif job.timeout_s is not None and elapsed > job.timeout_s:
                    # A dedicated pipe per worker is what keeps this surgical:
                    # killing the process kills exactly the one job on it.
                    _stop_worker(worker)
                    pool.remove(worker)
                    replacement = spawn()
                    pool.append(replacement)
                    idle.append(replacement)
                    stats.workers_respawned += 1
                    yield position, JobResult(job=job, payload=_timeout_payload(job, elapsed))
    finally:
        for worker in pool:
            if not worker.busy and worker.process.is_alive():
                try:
                    worker.connection.send(None)  # graceful sentinel
                except (BrokenPipeError, OSError):
                    pass
            _stop_worker(worker)


def run_jobs(
    jobs: list[JobSpec],
    workers: int = 1,
    progress: Callable[[JobResult], None] | None = None,
    stats: PoolStats | None = None,
) -> list[JobResult]:
    """Execute ``jobs`` and return results in job order.

    Convenience wrapper over :func:`iter_job_results` for callers that want
    the whole run in memory; streaming consumers (the sweep CLI's JSONL
    shard) drive the iterator directly.
    """
    payloads: dict[int, JobResult] = {}
    for position, result in iter_job_results(jobs, workers=workers, stats=stats):
        payloads[position] = result
        if progress is not None:
            progress(result)
    return [payloads[position] for position in range(len(jobs))]
