"""The ``python -m repro`` command-line interface.

Subcommands::

    repro list                         # experiments and their parameters
    repro run E3 --seed 7              # one experiment, table on stdout
    repro run E3 --param backend=turbo # any declared axis, e.g. the engine
    repro sweep --quick --workers 4    # the full matrix -> results/run-<tag>.json
    repro sweep --param backend=async  # fix an axis across the whole matrix
    repro sweep --resume --progress    # finish an interrupted sweep, live meter
    repro explore --budget 25 --seed 1 # randomized scenario fuzzing + shrinking
    repro explore --campaign examples/campaign_wire_faults.toml  # declarative
    repro explore --coverage           # coverage-guided axis weighting
    repro explore ... --resume         # complete a killed campaign from its shard
    repro cluster up --nodes 3         # the RSM as real OS processes (see
    repro cluster client --commands 50 #  repro.cluster.cli / docs/operations.md)
    repro validate results/run-x.json  # schema-check an artifact (or .jobs.jsonl)
    repro compare baseline.json run.json [--max-latency-regression 20]
    repro compare baseline.json run.jobs.jsonl   # stream a shard as the current

``sweep`` and ``explore`` stream every finished job to a crash-safe JSONL
shard (``results/run-<tag>.jobs.jsonl``) and roll it up into the canonical
artifact at the end; ``--resume`` keeps the shard's completed records and
runs only the missing jobs, producing a byte-identical canonical artifact.

``--param KEY=VALUE`` (repeatable, on ``run`` and ``sweep``) overrides any
parameter an experiment declares; through the engine's backend table, every
scenario-driven experiment exposes the shared ``backend`` axis
(``kernel`` | ``turbo`` | ``async`` — help text is generated from
:func:`repro.engine.backends.backend_param_help`), and the async backend
adds ``transport`` / ``framing`` / ``time_scale`` pass-throughs.

Exit codes: 0 success, 1 failed checks / regressions / invalid artifacts /
invariant violations / cluster failures, 2 usage errors (unknown
experiment, bad parameter).
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time
from collections.abc import Sequence
from typing import Any

from repro.cluster.cli import add_cluster_parser, run_cluster_command
from repro.metrics.report import format_table
from repro.orchestrator.compare import (
    DEFAULT_MAX_LATENCY_REGRESSION,
    compare_job_stream,
    compare_payloads,
)
from repro.orchestrator.jobs import JobSpec, SweepSpec, expand_sweep
from repro.orchestrator.pool import JobResult, iter_job_results, payload_from_outcome
from repro.orchestrator.results import (
    ShardIndex,
    ShardMismatch,
    ShardWriter,
    StreamingRunWriter,
    default_results_path,
    iter_shard_records,
    load_payload,
    rollup_shard,
    shard_path_for,
    validate_job_payload,
    validate_run_payload,
    validate_shard,
)
from repro.orchestrator.spec import EXPERIMENT_SPECS, get_spec, visible_experiment_ids


class ProgressMeter:
    """Throttled ``done/total, jobs/s, ETA`` lines on stderr (``--progress``).

    Long campaigns are otherwise observable only by tailing the JSONL shard;
    this prints at most one line per ``min_interval_s`` so a 10k-job sweep
    does not drown CI logs.  Jobs reused from a resumed shard are counted as
    already done but excluded from the rate, which therefore estimates the
    remaining wall time honestly.
    """

    def __init__(
        self,
        total: int,
        label: str,
        enabled: bool = True,
        already_done: int = 0,
        min_interval_s: float = 1.0,
        stream: Any = None,
    ) -> None:
        self._total = total
        self._label = label
        self._enabled = enabled
        self._done = already_done
        self._executed = 0
        self._min_interval_s = min_interval_s
        self._stream = stream if stream is not None else sys.stderr
        self._started = time.monotonic()
        self._last_emit = 0.0

    def tick(self) -> None:
        self._done += 1
        self._executed += 1
        now = time.monotonic()
        if not self._enabled:
            return
        if self._done < self._total and now - self._last_emit < self._min_interval_s:
            return
        self._last_emit = now
        elapsed = max(now - self._started, 1e-9)
        rate = self._executed / elapsed
        remaining = self._total - self._done
        eta = f"{remaining / rate:.0f}s" if rate > 0 else "?"
        print(
            f"[{self._label}] {self._done}/{self._total} done, "
            f"{rate:.1f} jobs/s, ETA {eta}",
            file=self._stream,
        )


def _parse_param_overrides(pairs: Sequence[str]) -> dict[str, str]:
    overrides: dict[str, str] = {}
    for pair in pairs:
        name, separator, value = pair.partition("=")
        if not separator or not name:
            raise ValueError(f"--param expects key=value, got {pair!r}")
        overrides[name] = value
    return overrides


def _print_outcome(experiment_id: str, outcome: dict[str, Any], elapsed_s: float) -> None:
    print("=" * 78)
    print(f"{experiment_id}  ({elapsed_s:.1f}s)   expected: {outcome.get('expected', '')}")
    print("=" * 78)
    print(outcome["table"])
    check = outcome.get("check")
    if check is not None:
        print(f"\nproperty check: {check}")
    verdict = outcome.get("ok")
    if verdict is not None:
        print(f"verdict: {'OK' if verdict else 'FAILED'}")
    print()


def _cmd_list(_args: argparse.Namespace) -> int:
    rows = []
    for experiment_id in visible_experiment_ids():
        spec = EXPERIMENT_SPECS[experiment_id]
        params = ", ".join(
            f"{p.name}:{p.kind}={p.default}" for p in spec.params
        ) or "-"
        rows.append((spec.id, spec.title, f"seed={spec.default_seed}", params))
    print(format_table(["id", "title", "default seed", "parameters"], rows))
    return 0


def _resolve_specs(experiment_ids: Sequence[str] | None) -> list[str]:
    """Validate ids (usage error -> SystemExit 2), default to all visible."""
    if not experiment_ids:
        return list(visible_experiment_ids())
    for experiment_id in experiment_ids:
        try:
            get_spec(experiment_id)
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            raise SystemExit(2) from None
    return list(experiment_ids)


def _open_shard(
    shard_path: pathlib.Path, tag: str, config: dict[str, Any], resume: bool
) -> ShardWriter | int:
    """Open a run's JSONL shard, or the exit code when ``--resume`` cannot:
    1 for an unreadable (corrupt) shard, 2 for another run's shard."""
    try:
        return ShardWriter(shard_path, tag=tag, config=config, fresh=not resume)
    except ValueError as exc:
        print(f"cannot resume from {shard_path}: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ShardMismatch) else 1


def _cmd_run(args: argparse.Namespace) -> int:
    [experiment_id] = _resolve_specs([args.experiment])
    spec = get_spec(experiment_id)
    try:
        overrides = spec.coerce_params(_parse_param_overrides(args.param))
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    started = time.perf_counter()
    outcome = spec.run(seed=args.seed, quick=args.quick, **overrides)
    elapsed = time.perf_counter() - started
    _print_outcome(experiment_id, outcome, elapsed)
    if args.json:
        seed = spec.default_seed if args.seed is None else args.seed
        job = JobSpec(
            experiment=experiment_id,
            seed=seed,
            params=tuple(sorted(overrides.items())),
            quick=args.quick,
        )
        writer = StreamingRunWriter(
            args.json,
            tag=f"run-{experiment_id}",
            config={"experiments": [experiment_id], "seeds": [seed], "quick": args.quick},
            workers=1,
        )
        writer.add_job(payload_from_outcome(job, outcome, elapsed))
        writer.close(wall_time_s=elapsed)
        print(f"wrote {args.json}")
    return 0 if outcome.get("ok", True) else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    experiments = _resolve_specs(args.only)
    try:
        grid = {
            name: [value]
            for name, value in _parse_param_overrides(args.param).items()
        }
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    sweep = SweepSpec(
        experiments=tuple(experiments),
        seeds=tuple(args.seeds or ()),
        grid=grid,
        quick=args.quick,
        timeout_s=args.timeout,
    )
    try:
        jobs = expand_sweep(sweep)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    config = sweep.to_config()
    tag = args.tag or time.strftime("%Y%m%d-%H%M%S")
    path = args.out or default_results_path(tag)
    shard_path = shard_path_for(path)

    writer = _open_shard(shard_path, tag, config, args.resume)
    if isinstance(writer, int):
        return writer
    totals = {"ok": 0, "check_failed": 0, "timeout": 0, "error": 0}
    failed: list[str] = []

    def account(key: str, payload: dict[str, Any]) -> None:
        totals[payload["status"]] = totals.get(payload["status"], 0) + 1
        if payload["status"] != "ok":
            error = payload.get("error")
            detail = f": {str(error).strip().splitlines()[-1]}" if error else ""
            failed.append(f"FAILED {key} [{payload['status']}]{detail}")

    # --resume: a job whose record the shard stores is not run again.
    pending: list[JobSpec] = []
    try:
        for job in jobs:
            payload = writer.reuse(job.index, job.key)
            if payload is None:
                pending.append(job)
            else:
                account(job.key, payload)
    except ShardMismatch as exc:
        writer.close()
        print(f"cannot resume from {shard_path}: {exc}", file=sys.stderr)
        return 2

    print(f"sweep: {len(jobs)} jobs across {len(experiments)} experiments, "
          f"{args.workers} worker(s)"
          + (f" ({writer.reused} reused from {shard_path})" if writer.reused else ""))

    def report_progress(result: JobResult) -> None:
        marker = {"ok": "ok", "check_failed": "CHECK FAILED"}.get(
            result.status, result.status.upper()
        )
        print(f"  [{marker:>12}] {result.job.key}  ({result.payload['wall_time_s']:.1f}s)")
        if args.verbose and result.payload.get("data") is not None:
            data = result.payload["data"]
            if data.get("headers") and data.get("rows"):
                print(format_table(data["headers"], data["rows"]))

    meter = ProgressMeter(
        total=len(jobs), label="sweep", enabled=args.progress, already_done=writer.reused
    )

    started = time.perf_counter()
    with writer:
        for _position, result in iter_job_results(pending, workers=args.workers):
            writer.append(result.job.index, result.payload)
            account(result.job.key, result.payload)
            report_progress(result)
            meter.tick()
    wall_time = time.perf_counter() - started

    rollup_shard(
        ShardIndex(shard_path), path, tag=tag, config=config,
        job_count=len(jobs), wall_time_s=wall_time, workers=args.workers,
        resumed=writer.reused,
    )

    print(f"\n{len(jobs)} jobs: {totals['ok']} ok, {totals['check_failed']} check-failed, "
          f"{totals['timeout']} timed out, {totals['error']} errored  ({wall_time:.1f}s wall)")
    print(f"wrote {path}")
    for line in failed:
        print(line, file=sys.stderr)
    return 1 if failed else 0


def _cmd_explore(args: argparse.Namespace) -> int:
    # Imported lazily: the explorer pulls in the whole harness, which the
    # metadata-only subcommands (list/validate) have no reason to pay for.
    from repro.explore.explorer import DEFAULT_BUDGET, explore

    campaign = None
    if args.campaign:
        from repro.explore.campaign import load_campaign

        try:
            campaign = load_campaign(args.campaign)
        except (OSError, ValueError) as exc:
            print(exc, file=sys.stderr)
            return 2

    # Explicit flags override the campaign file; the campaign file
    # overrides the built-in defaults.
    budget = args.budget if args.budget is not None else (
        campaign.budget if campaign else DEFAULT_BUDGET
    )
    seed = args.seed if args.seed is not None else (campaign.seed if campaign else 0)
    mutant = args.mutant or (campaign.mutant if campaign else "")
    quick = args.quick or bool(campaign and campaign.quick)
    coverage = args.coverage or bool(campaign and campaign.coverage)
    batch = args.batch if args.batch else (campaign.batch if campaign else 0)
    timeout_s = args.timeout if args.timeout is not None else (
        campaign.timeout_s if campaign else None
    )

    notes = ""
    if campaign:
        notes += f", campaign={campaign.name}"
    if mutant:
        notes += f", mutant={mutant}"
    if coverage:
        notes += f", coverage on (batch {batch or 'default'})"
    print(f"explore: {budget} scenarios from seed {seed}{notes}, "
          f"{args.workers} worker(s)")

    tag = args.tag or (f"explore-{campaign.name}" if campaign else f"explore-{seed}")
    path = args.out or default_results_path(tag)
    shard_path = shard_path_for(path)

    # The shard header records the campaign *inputs* (the final artifact's
    # config additionally carries the violations/coverage found, which are
    # only known at the end) — on --resume they must match exactly.
    inputs = {
        "budget": budget, "seed": seed, "mutant": mutant, "quick": quick,
        "coverage": coverage, "batch": batch,
        "campaign": campaign.to_config() if campaign else None,
    }
    writer = _open_shard(shard_path, tag, inputs, args.resume)
    if isinstance(writer, int):
        return writer
    # The header config pins the budget, so every stored record is reusable.
    stored = len(writer.stored or ())
    if stored:
        print(f"resuming: {stored} of {budget} scenarios reused from {shard_path}")

    meter = ProgressMeter(
        total=budget, label="explore", enabled=args.progress, already_done=stored
    )

    def report_progress(result: JobResult) -> None:
        meter.tick()
        marker = {"ok": "ok", "check_failed": "VIOLATION"}.get(
            result.status, result.status.upper()
        )
        print(f"  [{marker:>12}] {result.job.key}  ({result.payload['wall_time_s']:.1f}s)")

    started = time.perf_counter()
    try:
        report = explore(
            budget=budget,
            seed=seed,
            workers=args.workers,
            mutant=mutant,
            quick=quick,
            timeout_s=timeout_s,
            progress=report_progress,
            coverage=coverage,
            batch=batch,
            menus=campaign.menus() if campaign else None,
            campaign_config=campaign.to_config() if campaign else None,
            shard=writer,
        )
    except ValueError as exc:  # bad budget/mutant/menus, or a mismatched shard
        writer.close()
        if writer.stored is None and writer.written == 0:
            shard_path.unlink(missing_ok=True)  # nothing useful was persisted
        print(exc, file=sys.stderr)
        return 2
    finally:
        writer.close()
    wall_time = time.perf_counter() - started

    config = {
        "experiments": ["SCENARIO"],
        "seeds": [seed],
        "quick": quick,
        "explore": report.to_config(),
    }
    rollup_shard(
        ShardIndex(shard_path), path, tag=tag, config=config,
        job_count=budget, wall_time_s=wall_time, workers=args.workers,
        resumed=writer.reused,
    )

    print(f"\n{len(report.results)} scenarios: {len(report.violations)} invariant "
          f"violation(s), {len(report.failures)} infrastructure failure(s)  "
          f"({wall_time:.1f}s wall)")
    if report.coverage is not None:
        print(f"coverage: {report.coverage['signatures']} distinct signatures, "
              f"novel per batch {report.coverage['novel_by_batch']}")
    print(f"wrote {path}")
    for failure in report.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    for violation in report.violations:
        invariants = ", ".join(sorted(violation.violations))
        print(f"\nVIOLATION [{invariants}] {violation.spec.describe()}", file=sys.stderr)
        shrunk_invariants = ", ".join(sorted(violation.shrunk_violations))
        print(f"  shrunk ({violation.shrink_probes} probes) [{shrunk_invariants}] "
              f"{violation.shrunk.describe()}", file=sys.stderr)
        print(f"  replay: {violation.shrunk_replay()}", file=sys.stderr)
    return 0 if report.ok else 1


def _cmd_validate(args: argparse.Namespace) -> int:
    status = 0
    for path in args.paths:
        if str(path).endswith(".jsonl"):
            # A JSONL shard — possibly partial (a crashed run's remains, the
            # thing --resume picks up) — validates record by record.
            problems, jobs, torn = validate_shard(path)
            if problems:
                status = 1
                for problem in problems:
                    print(f"{path}: {problem}", file=sys.stderr)
            else:
                note = " (torn trailing record ignored)" if torn else ""
                print(f"{path}: valid results shard with {jobs} job record(s){note}")
            continue
        try:
            payload = load_payload(path)
        except (OSError, ValueError) as exc:
            print(f"{path}: unreadable ({exc})", file=sys.stderr)
            status = 1
            continue
        problems = validate_run_payload(payload)
        if problems:
            status = 1
            for problem in problems:
                print(f"{path}: {problem}", file=sys.stderr)
        else:
            jobs = payload["totals"]["jobs"]
            print(f"{path}: valid {payload['schema']} artifact with {jobs} job(s)")
    return status


def _cmd_compare(args: argparse.Namespace) -> int:
    try:
        baseline = load_payload(args.baseline)
    except (OSError, ValueError) as exc:
        print(f"baseline: unreadable {args.baseline} ({exc})", file=sys.stderr)
        return 1
    problems = validate_run_payload(baseline)
    if problems:
        for problem in problems:
            print(f"baseline: {problem}", file=sys.stderr)
        return 1

    if str(args.current).endswith(".jsonl"):
        # Compare the JSONL shard directly — one pass, no materialized run;
        # a 10k-job campaign can be gated while (or before) it rolls up.
        return _compare_shard(baseline, args)

    try:
        current = load_payload(args.current)
    except (OSError, ValueError) as exc:
        print(f"current: unreadable {args.current} ({exc})", file=sys.stderr)
        return 1
    problems = validate_run_payload(current)
    if problems:
        for problem in problems:
            print(f"current: {problem}", file=sys.stderr)
        return 1
    report = compare_payloads(
        baseline, current, max_latency_regression=args.max_latency_regression / 100.0
    )
    print(report.summary())
    return 0 if report.ok else 1


def _compare_shard(baseline: dict[str, Any], args: argparse.Namespace) -> int:
    def jobs_from_shard() -> Any:
        for record in iter_shard_records(args.current):
            if "key" not in record:
                continue  # shard header
            payload = {k: v for k, v in record.items() if k != "index"}
            problems = validate_job_payload(payload, f"job {payload.get('key')!r}")
            if problems:
                raise ValueError("; ".join(problems))
            yield payload

    try:
        report = compare_job_stream(
            baseline, jobs_from_shard(),
            max_latency_regression=args.max_latency_regression / 100.0,
        )
    except (OSError, ValueError) as exc:
        print(f"current: {args.current}: {exc}", file=sys.stderr)
        return 1
    print(report.summary())
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run, sweep, persist and compare the reproduction's experiments (E1-E12).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list experiments and their parameter schemas")

    run_parser = subparsers.add_parser("run", help="run one experiment and print its table")
    run_parser.add_argument("experiment", help="experiment id, e.g. E3")
    run_parser.add_argument("--seed", type=int, default=None, help="override the default seed")
    run_parser.add_argument("--quick", action="store_true", help="use reduced sweep ranges")
    run_parser.add_argument(
        "--param", action="append", default=[], metavar="KEY=VALUE",
        help="override a declared parameter (repeatable)",
    )
    run_parser.add_argument("--json", default=None, metavar="PATH",
                            help="also write a single-job results artifact")

    sweep_parser = subparsers.add_parser(
        "sweep", help="run the experiment matrix across worker processes"
    )
    sweep_parser.add_argument("--only", nargs="*", default=None, metavar="ID",
                              help="experiment ids to run (default: all)")
    sweep_parser.add_argument("--seeds", nargs="*", type=int, default=None,
                              help="seeds to sweep (default: each experiment's own)")
    sweep_parser.add_argument("--quick", action="store_true", help="use reduced sweep ranges")
    sweep_parser.add_argument("--workers", type=int, default=1,
                              help="worker processes (1 = inline)")
    sweep_parser.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                              help="per-job timeout; expired jobs are terminated")
    sweep_parser.add_argument(
        "--param", action="append", default=[], metavar="KEY=VALUE",
        help="fix a declared parameter across experiments that have it (repeatable)",
    )
    sweep_parser.add_argument("--tag", default=None, help="artifact tag (default: timestamp)")
    sweep_parser.add_argument("--out", default=None, metavar="PATH",
                              help="artifact path (default: results/run-<tag>.json)")
    sweep_parser.add_argument("--verbose", action="store_true",
                              help="print each experiment's table as it finishes")
    sweep_parser.add_argument("--resume", action="store_true",
                              help="reuse job records already in the run's JSONL "
                                   "shard (after a crash or kill); only missing "
                                   "jobs execute")
    sweep_parser.add_argument("--progress", action="store_true",
                              help="report done/total, jobs/s and ETA on stderr")

    explore_parser = subparsers.add_parser(
        "explore", help="fuzz randomized scenarios; replay + shrink any violation"
    )
    explore_parser.add_argument("--budget", type=int, default=None,
                                help="number of scenarios to generate "
                                     "(default: 25, or the campaign file's)")
    explore_parser.add_argument("--seed", type=int, default=None,
                                help="campaign seed; all randomness derives from it")
    explore_parser.add_argument("--workers", type=int, default=1,
                                help="worker processes (1 = inline)")
    explore_parser.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                                help="per-scenario timeout; expired jobs are terminated")
    explore_parser.add_argument("--mutant", default="",
                                help="self-test: run a known-bad variant "
                                     "(no-wait-till-safe, plain-disclosure, "
                                     "no-defences, no-signatures)")
    explore_parser.add_argument("--campaign", default=None, metavar="FILE",
                                help="load budget/seed/axes from a .toml/.json "
                                     "campaign file (explicit flags still win)")
    explore_parser.add_argument("--coverage", action="store_true",
                                help="coverage-guided feedback: weight axis draws "
                                     "toward novel signatures and violations")
    explore_parser.add_argument("--batch", type=int, default=0,
                                help="feedback batch size for --coverage (default: 8)")
    explore_parser.add_argument("--quick", action="store_true",
                                help="use reduced per-scenario workloads")
    explore_parser.add_argument("--tag", default=None,
                                help="artifact tag (default: explore-<seed>)")
    explore_parser.add_argument("--out", default=None, metavar="PATH",
                                help="artifact path (default: results/run-<tag>.json)")
    explore_parser.add_argument("--resume", action="store_true",
                                help="reuse scenarios already in the campaign's JSONL "
                                     "shard (after a crash or kill); only missing "
                                     "scenarios execute")
    explore_parser.add_argument("--progress", action="store_true",
                                help="report done/total, jobs/s and ETA on stderr")

    add_cluster_parser(subparsers)

    validate_parser = subparsers.add_parser("validate", help="schema-check results artifacts")
    validate_parser.add_argument("paths", nargs="+", help="artifact paths")

    compare_parser = subparsers.add_parser(
        "compare", help="diff a run against a baseline artifact"
    )
    compare_parser.add_argument("baseline", help="baseline artifact path")
    compare_parser.add_argument("current", help="current artifact path")
    compare_parser.add_argument(
        "--max-latency-regression", type=float, default=DEFAULT_MAX_LATENCY_REGRESSION * 100,
        metavar="PERCENT", help="allowed latency growth before failing (default: 20)",
    )

    return parser


_COMMANDS = {
    "list": _cmd_list,
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "explore": _cmd_explore,
    "cluster": run_cluster_command,
    "validate": _cmd_validate,
    "compare": _cmd_compare,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
