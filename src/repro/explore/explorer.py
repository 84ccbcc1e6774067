"""The exploration driver behind ``python -m repro explore``.

One call to :func:`explore` is one fuzzing campaign:

1. :func:`~repro.explore.scenarios.generate_scenarios` derives ``budget``
   scenario specs from the campaign seed (the only randomness involved);
2. each spec becomes a ``SCENARIO`` :class:`~repro.orchestrator.jobs.JobSpec`
   and runs through the persistent worker pool — same process isolation,
   per-job timeouts and versioned job payloads as a sweep; finished
   payloads stream out to ``shard`` (the CLI's JSONL shard writer) as they
   complete, and on ``--resume`` the same shard hands back its stored
   records so only the missing jobs execute;
3. every invariant violation is **replayed** in-process from its seed
   (confirming the determinism the reproducer story depends on) and then
   **shrunk** to a minimal spec with
   :func:`~repro.explore.shrink.shrink_scenario`.

The campaign result is JSON-able and rides inside the artifact's ``config``
section, so one ``results/run-<tag>.json`` file carries the whole story:
every scenario's job payload plus the shrunk reproducers and their replay
command lines.  Campaigns are deterministic: the same ``(budget, seed,
mutant)`` produce identical canonical artifacts at any worker count.

``coverage=True`` turns on the PR 8 feedback loop: scenarios run in
batches, each batch's outcomes feed a
:class:`~repro.explore.coverage.CoverageMap`, and the next batch's axis
draws are weighted toward values that recently produced never-seen
coverage signatures or invariant violations.  Feedback is strictly
batch-synchronous — observation order inside a batch is job order, never
completion order — so coverage campaigns keep the worker-count-invariance
guarantee.

Wire-axis scenarios (real TCP + fault injection) get one relaxation:
wall-clock transports are not bit-deterministic, so a violation that does
not reproduce on in-process replay is still reported as a violation
(``replayed=False``, unshrunk) rather than laundered into an
infrastructure failure — the campaign still fails, with the original
finding attached.
"""

from __future__ import annotations
from collections.abc import Callable

from dataclasses import dataclass, field
from typing import Any

from repro.explore.coverage import CoverageMap
from repro.explore.scenarios import ScenarioSampler, ScenarioSpec, run_scenario_spec
from repro.explore.shrink import DEFAULT_MAX_PROBES, shrink_scenario
from repro.orchestrator.jobs import JobSpec
from repro.orchestrator.pool import JobResult, iter_job_results
from repro.orchestrator.results import ShardWriter

#: Default number of scenarios per campaign (mirrors the CLI default).
DEFAULT_BUDGET = 25

#: Default feedback batch size for coverage-guided campaigns.
DEFAULT_BATCH = 8


@dataclass
class ViolationReport:
    """One invariant violation: the offending spec and its minimal form."""

    spec: ScenarioSpec
    violations: dict[str, list[str]]
    replayed: bool
    shrunk: ScenarioSpec
    shrunk_violations: dict[str, list[str]]
    shrink_probes: int
    #: The campaign's quick flag; replay commands must carry it, because
    #: quick mode changes the generalized workloads.
    quick: bool = False

    def replay(self) -> str:
        return self.spec.replay_command(quick=self.quick)

    def shrunk_replay(self) -> str:
        return self.shrunk.replay_command(quick=self.quick)

    def to_config(self) -> dict[str, Any]:
        """JSON-ready form embedded in the artifact's ``config.explore``."""
        return {
            "spec": self.spec.params() | {"seed": self.spec.seed},
            "violations": self.violations,
            "replayed": self.replayed,
            "replay": self.replay(),
            "shrunk_spec": self.shrunk.params() | {"seed": self.shrunk.seed},
            "shrunk_violations": self.shrunk_violations,
            "shrunk_replay": self.shrunk_replay(),
            "shrink_probes": self.shrink_probes,
        }


@dataclass
class ExplorationReport:
    """Outcome of one campaign: scenarios run, violations found and shrunk."""

    budget: int
    seed: int
    mutant: str
    results: list[JobResult]
    violations: list[ViolationReport] = field(default_factory=list)
    #: Jobs that timed out or crashed (infrastructure failures, not
    #: invariant verdicts) — still campaign failures.
    failures: list[str] = field(default_factory=list)
    #: Coverage summary (signatures, novelty per batch, hottest axis
    #: values) when the campaign ran with feedback on; None otherwise.
    coverage: dict[str, Any] | None = None
    #: The parsed campaign file, verbatim, when one drove the run.
    campaign: dict[str, Any] | None = None

    @property
    def ok(self) -> bool:
        return not self.violations and not self.failures

    def to_config(self) -> dict[str, Any]:
        return {
            "budget": self.budget,
            "seed": self.seed,
            "mutant": self.mutant,
            "violations": [violation.to_config() for violation in self.violations],
            "failures": list(self.failures),
            "coverage": self.coverage,
            "campaign": self.campaign,
        }


def explore(
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
    workers: int = 1,
    mutant: str = "",
    quick: bool = False,
    timeout_s: float | None = None,
    max_probes: int = DEFAULT_MAX_PROBES,
    progress: Callable[[JobResult], None] | None = None,
    coverage: bool = False,
    batch: int = 0,
    menus: dict[str, tuple[str, ...]] | None = None,
    campaign_config: dict[str, Any] | None = None,
    shard: ShardWriter | None = None,
) -> ExplorationReport:
    """Run one exploration campaign; see the module docstring for the shape.

    ``shard`` receives every *newly executed* job as it completes, so a
    crash loses at most the in-flight jobs.  A shard opened for resume
    hands back the payloads it already stores (:meth:`ShardWriter.reuse`):
    those scenarios are not re-executed, but their stored payloads still
    feed the coverage map in job order, so the feedback RNG stream — and
    therefore every later scenario — is identical to the uninterrupted run.
    A stored record of a different job raises
    :class:`~repro.orchestrator.results.ShardMismatch` rather than silently
    mixing runs.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    coverage_map = CoverageMap() if coverage else None
    sampler = ScenarioSampler(seed=seed, mutant=mutant, coverage=coverage_map, menus=menus)
    # Without feedback, batching changes nothing — run one batch, which
    # keeps the historic single-shot path (and its RNG stream) intact.
    batch_size = batch if batch >= 1 else (DEFAULT_BATCH if coverage else budget)

    specs: list[ScenarioSpec] = []
    results: list[JobResult] = []
    while len(specs) < budget:
        base = len(specs)
        chunk = sampler.take(min(batch_size, budget - len(specs)))
        chunk_results: list[JobResult | None] = [None] * len(chunk)
        pending: list[JobSpec] = []
        pending_offsets: list[int] = []
        for offset, spec in enumerate(chunk):
            job = JobSpec(
                experiment="SCENARIO",
                seed=spec.seed,
                params=tuple(sorted(spec.params().items())),
                quick=quick,
                timeout_s=timeout_s,
                index=base + offset,
            )
            stored = shard.reuse(job.index, job.key) if shard is not None else None
            if stored is not None:
                chunk_results[offset] = JobResult(job=job, payload=stored)
            else:
                pending.append(job)
                pending_offsets.append(offset)
        for position, result in iter_job_results(pending, workers=workers):
            offset = pending_offsets[position]
            chunk_results[offset] = result
            if shard is not None:
                shard.append(base + offset, result.payload)
            if progress is not None:
                progress(result)
        if coverage_map is not None:
            for spec, result in zip(chunk, chunk_results, strict=True):
                if result.payload["status"] in ("ok", "check_failed"):
                    coverage_map.observe(spec, _observed_outcome(result))
            coverage_map.end_batch()
        specs += chunk
        results += [_slim_result(result) for result in chunk_results]

    report = ExplorationReport(
        budget=budget, seed=seed, mutant=mutant, results=results,
        coverage=coverage_map.summary() if coverage_map is not None else None,
        campaign=campaign_config,
    )
    for spec, result in zip(specs, results, strict=True):
        status = result.payload["status"]
        if status == "ok":
            continue
        if status in ("timeout", "error"):
            error = str(result.payload.get("error") or "").strip().splitlines()
            detail = error[-1] if error else status
            report.failures.append(f"{result.job.key}: [{status}] {detail}")
            continue
        # status == "check_failed": an invariant violation.  Replay it from
        # the seed in-process — determinism is the whole reproducer story —
        # then shrink greedily.
        outcome = run_scenario_spec(spec, quick=quick)
        replayed = not outcome["ok"]
        if not replayed:
            if spec.wire:
                # Real-TCP runs are wall-clock: a finding that does not
                # come back on replay is still the worker's finding, not an
                # infrastructure failure.  Report it unshrunk.
                job_violations = (result.payload.get("data") or {}).get("violations", {})
                report.violations.append(
                    ViolationReport(
                        spec=spec,
                        violations=job_violations,
                        replayed=False,
                        shrunk=spec,
                        shrunk_violations=job_violations,
                        shrink_probes=0,
                        quick=quick,
                    )
                )
                continue
            report.failures.append(  # pragma: no cover - a determinism bug
                f"{result.job.key}: violation did NOT reproduce on replay"
            )
            continue
        shrunk, shrunk_violations, probes = _shrink_with_outcomes(
            spec, outcome, quick, max_probes
        )
        report.violations.append(
            ViolationReport(
                spec=spec,
                violations=outcome["violations"],
                replayed=replayed,
                shrunk=shrunk,
                shrunk_violations=shrunk_violations,
                shrink_probes=probes,
                quick=quick,
            )
        )
    return report


#: Keys of a job payload's "data" section that in-process consumers still
#: read after the payload has been streamed to the shard (the violation
#: reporter needs the wire-scenario violations, examples read the spec).
_RETAINED_DATA_KEYS = ("spec", "violations")


def _slim_result(result: JobResult) -> JobResult:
    """Drop the bulk of a payload's ``data`` once it has been streamed out.

    The full payload lives in the JSONL shard / artifact; what the report
    retains in memory only has to serve the violation loop and callers
    reading verdicts — so a campaign's resident size no longer scales with
    per-job data volume.
    """
    data = result.payload.get("data")
    if not isinstance(data, dict):
        return result
    slim = {key: data[key] for key in _RETAINED_DATA_KEYS if key in data}
    return JobResult(job=result.job, payload={**result.payload, "data": slim})


def _observed_outcome(result: JobResult) -> dict[str, Any]:
    """The slice of a job payload the coverage signature reads."""
    data = result.payload.get("data") or {}
    return {
        "ok": result.payload.get("ok", True),
        "violations": data.get("violations") or {},
        "headline": result.payload.get("headline") or {},
    }


def _shrink_with_outcomes(
    spec: ScenarioSpec,
    outcome: dict[str, Any],
    quick: bool,
    max_probes: int,
) -> tuple:
    """Shrink ``spec``; return ``(shrunk, shrunk violations, probes)``.

    Every violating probe's outcome is cached (specs are frozen/hashable),
    so the accepted shrunk spec is never re-simulated just to read its
    violations back.
    """
    violating_outcomes: dict[ScenarioSpec, dict[str, Any]] = {spec: outcome}

    def violates(candidate: ScenarioSpec) -> bool:
        probe_outcome = run_scenario_spec(candidate, quick=quick)
        if not probe_outcome["ok"]:
            violating_outcomes[candidate] = probe_outcome
        return not probe_outcome["ok"]

    shrunk, probes = shrink_scenario(spec, violates, max_probes=max_probes)
    return shrunk, violating_outcomes[shrunk]["violations"], probes
