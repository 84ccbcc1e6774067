"""Parallel experiment orchestrator and the ``python -m repro`` CLI.

The orchestrator turns the experiment runners of :mod:`repro.harness` into a
batch-processing pipeline:

* :mod:`repro.orchestrator.spec` — lookups over the experiment table
  (one :class:`ExperimentSpec` per experiment, registered by
  :mod:`repro.harness.experiments`: a uniform entry point with a declared
  parameter schema) plus the hidden explorer and self-test entries.
* :mod:`repro.orchestrator.jobs` — declarative :class:`SweepSpec` expansion
  into independent :class:`JobSpec` units (experiments x seeds x param grid).
* :mod:`repro.orchestrator.pool` — execution: inline for one worker, a
  process-per-job worker pool with per-job timeouts otherwise.  A run is a
  pure function of its job spec, so fan-out never changes results.
* :mod:`repro.orchestrator.results` — the versioned JSON artifact written to
  ``results/run-<tag>.json`` (git SHA, config, wall times, per-experiment
  check outcomes) plus its schema validator and the timing-free canonical
  form used for determinism comparisons.
* :mod:`repro.orchestrator.compare` — diff a run against a committed
  baseline and flag correctness or latency regressions.
* :mod:`repro.orchestrator.cli` — the ``python -m repro`` command surface
  (``list`` / ``run`` / ``sweep`` / ``validate`` / ``compare``).
"""

from repro.orchestrator.compare import ComparisonReport, compare_payloads
from repro.orchestrator.jobs import JobSpec, SweepSpec, expand_sweep
from repro.orchestrator.pool import JobResult, execute_job, run_jobs
from repro.orchestrator.results import (
    RESULTS_SCHEMA_VERSION,
    build_run_payload,
    canonicalize_payload,
    load_payload,
    validate_run_payload,
)
from repro.orchestrator.spec import EXPERIMENT_SPECS, ExperimentSpec, ParamSpec, get_spec

__all__ = [
    "ComparisonReport",
    "compare_payloads",
    "JobSpec",
    "SweepSpec",
    "expand_sweep",
    "JobResult",
    "execute_job",
    "run_jobs",
    "RESULTS_SCHEMA_VERSION",
    "build_run_payload",
    "canonicalize_payload",
    "load_payload",
    "validate_run_payload",
    "EXPERIMENT_SPECS",
    "ExperimentSpec",
    "ParamSpec",
    "get_spec",
]
