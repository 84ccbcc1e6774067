"""The orchestrator's hidden experiments and lookups over the experiment table.

The experiment table itself — :class:`ExperimentSpec`, :class:`ParamSpec`
and :data:`EXPERIMENT_SPECS` — lives in :mod:`repro.harness.experiments`,
where ``@experiment`` registers E1..E13.  This module adds the hidden
entries (the explorer's ``SCENARIO`` and the orchestrator's self-test
runners) and the two lookups the CLI and the worker pool use.

The table is data, not convention: the CLI builds its help text from it,
``expand_sweep`` filters grid axes against it, and unknown parameters are
rejected up front instead of exploding inside a worker process.
"""

from __future__ import annotations

from typing import Any

from repro.explore import scenarios as _scenarios
from repro.harness.experiments import (
    EXPERIMENT_SPECS,
    PARAM_PARSERS,
    ExperimentSpec,
    ParamSpec,
    register_experiment,
)

__all__ = ["EXPERIMENT_SPECS", "PARAM_PARSERS", "ExperimentSpec", "ParamSpec", "get_spec", "visible_experiment_ids"]


_SCENARIO_HELP = {
    "protocol": "wts | sbs | gwts | gsbs | rsm",
    "n": "cluster size (>= 3f+1)",
    "f": "failure threshold",
    "byzantine": "behaviour names joined with +, e.g. silent+nack-spam",
    "rounds": "rounds for generalized protocols",
    "mutant": "known-bad variant for self-tests",
    "wire": "wire-fault DSL for sbs/gsbs over real TCP, "
    "e.g. flip:0.3+tamper-value:0.5 (see repro.engine.wire_faults)",
    "batch": "proposer batch size for gwts/gsbs/rsm (0 = propose singly)",
    "shards": "shard the RSM into this many replica groups (rsm only, n >= shards*(3f+1))",
}


register_experiment(
    "SCENARIO",
    "one randomized-explorer scenario (see python -m repro explore)",
    _scenarios.ScenarioSpec().params() | {"backend": "kernel"},
    hidden=True,
    **_SCENARIO_HELP,
)(_scenarios.run_scenario_experiment)


@register_experiment(
    "SLEEP", "orchestrator self-test: sleep for a configurable duration", hidden=True, duration="seconds to sleep"
)
def _sleep_runner(duration: float = 5.0, seed: int = 0, quick: bool = False) -> dict[str, Any]:
    """Hidden pseudo-experiment: sleep for ``duration`` seconds.

    Exists so the orchestrator's timeout handling can be exercised end to end
    (spawn a job that provably outlives its deadline) without slowing a real
    experiment down.
    """
    import time

    time.sleep(duration if not quick else duration / 10.0)
    return {
        "experiment": "SLEEP",
        "expected": "completes after the requested duration",
        "ok": True,
        "headline": {"duration_s": float(duration)},
        "latency": {},
        "headers": ["duration_s"],
        "rows": [[float(duration)]],
        "table": f"slept {duration}s",
    }


@register_experiment(
    "CRASH", "orchestrator self-test: kill the worker process mid-job", hidden=True, exit_code="exit code for os._exit"
)
def _crash_runner(exit_code: int = 13, seed: int = 0, quick: bool = False) -> dict[str, Any]:
    """Hidden pseudo-experiment: kill the worker process outright.

    ``os._exit`` skips every interpreter cleanup path, so the supervisor sees
    a dead worker mid-job — only safe to run through the process pool, which
    is exactly the point: it pins the pool's crash-respawn handling.
    """
    import os

    os._exit(exit_code)


@register_experiment(
    "BLOB",
    "orchestrator self-test: return a payload of a configurable size",
    hidden=True,
    kilobytes="payload size in KiB",
)
def _blob_runner(kilobytes: int = 64, seed: int = 0, quick: bool = False) -> dict[str, Any]:
    """Hidden pseudo-experiment: return a payload of a configurable size.

    Exists so the streamed-results memory bound can be tested: a campaign of
    BLOB jobs has a known aggregate payload size, and the supervisor's peak
    memory must not grow with the job count once records stream to the JSONL
    shard instead of accumulating in RAM.
    """
    data = "x" * (kilobytes * 1024)
    return {
        "experiment": "BLOB",
        "expected": "returns a payload of the requested size",
        "ok": True,
        "headline": {"kilobytes": float(kilobytes)},
        "latency": {},
        "headers": ["kilobytes"],
        "rows": [[float(kilobytes)]],
        "table": f"blob of {kilobytes} KiB",
        "blob": data,
    }


def visible_experiment_ids() -> tuple[str, ...]:
    """The experiment ids a default sweep covers, in registry order."""
    return tuple(spec.id for spec in EXPERIMENT_SPECS.values() if not spec.hidden)


def get_spec(experiment_id: str) -> ExperimentSpec:
    """Look up one experiment; raise ``KeyError`` with the known ids."""
    try:
        return EXPERIMENT_SPECS[experiment_id]
    except KeyError:
        known = ", ".join(visible_experiment_ids())
        raise KeyError(f"unknown experiment {experiment_id!r}; known: {known}") from None
