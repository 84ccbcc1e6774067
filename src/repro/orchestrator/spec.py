"""Uniform experiment entry points with declared parameter schemas.

Every experiment runner in :mod:`repro.harness.experiments` historically took
its own ad-hoc kwargs.  :class:`ExperimentSpec` wraps each runner behind one
typed surface: a declared :class:`ParamSpec` schema (name, type, default,
help), a uniform ``run(seed=..., quick=..., **overrides)`` call, and the
experiment's verdict (``ok``), headline metrics and latency metrics — the
fields the orchestrator persists and the baseline comparison diffs.

The registry is data, not convention: the CLI builds its help text from it,
``expand_sweep`` filters grid axes against it, and unknown parameters are
rejected up front instead of exploding inside a worker process.
"""

from __future__ import annotations

import inspect
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from typing import Any

from repro.engine.backends import backend_param_help
from repro.explore import scenarios as _scenarios
from repro.harness import experiments as _experiments

#: Parameter kinds the CLI knows how to parse from ``key=value`` strings.
PARAM_PARSERS: dict[str, Callable[[str], Any]] = {
    "int": int,
    "float": float,
    "bool": lambda text: text.lower() in ("1", "true", "yes", "on"),
    "str": str,
    "ints": lambda text: tuple(int(part) for part in text.split(",") if part),
}


@dataclass(frozen=True)
class ParamSpec:
    """One declared parameter of an experiment runner."""

    name: str
    kind: str  # key into PARAM_PARSERS
    default: Any
    help: str = ""

    def parse(self, text: str) -> Any:
        """Parse a CLI-supplied string into this parameter's type."""
        try:
            return PARAM_PARSERS[self.kind](text)
        except (KeyError, ValueError) as exc:
            raise ValueError(f"bad value {text!r} for parameter {self.name} ({self.kind})") from exc


@dataclass(frozen=True)
class ExperimentSpec:
    """Uniform entry point for one experiment."""

    id: str
    title: str
    runner: Callable[..., dict[str, Any]]
    params: tuple[ParamSpec, ...] = ()
    #: Specs hidden from ``repro list`` and excluded from default sweeps
    #: (used for orchestrator self-tests, e.g. the sleep experiment).
    hidden: bool = False

    @property
    def default_seed(self) -> int:
        """The runner's own default seed (every runner declares one)."""
        signature = inspect.signature(self.runner)
        parameter = signature.parameters.get("seed")
        if parameter is None or parameter.default is inspect.Parameter.empty:
            return 0
        return parameter.default

    def param(self, name: str) -> ParamSpec | None:
        for spec in self.params:
            if spec.name == name:
                return spec
        return None

    def coerce_params(self, overrides: Mapping[str, Any]) -> dict[str, Any]:
        """Validate override names against the schema; reject unknown ones."""
        coerced: dict[str, Any] = {}
        for name, value in overrides.items():
            spec = self.param(name)
            if spec is None:
                known = ", ".join(p.name for p in self.params) or "(none)"
                raise ValueError(f"{self.id} has no parameter {name!r}; known: {known}")
            coerced[name] = spec.parse(value) if isinstance(value, str) else value
        return coerced

    def run(
        self,
        seed: int | None = None,
        quick: bool = False,
        **overrides: Any,
    ) -> dict[str, Any]:
        """Run the experiment with schema-checked overrides."""
        kwargs = self.coerce_params(overrides)
        kwargs["seed"] = self.default_seed if seed is None else seed
        return self.runner(quick=quick, **kwargs)


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


def _crash_runner(exit_code: int = 13, seed: int = 0, quick: bool = False) -> dict[str, Any]:
    """Hidden pseudo-experiment: kill the worker process outright.

    ``os._exit`` skips every interpreter cleanup path, so the supervisor sees
    a dead worker mid-job — only safe to run through the process pool, which
    is exactly the point: it pins the pool's crash-respawn handling.
    """
    import os

    os._exit(exit_code)


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


#: Parameter kind by the type of its declared default.  A ``None`` default
#: marks a sweep list (``sizes``, ``breadths``): the runner picks its own
#: quick/full range unless a comma-separated override is given.
_KIND_OF_DEFAULT = {int: "int", float: "float", bool: "bool", str: "str", type(None): "ints"}

#: Help for the axes every experiment shares: which delay model drives
#: delivery, which fault plan scripts the environment (string specs, see
#: :mod:`repro.sim.axes`) and which engine backend executes the run — so a
#: sweep can run the whole evaluation under adversarial schedules and
#: crash/partition churn.  The backend menu and its help text come from the
#: engine's backend registry: a new backend shows up here without touching
#: this module.
_AXIS_HELP = {
    "scheduler": "schedule override: delay | random[:spread=S] | "
    "worst-case[:victims=p0+p1|quorum,starve=S,fast=F]",
    "fault_plan": "fault script: churn | partition@A-B and crash:IDX@A-B terms joined with +",
    "backend": backend_param_help(),
}

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


def _declared_params(defaults: Mapping[str, Any], param_help: Mapping[str, str]) -> tuple[ParamSpec, ...]:
    """One :class:`ParamSpec` per ``name -> default``, kind read off the default."""
    param_help = {**_AXIS_HELP, **param_help}
    return tuple(
        ParamSpec(name, _KIND_OF_DEFAULT[type(default)], default, param_help.get(name, ""))
        for name, default in defaults.items()
    )


def _spec(
    experiment_id: str,
    title: str,
    runner: Callable[..., dict[str, Any]],
    param_help: Mapping[str, str],
    hidden: bool = False,
) -> ExperimentSpec:
    """The spec of a runner whose signature declares its parameters.

    ``seed`` and ``quick`` are not parameters: every job carries them itself.
    """
    defaults = {
        name: parameter.default
        for name, parameter in inspect.signature(runner).parameters.items()
        if name not in ("seed", "quick")
    }
    return ExperimentSpec(experiment_id, title, runner, _declared_params(defaults, param_help), hidden)


#: Registry of every experiment the orchestrator can run: the harness's
#: experiment list (E1..E13), the explorer's hidden ``SCENARIO`` experiment —
#: whose parameters are the :class:`~repro.explore.scenarios.ScenarioSpec`
#: fields — and the orchestrator's own self-test runners.
EXPERIMENT_SPECS: dict[str, ExperimentSpec] = {
    spec.id: spec
    for spec in (
        *(
            _spec(entry.id, entry.title, entry.runner, entry.param_help)
            for entry in _experiments.EXPERIMENTS
        ),
        ExperimentSpec(
            id="SCENARIO",
            title="one randomized-explorer scenario (see python -m repro explore)",
            runner=_scenarios.run_scenario_experiment,
            params=_declared_params(
                _scenarios.ScenarioSpec().params() | {"backend": "kernel"}, _SCENARIO_HELP
            ),
            hidden=True,
        ),
        _spec(
            "SLEEP",
            "orchestrator self-test: sleep for a configurable duration",
            _sleep_runner,
            {"duration": "seconds to sleep"},
            hidden=True,
        ),
        _spec(
            "CRASH",
            "orchestrator self-test: kill the worker process mid-job",
            _crash_runner,
            {"exit_code": "exit code for os._exit"},
            hidden=True,
        ),
        _spec(
            "BLOB",
            "orchestrator self-test: return a payload of a configurable size",
            _blob_runner,
            {"kilobytes": "payload size in KiB"},
            hidden=True,
        ),
    )
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
