"""The execution-backend table: every engine, by name.

"Which backends are there" is this one table, :data:`BACKENDS`, mapping the
``backend=`` axis value to its engine class.  Each class carries its own
``time_source`` (simulated vs wall-clock — see :mod:`repro.engine.services`)
and a one-line ``summary`` the CLI help is generated from.  Everything above
the engine layer asks this module instead of hard-coding names:

* :func:`~repro.harness.build_scenario` resolves ``backend="..."`` via :func:`create_engine`;
* ``repro list`` / ``repro run --param backend=...`` help text comes from
  :func:`backend_param_help`;
* the results layer stamps each job with :func:`backend_time_source` so
  ``repro-results/v3`` artifacts distinguish simulated-time latency metrics
  from wall-clock ones;
* experiments ask :func:`backend_is_wall_clock` to decide whether a
  delay-model bound is meaningful or must be skipped with a reason.

Cluster service mode (:mod:`repro.cluster`) is deliberately *not* a table
entry: backends here are in-process engines that run a scenario to
completion and return a :class:`~repro.engine.api.RunResult`, while the
cluster supervises long-lived OS processes with no run driver or stop
predicate.  It reuses the cores and wire codecs underneath, but is operated
through ``python -m repro cluster ...`` rather than ``--param backend=``.
"""

from __future__ import annotations

from typing import Any

from repro.engine.async_backend import AsyncEngine
from repro.engine.kernel_backend import KernelEngine
from repro.engine.services import TIME_WALL_CLOCK
from repro.engine.turbo_backend import TurboEngine

#: ``backend=`` name -> engine class, kernel (the reference) first.  Every
#: class takes the shared ``(delay_model=, seed=, metrics=, **extra)``.
BACKENDS: dict[str, type[TurboEngine]] = {
    engine.name: engine for engine in (KernelEngine, TurboEngine, AsyncEngine)
}


def get_backend(name: str) -> type[TurboEngine]:
    """Look up one engine class; raise ``ValueError`` naming the known ones."""
    try:
        return BACKENDS[name]
    except KeyError:
        known = ", ".join(BACKENDS)
        raise ValueError(f"unknown engine backend {name!r}; known: {known}") from None


def backend_time_source(name: str) -> str:
    """The ``time_source`` label of backend ``name`` (for result artifacts)."""
    return get_backend(name).time_source


def backend_is_wall_clock(name: str) -> bool:
    """Whether ``name`` reports wall-clock time (delay-model bounds are
    meaningless there and must be skipped with a reason)."""
    return get_backend(name).time_source == TIME_WALL_CLOCK


def backend_param_help() -> str:
    """The generated help text of the shared ``backend`` axis parameter."""
    parts = [f"{name} ({engine.summary})" for name, engine in BACKENDS.items()]
    return "execution engine: " + " | ".join(parts)


def create_engine(backend: str = "kernel", delay_model=None, seed: int = 0, metrics=None, **extra: Any):
    """Instantiate the named backend with the shared constructor signature.

    ``extra`` passes backend-specific options through (e.g. the async
    backend's ``transport=`` / ``time_scale=`` / ``framing=``); backends
    reject options they do not understand, so a typo fails loudly.
    """
    return get_backend(backend)(delay_model=delay_model, seed=seed, metrics=metrics, **extra)
