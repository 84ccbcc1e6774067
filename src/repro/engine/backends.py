"""The execution-backend registry: every engine, described as data.

Before this module existed, "which backends are there" lived as string
dispatch smeared across the harness builders, the orchestrator's parameter
help text and the explorer.  Now there is exactly one table: each backend
registers a :class:`BackendInfo` carrying its constructor, its time source
(simulated vs wall-clock — see :mod:`repro.engine.services`), whether its
schedule is deterministic, and a one-line summary the CLI help is generated
from.  Everything above the engine layer asks this registry instead of
hard-coding names:

* :func:`~repro.harness.build_scenario` resolves ``backend="..."`` via :func:`create_engine`;
* ``repro list`` / ``repro run --param backend=...`` help text comes from
  :func:`backend_param_help`;
* the results layer stamps each job with :func:`backend_time_source` so
  ``repro-results/v3`` artifacts distinguish simulated-time latency metrics
  from wall-clock ones;
* experiments ask :func:`backend_is_wall_clock` to decide whether a
  delay-model bound is meaningful or must be skipped with a reason.

Adding a backend is one :func:`register_backend` call — no other layer
changes.

Cluster service mode (:mod:`repro.cluster`) is deliberately *not* a registry
entry: backends here are in-process engines that run a scenario to
completion and return a :class:`~repro.engine.api.RunResult`, while the
cluster supervises long-lived OS processes with no run driver or stop
predicate.  It reuses the cores and wire codecs underneath, but is operated
through ``python -m repro cluster ...`` rather than ``--param backend=``.
"""

from __future__ import annotations
from collections.abc import Callable

from dataclasses import dataclass
from typing import Any

from repro.engine.services import TIME_SOURCES, TIME_WALL_CLOCK


@dataclass(frozen=True)
class BackendInfo:
    """One registered execution backend."""

    #: Registry key (the ``backend=`` axis value).
    name: str
    #: Constructor accepting the shared signature
    #: ``(delay_model=, seed=, metrics=, **extra)``.
    factory: Callable[..., Any]
    #: One of :data:`repro.engine.services.TIME_SOURCES`.
    time_source: str
    #: Whether a run is a pure function of (cores, seed, delay model, faults).
    deterministic: bool
    #: One-line description used in generated CLI help and docs.
    summary: str

    def __post_init__(self) -> None:
        if self.time_source not in TIME_SOURCES:
            raise ValueError(
                f"backend {self.name!r} has unknown time source "
                f"{self.time_source!r}; expected one of {TIME_SOURCES}"
            )


#: The registry, in registration order (kernel first — the reference).
_BACKENDS: dict[str, BackendInfo] = {}


def register_backend(info: BackendInfo) -> BackendInfo:
    """Register a backend (refusing silent replacement of an existing name)."""
    if info.name in _BACKENDS:
        raise ValueError(f"backend {info.name!r} is already registered")
    _BACKENDS[info.name] = info
    return info


def backend_names() -> tuple[str, ...]:
    """All registered backend names, in registration order."""
    return tuple(_BACKENDS)


def get_backend(name: str) -> BackendInfo:
    """Look up one backend; raise ``ValueError`` naming the known ones."""
    try:
        return _BACKENDS[name]
    except KeyError:
        known = ", ".join(_BACKENDS)
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
    parts = [f"{info.name} ({info.summary})" for info in _BACKENDS.values()]
    return "execution engine: " + " | ".join(parts)


def create_engine(
    backend: str = "kernel",
    delay_model=None,
    seed: int = 0,
    metrics=None,
    **extra: Any,
):
    """Instantiate the named backend with the shared constructor signature.

    ``extra`` passes backend-specific options through (e.g. the async
    backend's ``transport=`` / ``time_scale=`` / ``framing=``); backends
    reject options they do not understand, so a typo fails loudly.
    """
    info = get_backend(backend)
    return info.factory(delay_model=delay_model, seed=seed, metrics=metrics, **extra)


def _register_builtin_backends() -> None:
    """Populate the registry with the in-tree backends.

    Imports live here (not at module top) so the registry module stays
    import-light and free of cycles: backends import
    :mod:`repro.engine.services`, which must not drag every backend in.
    """
    from repro.engine.async_backend import AsyncEngine
    from repro.engine.kernel_backend import KernelEngine
    from repro.engine.turbo_backend import TurboEngine

    register_backend(
        BackendInfo(
            name="kernel",
            factory=KernelEngine,
            time_source=KernelEngine.time_source,
            deterministic=True,
            summary="reference: turbo's schedule plus delivery log + full metrics",
        )
    )
    register_backend(
        BackendInfo(
            name="turbo",
            factory=TurboEngine,
            time_source=TurboEngine.time_source,
            deterministic=True,
            summary="fast path: identical schedule, no per-message objects",
        )
    )
    register_backend(
        BackendInfo(
            name="async",
            factory=AsyncEngine,
            time_source=AsyncEngine.time_source,
            deterministic=False,
            summary="wall-clock time + tail latencies: the kernel's loop in memory, "
            "or asyncio with coalesced TCP frames (framing=json|binary)",
        )
    )


_register_builtin_backends()
