"""Execution engine: sans-I/O protocol cores + pluggable backends.

The paper's system model (Section 3): processes "communicate by exchanging
messages over asynchronous authenticated reliable point-to-point
communication links (messages are never lost on links, but delays are
unbounded)" over a complete communication graph.

This package realises that model in two decoupled halves:

* **Protocol cores** (:class:`ProtocolCore`) — pure state machines with a
  ``handle(event) -> list[effect]`` interface.  Cores never reference a
  network or a clock; they emit :mod:`~repro.engine.effects` (send /
  broadcast / set_timer / decide / output) and are handed
  :mod:`~repro.engine.events` (start / deliver / timer / crash / recover).
* **Backends** — sinks of the one effect interpreter
  (:func:`~repro.engine.effects.interpret`), built on the shared
  :class:`~repro.engine.services.EngineBase` skeleton and listed by name
  in the :mod:`~repro.engine.backends` table:

  - :class:`TurboEngine` — the simulated-time event loop: delay models,
    fault plans, causal-depth accounting, no per-message objects (see
    :mod:`repro.engine.turbo_backend`).
  - :class:`KernelEngine` — the reference backend: turbo's loop plus an
    envelope per message, per-type/size metrics and the delivery log the
    golden traces are read from.
  - :class:`AsyncEngine` — wall-clock time and decision-latency
    histograms: in-process, the kernel's loop on a wall clock (CI
    determinism-lite), or length-prefixed frames — JSON or compact
    binary (``framing=``) — over localhost TCP, on the cluster's link layer
    (:class:`~repro.engine.wire.FrameLink` out, the shared sender-stamping
    reader in, handing each frame straight to its core; timers, paced
    frames and scripted faults on turbo's calendar and hold lists; see
    :mod:`repro.engine.async_backend`).

Engine *services* shared by every backend — the :class:`~repro.engine.
services.Clock` abstraction (simulated vs wall-clock time sources) and the
uniform :class:`RunResult` — live in :mod:`repro.engine.services`.

``create_engine(backend=...)`` resolves names through that table;
everything above this layer (the scenario path, experiments, the explorer)
takes a ``backend`` string and stays agnostic.
"""

from repro.engine.async_backend import AsyncEngine
from repro.engine.backends import (
    BACKENDS,
    backend_is_wall_clock,
    backend_param_help,
    backend_time_source,
    create_engine,
    get_backend,
)
from repro.engine.core import ProtocolCore
from repro.engine.delays import DelayModel, FixedDelay, SkewedPairDelay, UniformDelay
from repro.engine.effects import Broadcast, Cancel, Decide, Effect, Output, Send, SetTimer, TimerHandle
from repro.engine.envelope import Envelope, estimate_size
from repro.engine.events import CoreEvent, Crashed, Deliver, Recovered, Start, TimerFired
from repro.engine.kernel_backend import KernelEngine
from repro.engine.services import (
    TIME_SIMULATED,
    TIME_SOURCES,
    TIME_WALL_CLOCK,
    Clock,
    RunResult,
    SimulatedClock,
    WallClock,
    latency_summary,
    percentile,
)
from repro.engine.turbo_backend import TurboEngine


__all__ = [
    # cores & the sans-I/O vocabulary
    "ProtocolCore",
    "Effect",
    "Send",
    "Broadcast",
    "SetTimer",
    "Cancel",
    "Decide",
    "Output",
    "TimerHandle",
    "CoreEvent",
    "Start",
    "Deliver",
    "TimerFired",
    "Crashed",
    "Recovered",
    # backends & the backend table
    "KernelEngine",
    "TurboEngine",
    "AsyncEngine",
    "RunResult",
    "BACKENDS",
    "create_engine",
    "get_backend",
    "backend_time_source",
    "backend_is_wall_clock",
    "backend_param_help",
    # engine services (clocks & time sources)
    "Clock",
    "SimulatedClock",
    "WallClock",
    "TIME_SIMULATED",
    "TIME_WALL_CLOCK",
    "TIME_SOURCES",
    "latency_summary",
    "percentile",
    # wire format & delay models
    "Envelope",
    "estimate_size",
    "DelayModel",
    "FixedDelay",
    "UniformDelay",
    "SkewedPairDelay",
]
