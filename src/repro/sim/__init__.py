"""Simulation policy: fault plans and the string axes of a simulated run.

This package says *what* a simulated run does, not how it is executed: a
declarative fault-script API (:mod:`repro.sim.faults`) and the string DSL
(:mod:`repro.sim.axes`) that fault plans and delay models are parsed from.
Delay models — who decides when a message arrives — live in
:mod:`repro.engine.delays`.  The event loop that applies both is
:meth:`repro.engine.TurboEngine.run`, which the kernel backend shares.
"""

from repro.sim.axes import describe_axes, parse_fault_plan, parse_scheduler
from repro.sim.faults import FaultAction, FaultPlan

__all__ = [
    "FaultAction",
    "FaultPlan",
    "parse_scheduler",
    "parse_fault_plan",
    "describe_axes",
]
