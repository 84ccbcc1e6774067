"""Simulation policy: schedulers, fault plans and their string axes.

This package says *what* a simulated run does, not how it is executed: a
pluggable scheduling policy deciding message delays
(:mod:`repro.sim.scheduler`), a declarative fault-script API
(:mod:`repro.sim.faults`) and the string DSL both are parsed from
(:mod:`repro.sim.axes`).  The event loop that applies them is
:meth:`repro.engine.TurboEngine.run`, which the kernel backend shares.
"""

from repro.sim.axes import describe_axes, parse_fault_plan, parse_scheduler
from repro.sim.faults import FaultAction, FaultPlan
from repro.sim.scheduler import DelayModelScheduler, RandomScheduler, Scheduler, WorstCaseScheduler

__all__ = [
    "Scheduler",
    "DelayModelScheduler",
    "RandomScheduler",
    "WorstCaseScheduler",
    "FaultAction",
    "FaultPlan",
    "parse_scheduler",
    "parse_fault_plan",
    "describe_axes",
]
