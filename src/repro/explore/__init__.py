"""Randomized scenario exploration (VOPR-style) for the protocol suite.

The explorer turns the simulator's adversarial knobs — scheduler policies,
scripted crash/partition churn, Byzantine behaviour mixes — into a seeded
random search for invariant violations:

* :mod:`repro.explore.invariants` — the reusable invariant library
  (agreement, validity, decision liveness, Byzantine value bounds, RSM read
  comparability) factored out of the experiment runners so the explorer and
  the E1–E12 verdicts judge runs with the same code.
* :mod:`repro.explore.scenarios` — :class:`ScenarioSpec` (a JSON-able
  description of one randomized run), the seeded generator, and the hidden
  ``SCENARIO`` experiment runner that lets specs flow through the
  orchestrator's worker pool and ``repro-results/v1`` artifacts unchanged.
* :mod:`repro.explore.shrink` — greedy scenario shrinking: strip the fault
  plan, the scheduler, extra Byzantine behaviours and excess cluster size
  while the violation still reproduces.
* :mod:`repro.explore.explorer` — the ``python -m repro explore`` driver:
  generate a budget of scenarios from one seed, fan them out across workers,
  then deterministically replay and shrink every violation to a minimal
  reproducer.

``scenarios``/``shrink``/``explorer`` are re-exported lazily: the harness
imports :mod:`repro.explore.invariants` while the orchestrator's experiment
registry is still being built, and an eager import here would close that
cycle.
"""

from repro.explore.invariants import (
    byzantine_value_bound_violations,
    check_scenario_invariants,
    gla_invariants,
    la_invariants,
    proof_invariants,
    rsm_invariants,
)

__all__ = [
    "byzantine_value_bound_violations",
    "check_scenario_invariants",
    "gla_invariants",
    "la_invariants",
    "proof_invariants",
    "rsm_invariants",
    "ScenarioSpec",
    "generate_scenarios",
    "run_scenario_experiment",
    "shrink_scenario",
    "explore",
]

_LAZY = {
    "ScenarioSpec": "repro.explore.scenarios",
    "generate_scenarios": "repro.explore.scenarios",
    "run_scenario_experiment": "repro.explore.scenarios",
    "shrink_scenario": "repro.explore.shrink",
    "explore": "repro.explore.explorer",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
