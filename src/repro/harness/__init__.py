"""Experiment harness: the scenario path, workload generators, experiments.

:mod:`repro.harness.workloads` holds the one scenario path — a protocol
registry (:data:`PROTOCOLS`), :func:`build_scenario` and
:meth:`Scenario.run` — that assembles and runs simulated clusters of every
algorithm (WTS, GWTS, SbS, GSbS, the crash baselines and the RSM) with
configurable size, failure threshold, Byzantine population, delay model and
seed, and returns a :class:`~repro.harness.workloads.ScenarioResult`
exposing the proposals, decisions, metrics and specification checks:
``build_scenario("gwts", 4, 1, rounds=5).run()``.  The one generator beside
it, :func:`~repro.harness.workloads.run_open_loop_scenario`, feeds a GWTS
cluster fixed-rate arrivals on top of that path.

:mod:`repro.harness.experiments` implements the per-table/figure experiment
runners E1–E13 (E1–E10 regenerate the paper's claims; E11 ablation, E12
partition-churn and E13 sharded/batched scaling are extensions);
``@experiment`` registers each in :data:`EXPERIMENT_SPECS`, the one
experiment table ``python -m repro list`` prints with its parameters and
``python -m repro run``/``sweep`` execute.
"""

from repro.harness.experiments import (
    EXPERIMENT_SPECS,
    run_ablation_experiment,
    run_baseline_comparison,
    run_breadth_experiment,
    run_chain_experiment,
    run_gwts_liveness_experiment,
    run_gwts_messages_experiment,
    run_partition_churn_experiment,
    run_resilience_experiment,
    run_rsm_experiment,
    run_sbs_experiment,
    run_shard_scaling_experiment,
    run_wts_latency_experiment,
    run_wts_messages_experiment,
)
from repro.harness.workloads import (
    PROTOCOLS,
    OpenLoopReport,
    Scenario,
    ScenarioResult,
    build_scenario,
    default_proposals,
    member_pids,
    run_open_loop_scenario,
)

__all__ = [
    "PROTOCOLS",
    "build_scenario",
    "Scenario",
    "ScenarioResult",
    "member_pids",
    "default_proposals",
    "run_open_loop_scenario",
    "OpenLoopReport",
    "run_chain_experiment",
    "run_resilience_experiment",
    "run_wts_latency_experiment",
    "run_wts_messages_experiment",
    "run_sbs_experiment",
    "run_gwts_messages_experiment",
    "run_gwts_liveness_experiment",
    "run_rsm_experiment",
    "run_breadth_experiment",
    "run_baseline_comparison",
    "run_ablation_experiment",
    "run_partition_churn_experiment",
    "run_shard_scaling_experiment",
    "EXPERIMENT_SPECS",
]
