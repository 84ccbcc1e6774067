#!/usr/bin/env python3
"""GWTS riding out partition + crash/recover churn, scripted via FaultPlan.

This example demonstrates the discrete-event kernel's fault machinery end to
end:

1. a declarative :class:`FaultPlan` splits the cluster 2/2, heals it, then
   takes two correct processes through crash/recover cycles;
2. the run is repeated under a :class:`SkewedPairDelay` that slows every
   link of one correct process by a large (finite) delay;
3. the GLA specification checker verifies that decisions stayed pairwise
   comparable in every configuration, and the decision timestamps show the
   churn and the adversarial schedule *delaying* decisions without ever
   preventing them — the liveness claim of the paper holds because faults
   and starvation are only finite delay, which the asynchronous model
   already allows.

Run with::

    PYTHONPATH=src python examples/partition_churn.py
"""

import sys

from repro.byzantine import SilentByzantine
from repro.engine import FixedDelay, SkewedPairDelay
from repro.harness import build_scenario
from repro.sim import FaultPlan

N, F, ROUNDS, SEED = 4, 1, 4, 37


def churn_plan() -> FaultPlan:
    """2/2 partition (heals at t=18), then two crash/recover cycles.

    Intentionally spelled out rather than imported: this example exists to
    demonstrate building a FaultPlan by hand.  ``tests/sim/test_axes.py``
    checks that it equals the ``churn`` preset E12 runs.
    """
    return (
        FaultPlan()
        .partition(["p0", "p1"], ["p2", "p3"], at=3.0, heal_at=18.0)
        .crash("p1", at=20.0, recover_at=30.0)
        .crash("p2", at=32.0, recover_at=42.0)
    )


def run(name, delay_model=FixedDelay(1.0), **kwargs):
    scenario = build_scenario(
        "gwts", N, F,
        values_per_process=1,
        rounds=ROUNDS,
        seed=SEED,
        byzantine_factories=[lambda pid, lat, members, ff: SilentByzantine(pid)],
        delay_model=delay_model,
        **kwargs,
    ).run()
    check = scenario.check_gla(require_all_inputs_decided=False)
    decided = sum(1 for decs in scenario.decisions().values() if decs)
    last = max((record.time for record in scenario.metrics.decisions), default=0.0)
    print(f"{name:<28} decided {decided}/{len(scenario.correct_pids)}   "
          f"last decision at t={last:7.1f}   comparability {'OK' if check.ok else 'VIOLATED'}")
    return check.ok, decided == len(scenario.correct_pids), last


def main() -> int:
    plan = churn_plan()
    print(f"fault script: {plan.describe()}")
    for action in plan.actions:
        detail = ""
        if action.pid is not None:
            detail = str(action.pid)
        elif action.groups:
            detail = "  |  ".join(
                ",".join(sorted(map(str, group))) for group in action.groups
            )
        print(f"  t={action.at:5.1f}  {action.kind:<9} {detail}")
    print()

    ok_calm, live_calm, t_calm = run("calm (no faults)")
    ok_churn, live_churn, t_churn = run("partition + crash churn", fault_plan=churn_plan())
    ok_worst, live_worst, t_worst = run(
        "churn + worst-case schedule",
        fault_plan=churn_plan(),
        delay_model=SkewedPairDelay(victims=["p0"], base=FixedDelay(1.0), slow_delay=40.0),
    )

    all_safe = ok_calm and ok_churn and ok_worst
    all_live = live_calm and live_churn and live_worst
    delayed_not_prevented = t_calm < t_churn < t_worst and all_live
    print()
    print(f"GLA comparability held in every configuration: {all_safe}")
    print(f"churn and adversarial schedule delayed but never prevented decisions: "
          f"{delayed_not_prevented}")
    return 0 if (all_safe and delayed_not_prevented) else 1


if __name__ == "__main__":
    sys.exit(main())
