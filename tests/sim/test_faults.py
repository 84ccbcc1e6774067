"""Unit tests for the declarative FaultPlan API."""

import pytest

from repro.engine import FixedDelay
from repro.harness import build_scenario
from repro.sim import FaultPlan


class TestBuilder:
    def test_chainable_and_counts(self):
        plan = (
            FaultPlan()
            .partition(["p0", "p1"], ["p2", "p3"], at=1.0, heal_at=5.0)
            .crash("p1", at=6.0, recover_at=8.0)
            .inject(9.0, lambda net: None)
        )
        assert len(plan) == 5  # partition, heal, crash, recover, inject
        assert "crash" in plan.describe() and "partition" in plan.describe()

    def test_partition_needs_two_groups(self):
        with pytest.raises(ValueError):
            FaultPlan().partition(["p0"], at=1.0)

    def test_overlapping_partition_groups_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            FaultPlan().partition(["p0", "p1"], ["p1", "p2"], at=1.0)

    def test_empty_partition_group_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            FaultPlan().partition(["p0", "p1"], [], at=1.0)

    def test_inverted_recover_and_heal_intervals_rejected(self):
        with pytest.raises(ValueError, match="after the crash"):
            FaultPlan().crash("p0", at=10.0, recover_at=5.0)
        with pytest.raises(ValueError, match="after the partition"):
            FaultPlan().partition(["p0"], ["p1"], at=10.0, heal_at=10.0)

    def test_invalid_times_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan().crash("p0", at=-1.0)
        with pytest.raises(ValueError):
            FaultPlan().heal(at=float("inf"))

    def test_unknown_pid_rejected_at_apply(self):
        plan = FaultPlan().crash("ghost", at=1.0)
        with pytest.raises(ValueError):
            build_scenario("wts", 4, 1, seed=0, fault_plan=plan).run()


class TestScriptedScenarios:
    def test_wts_survives_crash_recover_cycle(self):
        plan = FaultPlan().crash("p0", at=1.0, recover_at=40.0)
        scenario = build_scenario(
            "wts", 4, 1, seed=2, delay_model=FixedDelay(1.0), fault_plan=plan
        ).run()
        check = scenario.check_la()
        assert check.ok, check
        # The crashed-then-recovered process decides after its recovery.
        p0_decisions = scenario.metrics.decisions_of("p0")
        assert p0_decisions and p0_decisions[0].time >= 40.0

    def test_gwts_survives_partition_and_churn(self):
        plan = (
            FaultPlan()
            .partition(["p0", "p1"], ["p2", "p3"], at=2.0, heal_at=15.0)
            .crash("p1", at=16.0, recover_at=25.0)
        )
        scenario = build_scenario(
            "gwts", 4, 1,
            values_per_process=1,
            rounds=3,
            seed=6,
            delay_model=FixedDelay(1.0),
            fault_plan=plan,
        ).run()
        check = scenario.check_gla(require_all_inputs_decided=False)
        assert check.ok, check
        assert all(decs for decs in scenario.decisions().values())

    def test_same_plan_same_seed_is_deterministic(self):
        plan = lambda: FaultPlan().partition(  # noqa: E731
            ["p0", "p1"], ["p2", "p3"], at=2.0, heal_at=12.0
        ).crash("p2", at=13.0, recover_at=18.0)
        a = build_scenario("wts", 4, 1, seed=8, fault_plan=plan()).run()
        b = build_scenario("wts", 4, 1, seed=8, fault_plan=plan()).run()
        assert a.decisions() == b.decisions()
        assert [
            (e.sender, e.dest, e.mtype, e.deliver_time) for e in a.engine.delivery_log
        ] == [(e.sender, e.dest, e.mtype, e.deliver_time) for e in b.engine.delivery_log]
