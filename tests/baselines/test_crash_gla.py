"""Tests for the crash-fault generalized LA baseline."""

import pytest

from repro.byzantine import SilentByzantine
from repro.harness import run_crash_gla_scenario, run_gwts_scenario


class TestCrashGLA:
    @pytest.mark.parametrize("rounds", [1, 2, 3])
    def test_properties_hold_without_failures(self, rounds):
        scenario = run_crash_gla_scenario(
            n=4, f=1, values_per_process=1, rounds=rounds, seed=rounds
        )
        assert scenario.check_gla().ok

    def test_one_decision_per_round(self):
        scenario = run_crash_gla_scenario(n=4, f=1, values_per_process=1, rounds=3, seed=1)
        for decisions in scenario.decisions().values():
            assert len(decisions) == 3

    def test_tolerates_silent_minority(self):
        scenario = run_crash_gla_scenario(
            n=4, f=1, values_per_process=1, rounds=2,
            byzantine_factories=[lambda pid, lat, m, f: SilentByzantine(pid)],
            seed=2,
        )
        assert scenario.check_gla().ok

    def test_cheaper_than_gwts(self):
        crash = run_crash_gla_scenario(n=4, f=1, values_per_process=1, rounds=2, seed=3)
        gwts = run_gwts_scenario(n=4, f=1, values_per_process=1, rounds=2, seed=3)
        assert (
            crash.metrics.mean_messages_per_process(crash.correct_pids)
            < gwts.metrics.mean_messages_per_process(gwts.correct_pids)
        )
