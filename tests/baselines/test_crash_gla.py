"""Tests for the crash-fault generalized LA baseline."""

import pytest

from repro.byzantine import SilentByzantine
from repro.harness import build_scenario


class TestCrashGLA:
    @pytest.mark.parametrize("rounds", [1, 2, 3])
    def test_properties_hold_without_failures(self, rounds):
        scenario = build_scenario(
            "crash-gla", 4, 1, values_per_process=1, rounds=rounds, seed=rounds
        ).run()
        assert scenario.check_gla().ok

    def test_one_decision_per_round(self):
        scenario = build_scenario("crash-gla", 4, 1, values_per_process=1, rounds=3, seed=1).run()
        for decisions in scenario.decisions().values():
            assert len(decisions) == 3

    def test_tolerates_silent_minority(self):
        scenario = build_scenario(
            "crash-gla", 4, 1, values_per_process=1, rounds=2,
            byzantine_factories=[lambda pid, lat, m, f: SilentByzantine(pid)],
            seed=2,
        ).run()
        assert scenario.check_gla().ok

    def test_cheaper_than_gwts(self):
        crash = build_scenario("crash-gla", 4, 1, values_per_process=1, rounds=2, seed=3).run()
        gwts = build_scenario("gwts", 4, 1, values_per_process=1, rounds=2, seed=3).run()
        assert (
            crash.metrics.mean_messages_per_process(crash.correct_pids)
            < gwts.metrics.mean_messages_per_process(gwts.correct_pids)
        )
