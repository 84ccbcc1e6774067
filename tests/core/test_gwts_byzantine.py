"""GWTS under Byzantine behaviours: round clogging, equivocation, silence."""

import pytest

from repro.byzantine import EquivocatingGWTSProposer, FastForwardGWTS, SilentByzantine
from repro.harness import build_scenario


def silent(pid, lat, members, f):
    return SilentByzantine(pid)


def fast_forward(pid, lat, members, f):
    return FastForwardGWTS(
        pid, lat, members, rounds_ahead=8,
        values=[frozenset({f"clog-{pid}-{k}"}) for k in range(2)],
    )


def equivocator(pid, lat, members, f):
    return EquivocatingGWTSProposer(
        pid, lat, members, f, max_rounds=3,
        equivocation_pool=[frozenset({f"eq-{pid}-a"}), frozenset({f"eq-{pid}-b"})],
    )


BEHAVIOURS = {"silent": silent, "fast_forward": fast_forward, "equivocator": equivocator}


class TestByzantineGWTS:
    @pytest.mark.parametrize("name", sorted(BEHAVIOURS))
    def test_gla_properties_hold_with_one_byzantine(self, name):
        scenario = build_scenario(
            "gwts", 4, 1, values_per_process=2, rounds=4,
            byzantine_factories=[BEHAVIOURS[name]], seed=21,
        ).run()
        check = scenario.check_gla()
        assert check.ok, f"{name}: {check}"

    @pytest.mark.parametrize("name", sorted(BEHAVIOURS))
    def test_gla_properties_hold_with_two_byzantines_n7(self, name):
        scenario = build_scenario(
            "gwts", 7, 2, values_per_process=1, rounds=3,
            byzantine_factories=[BEHAVIOURS[name], silent], seed=22,
        ).run()
        check = scenario.check_gla()
        assert check.ok, f"{name}: {check}"

    def test_fast_forward_cannot_starve_correct_proposers(self):
        """The round-clogging adversary of Section 6.2: correct processes keep
        deciding and every correct input is eventually included."""
        scenario = build_scenario(
            "gwts", 4, 1, values_per_process=2, rounds=5,
            byzantine_factories=[fast_forward], seed=23,
        ).run()
        for pid, decisions in scenario.decisions().items():
            assert len(decisions) == 5
            final = decisions[-1]
            for value in scenario.inputs()[pid]:
                assert value <= final

    def test_byzantine_values_per_round_bounded(self):
        """Observation 3 / Non-Triviality: at most one disclosure per origin
        per round enters any correct process's safe set."""
        scenario = build_scenario(
            "gwts", 4, 1, values_per_process=1, rounds=3,
            byzantine_factories=[fast_forward], seed=24,
        ).run()
        for node in scenario.correct_nodes():
            for per_origin in node.svs.values():
                byz_entries = [o for o in per_origin if o in scenario.byzantine_pids]
                assert len(byz_entries) <= 1

    def test_silent_byzantine_does_not_block_rounds(self):
        scenario = build_scenario(
            "gwts", 4, 1, values_per_process=1, rounds=3,
            byzantine_factories=[silent], seed=25,
        ).run()
        for decisions in scenario.decisions().values():
            assert len(decisions) == 3
