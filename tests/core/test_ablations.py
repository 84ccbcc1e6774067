"""Ablation tests: removing a WTS defence breaks exactly the targeted property.

These tests justify the paper's design choices experimentally (the "why do we
need the reliable broadcast / the wait-till-safe discipline" question) and act
as negative controls for the specification checkers.
"""

import pytest

from repro.byzantine import EquivocatingProposer, NackSpamAcceptor
from repro.core.ablations import NoDefencesWTSProcess, NoSafetyWTSProcess, PlainDisclosureWTSProcess
from repro.engine import UniformDelay
from repro.harness import build_scenario


def nack_spammer(pid, lat, members, f):
    return NackSpamAcceptor(pid, lat, members, f)


def equivocator(pid, lat, members, f):
    return EquivocatingProposer(
        pid, lat, members, f,
        value_a=frozenset({"eq-a"}), value_b=frozenset({"eq-b"}),
    )


def scan_seeds(process_class, adversary, judge, seeds=tuple(range(8))):
    """Return True if the attack succeeds on at least one scanned schedule."""
    for seed in seeds:
        scenario = build_scenario(
            "wts", 4, 1, seed=seed, byzantine_factories=[adversary],
            delay_model=UniformDelay(0.5, 2.0), max_messages=30_000,
            process_class=process_class, run_to_quiescence=True,
        ).run()
        if judge(scenario):
            return True
    return False


class TestAblations:
    def test_no_safety_ablation_breaks_non_triviality(self):
        assert scan_seeds(
            NoSafetyWTSProcess,
            nack_spammer,
            lambda s: s.check_la().violated("non_triviality"),
        )

    def test_plain_disclosure_ablation_breaks_liveness(self):
        assert scan_seeds(
            PlainDisclosureWTSProcess,
            equivocator,
            lambda s: s.check_la().violated("liveness"),
        )

    def test_no_defences_ablation_lets_more_than_f_byzantine_values_in(self):
        def judge(scenario):
            injected = set()
            for decs in scenario.decisions().values():
                for decision in decs:
                    injected |= set(decision) & {"eq-a", "eq-b"}
            return len(injected) > scenario.f

        assert scan_seeds(NoDefencesWTSProcess, equivocator, judge)

    @pytest.mark.parametrize("adversary", [nack_spammer, equivocator])
    def test_intact_wts_survives_both_attacks_on_the_same_schedules(self, adversary):
        for seed in range(8):
            scenario = build_scenario(
                "wts", 4, 1, seed=seed, byzantine_factories=[adversary],
                delay_model=UniformDelay(0.5, 2.0),
            ).run()
            assert scenario.check_la().ok

    def test_ablated_variants_still_work_without_byzantines(self):
        """The ablations only remove defences; failure-free runs still succeed."""
        for process_class in (NoSafetyWTSProcess, PlainDisclosureWTSProcess, NoDefencesWTSProcess):
            scenario = build_scenario("wts", 4, 1, seed=3, process_class=process_class).run()
            assert scenario.check_la().ok
