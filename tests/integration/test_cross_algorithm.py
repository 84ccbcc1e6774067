"""Cross-algorithm integration tests: the same workload through every algorithm."""

import pytest

from repro.harness import build_scenario
from repro.lattice import SetLattice


PROPOSALS = {
    "p0": frozenset({"alpha"}),
    "p1": frozenset({"beta"}),
    "p2": frozenset({"gamma"}),
}


class TestSameWorkloadAllAlgorithms:
    @pytest.mark.parametrize("protocol", ["wts", "sbs", "crash-la"])
    def test_single_shot_algorithms_agree_on_the_spec(self, protocol):
        scenario = build_scenario(protocol, 4, 1, inputs=dict(PROPOSALS), seed=77).run()
        check = scenario.check_la()
        assert check.ok, f"{protocol}: {check}"
        union = frozenset({"alpha", "beta", "gamma"})
        for decs in scenario.decisions().values():
            assert decs[0] <= union

    @pytest.mark.parametrize("protocol", ["gwts", "gsbs", "crash-gla"])
    def test_generalized_algorithms_agree_on_the_spec(self, protocol):
        scenario = build_scenario(protocol, 4, 1, values_per_process=2, rounds=3, seed=78).run()
        check = scenario.check_gla()
        assert check.ok, f"{protocol}: {check}"

    def test_wts_and_sbs_decide_comparable_content_on_same_inputs(self):
        wts = build_scenario("wts", 4, 1, inputs=dict(PROPOSALS), seed=79).run()
        sbs = build_scenario("sbs", 4, 1, inputs=dict(PROPOSALS), seed=79).run()
        lattice = SetLattice()
        for decisions in (wts.decisions(), sbs.decisions()):
            for pid, proposal in PROPOSALS.items():
                assert lattice.leq(proposal, decisions[pid][0])

    def test_signature_variant_is_cheaper_in_messages(self):
        wts = build_scenario("wts", 10, 1, seed=80).run()
        sbs = build_scenario("sbs", 10, 1, seed=80).run()
        assert (
            sbs.metrics.mean_messages_per_process(sbs.correct_pids)
            < wts.metrics.mean_messages_per_process(wts.correct_pids)
        )

    def test_byzantine_algorithms_never_cheaper_than_crash_baseline(self):
        crash = build_scenario("crash-la", 7, 2, seed=81).run()
        wts = build_scenario("wts", 7, 2, seed=81).run()
        assert (
            wts.metrics.mean_messages_per_process(wts.correct_pids)
            >= crash.metrics.mean_messages_per_process(crash.correct_pids)
        )
