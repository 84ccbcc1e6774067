"""The invariant library judges clean and broken runs correctly."""

import pytest

from repro.byzantine.behaviors import EquivocatingProposer, NackSpamAcceptor, SilentByzantine
from repro.core.ablations import NoDefencesWTSProcess, NoSafetyWTSProcess
from repro.core.messages import ProvenValue
from repro.explore.invariants import (
    byzantine_value_bound_violations,
    check_scenario_invariants,
    gla_invariants,
    la_invariants,
    proof_invariants,
    rsm_invariants,
)
from repro.harness import build_scenario
from repro.rsm.crdt import GCounterObject


def equivocator(pid, lat, members, f, **kw):
    return EquivocatingProposer(
        pid, lat, members, f, value_a=frozenset({"eq-a"}), value_b=frozenset({"eq-b"})
    )


def nack_spammer(pid, lat, members, f, **kw):
    return NackSpamAcceptor(pid, lat, members, f)


class TestLAInvariants:
    def test_clean_run_has_no_violations(self):
        scenario = build_scenario("wts", 4, 1, seed=3).run()
        assert la_invariants(scenario) == {}

    def test_silent_byzantine_run_is_still_clean(self):
        scenario = build_scenario(
            "wts", 4, 1, seed=3,
            byzantine_factories=[lambda pid, lat, members, f: SilentByzantine(pid)],
        ).run()
        assert la_invariants(scenario) == {}

    def test_truncated_run_flags_liveness_unless_relaxed(self):
        # Stop immediately: nobody decides.
        scenario = build_scenario("wts", 4, 1, seed=3, max_messages=1).run()
        violations = la_invariants(scenario)
        assert "liveness" in violations
        assert "liveness" not in la_invariants(scenario, require_liveness=False)

    def test_no_safety_mutant_breaks_non_triviality(self):
        scenario = build_scenario(
            "wts", 4, 1, seed=910211,
            byzantine_factories=[nack_spammer],
            process_class=NoSafetyWTSProcess,
            run_to_quiescence=True,
            max_messages=30_000,
        ).run()
        assert "non_triviality" in la_invariants(scenario)

    def test_no_defences_mutant_breaks_byzantine_value_bound(self):
        # The double-equivocation attack of E11/A3: scan the same seed range
        # E11 uses — some schedule in it gets both values decided.
        hit = False
        for seed in range(31, 39):
            scenario = build_scenario(
                "wts", 4, 1, seed=seed,
                byzantine_factories=[equivocator],
                process_class=NoDefencesWTSProcess,
                run_to_quiescence=True,
                max_messages=30_000,
            ).run()
            if byzantine_value_bound_violations(scenario):
                hit = True
                violations = la_invariants(scenario)
                assert "byzantine_value_bound" in violations
                break
        assert hit, "no scanned schedule broke the |B| <= f bound"

    def test_intact_wts_respects_byzantine_value_bound(self):
        for seed in range(31, 35):
            scenario = build_scenario(
                "wts", 4, 1, seed=seed, byzantine_factories=[equivocator]
            ).run()
            assert byzantine_value_bound_violations(scenario) == []


class TestGLAInvariants:
    def test_clean_generalized_run(self):
        scenario = build_scenario("gwts", 4, 1, values_per_process=2, rounds=3, seed=9).run()
        assert gla_invariants(scenario) == {}

    def test_inclusivity_can_be_relaxed(self):
        # A truncated prefix cannot have included every queued value; the
        # relaxed mode keeps judging safety but drops the eventual property.
        scenario = build_scenario(
            "gwts", 4, 1, values_per_process=2, rounds=3, seed=9, max_messages=150
        ).run()
        violations = gla_invariants(scenario)
        assert "inclusivity" in violations
        relaxed = gla_invariants(scenario, require_inclusivity=False)
        assert "inclusivity" not in relaxed
        assert "liveness" in relaxed  # the non-eventual checks still apply


class TestRSMInvariants:
    def _scenario(self):
        counter = GCounterObject("hits")
        scripts = {"c0": [("update", counter.op_inc(1)), ("read",)]}
        return build_scenario("rsm", 4, 1, inputs=scripts, rounds=8, seed=5).run()

    def test_clean_rsm_run(self):
        assert rsm_invariants(self._scenario()) == {}

    def test_read_comparability_is_among_checked_invariants(self):
        scenario = self._scenario()
        # Poison a read result with a command nobody submitted: validity and
        # (against another read) comparability must trip.
        from repro.rsm.commands import make_command

        histories = scenario.extras["histories"]
        record = next(
            r for history in histories.values() for r in history if r.kind == "read"
        )
        record.result = frozenset({make_command("evil", 1, "fabricated")})
        violations = rsm_invariants(scenario)
        assert "read_validity" in violations


class TestDispatch:
    def test_kinds_route_to_the_right_checker(self):
        scenario = build_scenario("wts", 4, 1, seed=3).run()
        assert check_scenario_invariants(scenario, "la") == {}
        with pytest.raises(ValueError):
            check_scenario_invariants(scenario, "bogus")


class TestOneProofPerValue:
    @pytest.mark.parametrize("run", [
        lambda: build_scenario("sbs", 4, 1, seed=9).run(),
        lambda: build_scenario("gsbs", 4, 1, values_per_process=2, rounds=3, seed=0).run(),
    ], ids=["sbs", "gsbs"])
    def test_clean_run_reports_nothing(self, run):
        assert proof_invariants(run()) == {}

    def test_a_doctored_carrier_is_reported(self):
        scenario = build_scenario("sbs", 4, 1, seed=9).run()
        node = scenario.correct_nodes()[0]
        kept = next(iter(node.accepted_set))
        node.accepted_set = node.accepted_set | {ProvenValue(value=kept.value, safe_acks=frozenset())}
        violations = proof_invariants(scenario)
        assert list(violations) == ["one_proof_per_value"]
        assert violations["one_proof_per_value"] == [
            f"{node.pid}.accepted_set holds {len(node.accepted_set)} proofs of "
            f"{len(node.accepted_set) - 1} signed values"
        ]
