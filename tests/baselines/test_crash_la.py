"""Tests for the crash-fault LA baseline: correct without Byzantines, broken with."""

import pytest

from repro.baselines import CrashLAProcess
from repro.byzantine import AlwaysAckAcceptor, SilentByzantine
from repro.core.messages import Ack
from repro.engine import Deliver, FixedDelay, SkewedPairDelay, Start
from repro.harness import build_scenario
from repro.lattice import SetLattice


class TestCrashFreeRuns:
    @pytest.mark.parametrize("n", [3, 4, 7])
    def test_properties_hold_without_failures(self, n):
        scenario = build_scenario("crash-la", n, (n - 1) // 3, seed=n).run()
        assert scenario.check_la().ok

    def test_tolerates_minority_of_silent_processes(self):
        """Crash tolerance: up to floor((n-1)/2) silent processes are fine."""
        scenario = build_scenario(
            "crash-la", 5, 2,
            byzantine_factories=[lambda pid, lat, m, f: SilentByzantine(pid)] * 2,
            seed=1,
        ).run()
        assert scenario.check_la().ok

    def test_cheaper_than_wts(self):
        crash = build_scenario("crash-la", 7, 2, seed=2, delay_model=FixedDelay(1.0)).run()
        wts = build_scenario("wts", 7, 2, seed=2, delay_model=FixedDelay(1.0)).run()
        assert (
            crash.metrics.mean_messages_per_process(crash.correct_pids)
            < wts.metrics.mean_messages_per_process(wts.correct_pids)
        )


class TestByzantineBreaksBaseline:
    def test_always_ack_plus_partition_violates_safety_at_3f(self):
        """The negative control behind Theorem 1 / experiment E2."""
        partition = SkewedPairDelay([("p0", "p1")], base=FixedDelay(1.0), slow_delay=10_000.0)
        scenario = build_scenario(
            "crash-la", 3, 1,
            byzantine_factories=[lambda pid, lat, m, f: AlwaysAckAcceptor(pid, lat, m, f)],
            delay_model=partition,
            seed=3,
            max_messages=5_000,
        ).run()
        check = scenario.check_la(require_liveness=False)
        assert not check.ok
        assert check.violated("comparability")

    def test_wts_resists_the_same_adversary(self):
        partition = SkewedPairDelay([("p0", "p1")], base=FixedDelay(1.0), slow_delay=50.0)
        scenario = build_scenario(
            "wts", 4, 1,
            byzantine_factories=[lambda pid, lat, m, f: AlwaysAckAcceptor(pid, lat, m, f)],
            delay_model=partition,
            seed=3,
        ).run()
        assert scenario.check_la().ok


class TestStructuralChecks:
    """The baseline drops structurally malformed sets, as WTS does."""

    def make(self):
        return CrashLAProcess("p0", SetLattice(), ["p0", "p1", "p2"], 1, proposal=frozenset({"v"}))

    def test_malformed_acks_do_not_count_toward_the_majority(self):
        process = self.make()
        process.handle(Start())
        process.handle(Deliver("p1", Ack(accepted_set=["junk"], ts=0)))
        process.handle(Deliver("p2", Ack(accepted_set=["junk"], ts=0)))
        assert not process.has_decided
        process.handle(Deliver("p1", Ack(accepted_set=frozenset({"v"}), ts=0)))
        process.handle(Deliver("p2", Ack(accepted_set=frozenset({"v"}), ts=0)))
        assert process.decisions == [frozenset({"v"})]

    def test_non_element_proposal_is_rejected(self):
        with pytest.raises(ValueError):
            CrashLAProcess("p0", SetLattice(), ["p0", "p1", "p2"], 1, proposal=["not-a-set"])
