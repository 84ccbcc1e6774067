"""Tests for the WTS algorithm (Algorithms 1 and 2) without Byzantine faults."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broadcast.reliable import RBEcho, RBInit, RBReady
from repro.byzantine import EquivocatingProposer, GarbageProposer
from repro.core.messages import AckRequest
from repro.core.wts import DECIDED, DISCLOSURE_TAG, WTSProcess
from repro.engine import Deliver, FixedDelay, Start, UniformDelay
from repro.harness import build_scenario
from repro.lattice import GCounterLattice, MaxIntLattice, SetLattice


class TestFailureFreeRuns:
    @pytest.mark.parametrize("n", [1, 2, 4, 7, 10])
    def test_all_decide_and_properties_hold(self, n):
        f = (n - 1) // 3
        scenario = build_scenario("wts", n, f, seed=n).run()
        assert scenario.check_la().ok
        for node in scenario.correct_nodes():
            assert node.state == DECIDED

    def test_every_decision_contains_own_proposal(self):
        scenario = build_scenario("wts", 4, 1, seed=1).run()
        for pid, proposal in scenario.proposals().items():
            decision = scenario.decisions()[pid][0]
            assert proposal <= decision

    def test_decisions_within_join_of_proposals(self):
        scenario = build_scenario("wts", 7, 2, seed=2).run()
        everything = frozenset().union(*scenario.proposals().values())
        for decs in scenario.decisions().values():
            assert decs[0] <= everything

    def test_identical_proposals_decide_immediately_on_that_value(self):
        proposals = {f"p{i}": frozenset({"same"}) for i in range(4)}
        scenario = build_scenario("wts", 4, 1, inputs=proposals, seed=3).run()
        for decs in scenario.decisions().values():
            assert decs[0] == frozenset({"same"})

    def test_f_zero_single_process(self):
        scenario = build_scenario("wts", 1, 0, inputs={"p0": frozenset({"solo"})}, seed=0).run()
        assert scenario.decisions()["p0"] == [frozenset({"solo"})]

    def test_refinements_bounded_by_f_plus_slack(self):
        """Lemma 3: each proposer refines its proposal at most f times."""
        for seed in range(5):
            scenario = build_scenario("wts", 7, 2, seed=seed).run()
            for node in scenario.correct_nodes():
                assert node.refinements <= 2

    def test_latency_bound_under_unit_delays(self):
        """Theorem 3: at most 2f + 5 message delays with unit-delay links."""
        for f in (0, 1, 2):
            n = 3 * f + 1
            scenario = build_scenario("wts", n, f, seed=f, delay_model=FixedDelay(1.0)).run()
            decision_time = max(r.time for r in scenario.metrics.decisions)
            assert decision_time <= 2 * f + 5

    def test_works_on_non_set_lattices(self):
        lattice = MaxIntLattice()
        proposals = {"p0": 3, "p1": 10, "p2": 6}
        scenario = build_scenario("wts", 4, 1, lattice=lattice, inputs=proposals, seed=4).run()
        assert scenario.check_la().ok
        for decs in scenario.decisions().values():
            assert decs[0] >= 1

    def test_works_on_gcounter_lattice(self):
        lattice = GCounterLattice()
        proposals = {
            "p0": lattice.lift({"p0": 3}),
            "p1": lattice.lift({"p1": 5}),
            "p2": lattice.lift({"p2": 1}),
        }
        scenario = build_scenario("wts", 4, 1, lattice=lattice, inputs=proposals, seed=5).run()
        assert scenario.check_la().ok

    def test_message_complexity_dominated_by_reliable_broadcast(self):
        scenario = build_scenario("wts", 7, 2, seed=6).run()
        by_type = scenario.metrics.sent_by_type
        rb_messages = by_type["rb_init"] + by_type["rb_echo"] + by_type["rb_ready"]
        other = by_type.get("ack_req", 0) + by_type.get("ack", 0) + by_type.get("nack", 0)
        assert rb_messages > other

    def test_stop_condition_leaves_no_correct_process_undecided(self):
        scenario = build_scenario("wts", 10, 3, seed=7, delay_model=UniformDelay(0.1, 4.0)).run()
        assert all(decs for decs in scenario.decisions().values())


class TestProcessInternals:
    def test_invalid_proposal_rejected(self):
        with pytest.raises(ValueError):
            WTSProcess("p0", SetLattice(), ["p0", "p1"], 0, proposal="not-a-set")

    def test_default_proposal_is_bottom(self):
        process = WTSProcess("p0", SetLattice(), ["p0", "p1", "p2", "p3"], 1)
        assert process.proposal == frozenset()

    def test_safe_predicate_tracks_svs(self):
        lattice = SetLattice()
        process = WTSProcess("p0", lattice, ["p0", "p1", "p2", "p3"], 1,
                             proposal=frozenset({"a"}))
        assert not process.is_safe(frozenset({"a"}))
        process._on_rb_deliver("p0", DISCLOSURE_TAG, frozenset({"a"}))
        assert process.is_safe(frozenset({"a"}))
        assert not process.is_safe(frozenset({"a", "b"}))

    def test_initial_state(self):
        process = WTSProcess("p0", SetLattice(), ["p0", "p1", "p2", "p3"], 1)
        assert process.state == "disclosing"
        assert process.ts == 0
        assert process.init_counter == 0


class CountingWTS(WTSProcess):
    """Counts guard evaluations (``try_progress`` calls)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.progress_calls = 0

    def try_progress(self):
        self.progress_calls += 1
        return super().try_progress()


class TestUponEvent:
    """Guards run only when a delivery or a direct message can change them."""

    MEMBERS = ["p0", "p1", "p2", "p3"]

    def started(self):
        process = CountingWTS("p0", SetLattice(), self.MEMBERS, 1, proposal=frozenset({"a"}))
        process.handle(Start())
        # An ack request for a value nobody disclosed yet waits in the buffer.
        process.handle(Deliver("p1", AckRequest(proposed_set=frozenset({"b"}), ts=0)))
        assert process.waiting_msgs == [("p1", AckRequest(proposed_set=frozenset({"b"}), ts=0))]
        process.progress_calls = 0
        return process

    def test_broadcast_traffic_that_delivers_nothing_runs_no_guard(self):
        process = self.started()
        waiting = process.waiting_msgs
        value = frozenset({"b"})
        process.handle(Deliver("p1", RBInit(origin="p1", tag=DISCLOSURE_TAG, value=value)))
        for sender in ("p1", "p2", "p3"):
            process.handle(Deliver(sender, RBEcho(origin="p1", tag=DISCLOSURE_TAG, value=value)))
        # f + 1 = 2 readies make p0 send its own ready, but delivery needs 2f + 1 = 3.
        for sender in ("p1", "p2"):
            process.handle(Deliver(sender, RBReady(origin="p1", tag=DISCLOSURE_TAG, value=value)))
        assert process.svs == {}
        assert process.progress_calls == 0
        assert process.waiting_msgs is waiting

    def test_the_message_that_completes_a_delivery_runs_the_guards(self):
        process = self.started()
        value = frozenset({"b"})
        for sender in ("p1", "p2", "p3"):
            process.handle(Deliver(sender, RBReady(origin="p1", tag=DISCLOSURE_TAG, value=value)))
        assert process.svs == {"p1": value}
        assert process.progress_calls > 0
        # The delivery made the buffered request safe, and it was served.
        assert process.waiting_msgs == []
        assert process.accepted_set == value


class BoundCheckingWTS(WTSProcess):
    """Compares the incremental safe bound with a fresh join of ``SvS`` after every delivery."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.bound_checks: list[bool] = []

    def _on_rb_deliver(self, origin, tag, value):
        super()._on_rb_deliver(origin, tag, value)
        self.bound_checks.append(self.safe_upper_bound() == self.lattice.join_all(self.svs.values()))


class TestIncrementalSafeBound:
    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.sampled_from([7, 8, 10]),
        counter=st.booleans(),
        amounts=st.lists(st.integers(0, 5), min_size=10, max_size=10),
    )
    def test_bound_equals_join_of_svs_after_every_delivery(self, seed, n, counter, amounts):
        f = (n - 1) // 3
        lattice = GCounterLattice() if counter else SetLattice()

        def value(pid, k):
            return lattice.lift({pid: k}) if counter else frozenset({f"{pid}-{k}"})

        def equivocator(pid, lat, members, f):
            return EquivocatingProposer(pid, lat, members, f, value_a=value(pid, 1), value_b=value(pid, 2))

        def garbage(pid, lat, members, f):
            return GarbageProposer(pid, lat, members, f, garbage="not-a-lattice-element")

        inputs = {f"p{index}": value(f"p{index}", amounts[index]) for index in range(n - 2)}
        scenario = build_scenario(
            "wts",
            n,
            f,
            inputs=inputs,
            lattice=lattice,
            byzantine_factories=[equivocator, garbage],
            process_class=BoundCheckingWTS,
            seed=seed,
        )
        result = scenario.run()
        assert result.check_la().ok
        for pid in scenario.correct_pids:
            checks = scenario.nodes[pid].bound_checks
            assert checks and all(checks)
