"""Tests for the GWTS algorithm (Algorithms 3 and 4) without Byzantine faults."""

import pytest

from repro.broadcast.reliable import RBEcho, RBInit, RBReady
from repro.core.gwts import GWTSProcess, request_token
from repro.core.messages import RoundAck, RoundAckRequest
from repro.core.process import HALTED
from repro.engine import Deliver, FixedDelay, Start
from repro.harness import build_scenario
from repro.lattice import SetLattice


class TestFailureFreeRuns:
    @pytest.mark.parametrize("n,rounds", [(4, 2), (4, 4), (7, 3)])
    def test_gla_properties_hold(self, n, rounds):
        f = (n - 1) // 3
        scenario = build_scenario("gwts", n, f, values_per_process=2, rounds=rounds, seed=n + rounds).run()
        check = scenario.check_gla()
        assert check.ok, str(check)

    def test_one_decision_per_round(self):
        rounds = 3
        scenario = build_scenario("gwts", 4, 1, values_per_process=1, rounds=rounds, seed=1).run()
        for decisions in scenario.decisions().values():
            assert len(decisions) == rounds

    def test_decisions_are_non_decreasing_per_process(self):
        scenario = build_scenario("gwts", 4, 1, values_per_process=2, rounds=4, seed=2).run()
        for decisions in scenario.decisions().values():
            for earlier, later in zip(decisions, decisions[1:], strict=False):
                assert earlier <= later

    def test_decisions_comparable_across_processes(self):
        scenario = build_scenario("gwts", 7, 2, values_per_process=1, rounds=3, seed=3).run()
        all_decisions = [d for decs in scenario.decisions().values() for d in decs]
        for a in all_decisions:
            for b in all_decisions:
                assert a <= b or b <= a

    def test_every_input_eventually_decided(self):
        scenario = build_scenario("gwts", 4, 1, values_per_process=3, rounds=5, seed=4).run()
        for pid, inputs in scenario.inputs().items():
            final = scenario.decisions()[pid][-1]
            for value in inputs:
                assert value <= final

    def test_all_processes_halt_after_max_rounds(self):
        scenario = build_scenario("gwts", 4, 1, values_per_process=1, rounds=2, seed=5).run()
        for node in scenario.correct_nodes():
            assert node.state == HALTED
            assert node.round == 1  # rounds 0 and 1 executed

    def test_empty_batches_still_produce_decisions(self):
        """Rounds with no new values still terminate (decisions may repeat)."""
        inputs = {f"p{i}": [] for i in range(4)}
        scenario = build_scenario("gwts", 4, 1, inputs=inputs, rounds=2, seed=6).run()
        for decisions in scenario.decisions().values():
            assert len(decisions) == 2

    def test_values_injected_mid_run_are_included(self):
        """new_value() called while the simulation is running (via a later batch)."""
        scenario = build_scenario("gwts", 4, 1, values_per_process=1, rounds=4, seed=7).run()
        # The workload queues values before the run; additionally verify the
        # received_inputs bookkeeping matches what the checker uses.
        for node in scenario.correct_nodes():
            assert node.received_inputs
            assert set(node.received_inputs) <= set(node.batches[0])

    def test_refinements_bounded(self):
        """Lemma 10: at most f refinements per round per correct proposer."""
        scenario = build_scenario("gwts", 7, 2, values_per_process=2, rounds=3, seed=8).run()
        for node in scenario.correct_nodes():
            for count in node.refinements_by_round.values():
                assert count <= 2 + 1  # f plus slack for the empty-batch round

    def test_safe_round_advances_with_rounds(self):
        scenario = build_scenario("gwts", 4, 1, values_per_process=1, rounds=3, seed=9).run()
        for node in scenario.correct_nodes():
            assert node.safe_round >= 2

    def test_unit_delay_run_has_bounded_latency_per_round(self):
        rounds = 3
        scenario = build_scenario(
            "gwts", 4, 1, values_per_process=1, rounds=rounds, seed=10, delay_model=FixedDelay(1.0)
        ).run()
        # Every round is a WTS round plus the reliably broadcast acks: the
        # whole 3-round run must finish within a small constant per round.
        last = max(r.time for r in scenario.metrics.decisions)
        assert last <= rounds * 12


class TestProcessInternals:
    def test_new_value_goes_to_next_batch(self):
        process = GWTSProcess("p0", SetLattice(), ["p0", "p1", "p2", "p3"], 1)
        process.new_value(frozenset({"a"}))
        assert process.batches[0] == [frozenset({"a"})]
        process.round = 2
        process.new_value(frozenset({"b"}))
        assert process.batches[3] == [frozenset({"b"})]

    def test_initial_values_constructor_argument(self):
        process = GWTSProcess(
            "p0", SetLattice(), ["p0", "p1", "p2", "p3"], 1,
            initial_values=[frozenset({"x"})],
        )
        assert process.received_inputs == [frozenset({"x"})]


class CountingGWTS(GWTSProcess):
    """Counts guard evaluations (``try_progress`` calls)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.progress_calls = 0

    def try_progress(self):
        self.progress_calls += 1
        return super().try_progress()


def deliver_reliably(process, origin, tag, value, senders=("p1", "p2", "p3")):
    """The ``2f + 1`` readies that make ``process`` deliver ``(origin, tag)``; the last call's effects."""
    effects = []
    for sender in senders:
        effects = process.handle(Deliver(sender, RBReady(origin=origin, tag=tag, value=value)))
    return effects


class TestUponEvent:
    """Guards run only when a delivery or a direct message can change them."""

    MEMBERS = ["p0", "p1", "p2", "p3"]
    FUTURE_REQUEST = RoundAckRequest(proposed_set=frozenset(), ts=1, round=1)

    def started(self):
        process = CountingGWTS("p0", SetLattice(), self.MEMBERS, 1, max_rounds=3)
        process.handle(Start())
        assert process.round == 0
        # A request for round 1 waits until round 0 has a committed proposal.
        process.handle(Deliver("p1", self.FUTURE_REQUEST))
        assert process.waiting_msgs == [("p1", self.FUTURE_REQUEST)]
        process.progress_calls = 0
        return process

    def test_broadcast_traffic_that_delivers_nothing_runs_no_guard(self):
        process = self.started()
        waiting = process.waiting_msgs
        tag, value = ("disclosure", 0), frozenset({"b"})
        process.handle(Deliver("p1", RBInit(origin="p1", tag=tag, value=value)))
        for sender in ("p1", "p2", "p3"):
            process.handle(Deliver(sender, RBEcho(origin="p1", tag=tag, value=value)))
        for sender in ("p1", "p2"):
            process.handle(Deliver(sender, RBReady(origin="p1", tag=tag, value=value)))
        assert process.counter[0] == 0
        assert process.progress_calls == 0
        assert process.waiting_msgs is waiting

    def test_the_message_that_completes_a_delivery_runs_the_guards(self):
        process = self.started()
        deliver_reliably(process, "p1", ("disclosure", 0), frozenset({"b"}))
        assert process.svs[0] == {"p1": frozenset({"b"})}
        assert process.progress_calls > 0
        assert process.waiting_msgs == [("p1", self.FUTURE_REQUEST)]

    def test_the_delivery_that_commits_a_round_serves_requests_buffered_for_the_next(self):
        process = self.started()
        # The acks name p1's round-0 request, which reached p0 first.
        request = RoundAckRequest(proposed_set=frozenset(), ts=1, round=0)
        process.handle(Deliver("p1", request))
        for origin in ("p1", "p2", "p3"):
            ack = RoundAck(proposal=request_token(request), destination="p1", sender=origin, ts=1, round=0)
            effects = deliver_reliably(process, origin, ("ack", 0, 1, "p1"), ack)
        assert process.safe_round == 1
        assert process.waiting_msgs == []
        acks = [effect.payload for effect in effects if isinstance(effect.payload, RBInit)]
        assert [init.tag for init in acks] == [("ack", 1, 1, "p1")]
