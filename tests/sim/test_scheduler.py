"""Unit tests for the delay models behind the ``random`` and ``worst-case`` axes."""

import pytest

from repro.engine import FixedDelay, SkewedPairDelay, UniformDelay
from repro.harness import build_scenario
from repro.sim.axes import parse_scheduler


class TestDefaultDelayModel:
    def test_equivalent_to_passing_delay_model(self):
        default = build_scenario("wts", 4, 1, seed=5).run()
        explicit = build_scenario("wts", 4, 1, seed=5, delay_model=UniformDelay(0.5, 2.0)).run()
        assert [e.deliver_time for e in default.engine.delivery_log] == [
            e.deliver_time for e in explicit.engine.delivery_log
        ]
        assert default.decisions() == explicit.decisions()


class TestRandomSchedule:
    def test_rejects_nonpositive_spread(self):
        with pytest.raises(ValueError):
            parse_scheduler("random:spread=0")

    def test_deterministic_per_seed_and_safe(self):
        a = build_scenario("wts", 4, 1, seed=9, delay_model=UniformDelay(0.0, 8.0)).run()
        b = build_scenario("wts", 4, 1, seed=9, delay_model=UniformDelay(0.0, 8.0)).run()
        # The axis overrides the builder's own delay model with the same policy.
        axis = build_scenario("wts", 4, 1, seed=9, delay_model=FixedDelay(1.0), scheduler="random:spread=8").run()
        assert a.decisions() == b.decisions() == axis.decisions()
        assert a.check_la().ok
        assert [e.deliver_time for e in a.engine.delivery_log] == [
            e.deliver_time for e in b.engine.delivery_log
        ] == [e.deliver_time for e in axis.engine.delivery_log]


class TestWorstCaseSchedule:
    def test_starved_victim_delays_but_does_not_prevent_decisions(self):
        fast = build_scenario("wts", 4, 1, seed=3, delay_model=SkewedPairDelay(base=FixedDelay(1.0))).run()
        starved = build_scenario(
            "wts", 4, 1,
            seed=3,
            delay_model=SkewedPairDelay(victims=["p0"], base=FixedDelay(1.0), slow_delay=80.0),
        ).run()
        for scenario in (fast, starved):
            assert scenario.check_la().ok
            assert all(decs for decs in scenario.decisions().values())
        last = lambda s: max(r.time for r in s.metrics.decisions)  # noqa: E731
        assert last(starved) > last(fast)

    def test_starved_link_pairs(self):
        model = SkewedPairDelay([("p0", "p1")], base=FixedDelay(0.5), slow_delay=50.0)
        # Run to quiescence so the starved messages (which the decisions do
        # not need — that is the point of the starvation) still get flushed
        # into the delivery log for inspection.
        scenario = build_scenario(
            "wts", 4, 1, seed=4, delay_model=model, run_to_quiescence=True
        ).run()
        assert scenario.check_la().ok
        slow = [
            e
            for e in scenario.engine.delivery_log
            if {e.sender, e.dest} == {"p0", "p1"}
        ]
        assert slow and all(e.deliver_time - e.send_time >= 50.0 for e in slow)

    def test_rejects_nonpositive_delays(self):
        with pytest.raises(ValueError):
            SkewedPairDelay(victims=["p0"], slow_delay=0.0)
        with pytest.raises(ValueError):
            SkewedPairDelay.quorum_critical(["p0", "p1"], f=0, fast_delay=0.0)
