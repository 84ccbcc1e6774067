"""Unit tests for the pluggable scheduling policies."""

import pytest

from repro.engine import FixedDelay, UniformDelay
from repro.harness import build_scenario
from repro.sim import DelayModelScheduler, RandomScheduler, WorstCaseScheduler


class TestDelayModelScheduler:
    def test_wraps_model_and_defaults_to_uniform(self):
        assert isinstance(DelayModelScheduler().model, UniformDelay)
        assert "FixedDelay" in DelayModelScheduler(FixedDelay(1.0)).describe()

    def test_equivalent_to_passing_delay_model(self):
        plain = build_scenario("wts", 4, 1, seed=5, delay_model=UniformDelay(0.5, 2.0)).run()
        wrapped = build_scenario(
            "wts", 4, 1, seed=5, scheduler=DelayModelScheduler(UniformDelay(0.5, 2.0))
        ).run()
        assert [e.deliver_time for e in plain.engine.delivery_log] == [
            e.deliver_time for e in wrapped.engine.delivery_log
        ]
        assert plain.decisions() == wrapped.decisions()


class TestRandomScheduler:
    def test_rejects_nonpositive_spread(self):
        with pytest.raises(ValueError):
            RandomScheduler(spread=0.0)

    def test_deterministic_per_seed_and_safe(self):
        a = build_scenario("wts", 4, 1, seed=9, scheduler=RandomScheduler(spread=8.0)).run()
        b = build_scenario("wts", 4, 1, seed=9, scheduler=RandomScheduler(spread=8.0)).run()
        assert a.decisions() == b.decisions()
        assert a.check_la().ok
        assert [e.deliver_time for e in a.engine.delivery_log] == [
            e.deliver_time for e in b.engine.delivery_log
        ]


class TestWorstCaseScheduler:
    def test_starved_victim_delays_but_does_not_prevent_decisions(self):
        fast = build_scenario(
            "wts", 4, 1, seed=3, scheduler=WorstCaseScheduler(fast_delay=1.0)
        ).run()
        starved = build_scenario(
            "wts", 4, 1,
            seed=3,
            scheduler=WorstCaseScheduler(victims=["p0"], starve_delay=80.0, fast_delay=1.0),
        ).run()
        for scenario in (fast, starved):
            assert scenario.check_la().ok
            assert all(decs for decs in scenario.decisions().values())
        last = lambda s: max(r.time for r in s.metrics.decisions)  # noqa: E731
        assert last(starved) > last(fast)

    def test_starved_link_pairs(self):
        scheduler = WorstCaseScheduler(starved_links=[("p0", "p1")], starve_delay=50.0)
        # Run to quiescence so the starved messages (which the decisions do
        # not need — that is the point of the starvation) still get flushed
        # into the delivery log for inspection.
        scenario = build_scenario(
            "wts", 4, 1, seed=4, scheduler=scheduler, run_to_quiescence=True
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
            WorstCaseScheduler(starve_delay=0.0)
        with pytest.raises(ValueError):
            WorstCaseScheduler(fast_delay=-1.0)
