"""Determinism: identical seeds produce identical traces; different seeds differ."""


from repro.harness import build_scenario


def trace_signature(scenario):
    return [
        (env.sender, env.dest, env.mtype, round(env.deliver_time, 6))
        for env in scenario.engine.delivery_log
    ]


class TestDeterminism:
    def test_wts_same_seed_same_trace(self):
        a = build_scenario("wts", 4, 1, seed=99).run()
        b = build_scenario("wts", 4, 1, seed=99).run()
        assert trace_signature(a) == trace_signature(b)
        assert a.decisions() == b.decisions()
        assert a.metrics.summary() == b.metrics.summary()

    def test_wts_different_seed_different_trace(self):
        a = build_scenario("wts", 4, 1, seed=1).run()
        b = build_scenario("wts", 4, 1, seed=2).run()
        assert trace_signature(a) != trace_signature(b)

    def test_gwts_same_seed_same_decisions(self):
        a = build_scenario("gwts", 4, 1, values_per_process=1, rounds=2, seed=5).run()
        b = build_scenario("gwts", 4, 1, values_per_process=1, rounds=2, seed=5).run()
        assert a.decisions() == b.decisions()
        assert trace_signature(a) == trace_signature(b)
