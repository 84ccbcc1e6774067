"""Smoke + shape tests for the experiment runners E1-E10 (quick settings)."""


from repro.harness import (
    EXPERIMENT_SPECS,
    run_baseline_comparison,
    run_breadth_experiment,
    run_chain_experiment,
    run_resilience_experiment,
    run_rsm_experiment,
    run_sbs_experiment,
    run_wts_latency_experiment,
    run_wts_messages_experiment,
)


class TestRegistry:
    def test_all_experiments_registered(self):
        visible = {spec.id for spec in EXPERIMENT_SPECS.values() if not spec.hidden}
        assert visible == {f"E{i}" for i in range(1, 14)}

    def test_every_outcome_has_table_and_expected(self):
        outcome = run_chain_experiment(quick=True)
        assert "table" in outcome and "expected" in outcome and "experiment" in outcome


class TestShapes:
    def test_e1_chain(self):
        outcome = run_chain_experiment(quick=True)
        assert outcome["is_chain"]
        assert outcome["check"].ok

    def test_e2_resilience_shape(self):
        outcome = run_resilience_experiment(quick=True)
        small_wts, small_crash, big_wts = outcome["outcomes"]
        assert small_wts["safety_ok"] and not small_wts["live"]
        assert small_crash["live"] and not small_crash["safety_ok"]
        assert big_wts["safety_ok"] and big_wts["live"]

    def test_e3_latency_within_bound(self):
        outcome = run_wts_latency_experiment(quick=True)
        for f, measured in outcome["series"].items():
            assert measured <= 2 * f + 5

    def test_e4_quadratic_shape(self):
        outcome = run_wts_messages_experiment(sizes=(4, 7, 10), quick=True)
        assert 1.5 <= outcome["fit_order"] <= 3.0

    def test_e5_linear_shape_and_latency(self):
        outcome = run_sbs_experiment(sizes=(4, 7, 10), quick=True)
        assert 0.7 <= outcome["fit_order"] <= 1.5
        for _f, _n, measured, bound in outcome["latency_rows"]:
            assert float(measured) <= bound

    def test_e8_rsm_properties(self):
        outcome = run_rsm_experiment(quick=True)
        assert outcome["check"].ok

    def test_e9_breadth_contrast(self):
        outcome = run_breadth_experiment(breadths=(2, 4, 6), quick=True)
        for row in outcome["outcomes"]:
            assert row["our_spec_ok"]
        assert any(not row["restricted_feasible"] for row in outcome["outcomes"])

    def test_e10_overhead_positive(self):
        outcome = run_baseline_comparison(sizes=(4, 7), quick=True)
        for n, wts in outcome["wts_series"].items():
            assert wts > outcome["crash_series"][n]


class TestWallLatency:
    """Every runner reports ``wall_latency``: a tail-latency histogram on
    wall-clock backends, ``None`` where time is simulated."""

    def test_simulated_backends_report_none(self):
        assert run_chain_experiment(quick=True)["wall_latency"] is None
        assert run_wts_latency_experiment(quick=True)["wall_latency"] is None

    def test_wall_clock_backend_reports_a_histogram(self):
        outcome = run_chain_experiment(quick=True, backend="async")
        summary = outcome["wall_latency"]
        assert summary is not None and summary["count"] >= 1
        assert 0.0 <= summary["p50"] <= summary["p95"] <= summary["p99"] <= summary["max"]

    def test_multi_run_experiments_pool_conservatively(self):
        outcome = run_wts_latency_experiment(quick=True, backend="async")
        summary = outcome["wall_latency"]
        # The quick sweep runs f=0..2: several scenarios pooled.
        assert summary is not None and summary["count"] > 1
        assert summary["max"] >= summary["p99"] >= summary["p50"] >= 0.0
