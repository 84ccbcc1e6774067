"""Tests for the scenario path: the registry, build_scenario and the open-loop generator."""

import pytest

from repro.byzantine import SilentByzantine
from repro.explore.scenarios import _DEFAULT_MENUS, PROTOCOL_BEHAVIOURS, PROTOCOL_KINDS
from repro.harness import PROTOCOLS, build_scenario, member_pids, run_open_loop_scenario
from repro.harness.workloads import default_proposals, make_gla_inputs
from repro.lattice import SetLattice

_SCRIPTS = {"c0": [("update", ("obj-a", 1)), ("read",)], "c1": [("update", ("obj-b", 2)), ("read",)]}

#: Registry name -> build_scenario arguments at the minimal n.  ``rsm/sharded``
#: is the registry's ``rsm`` row driven with ``shards=``.
_REGISTRY_CASES = {
    "wts": dict(n=4, f=1),
    "sbs": dict(n=4, f=1),
    "crash-la": dict(n=4, f=1),
    "gwts": dict(n=4, f=1, values_per_process=1, rounds=2),
    "gsbs": dict(n=4, f=1, values_per_process=1, rounds=2),
    "crash-gla": dict(n=4, f=1, values_per_process=1, rounds=2),
    "rsm": dict(n=4, f=1, inputs=_SCRIPTS, rounds=6),
    "rsm/sharded": dict(n=8, f=1, shards=2, inputs=_SCRIPTS, rounds=6),
}


def _fingerprint(scenario):
    """Decisions, exact message totals and client histories of one finished run.

    Only counters both backends keep: turbo sheds the per-process/delivery
    counters to go fast.
    """
    histories = {
        client: [(r.kind, r.completed, r.start_time, r.end_time, r.result) for r in history]
        for client, history in scenario.extras.get("histories", {}).items()
    }
    return [scenario.decisions(), scenario.run.delivered, scenario.run.end_time, scenario.metrics.total_sent, histories]


class TestProtocolRegistry:
    """One scenario path: every registered protocol builds, runs and schedules alike on kernel and turbo."""

    def test_every_registered_protocol_is_exercised(self):
        assert {name.split("/")[0] for name in _REGISTRY_CASES} == set(PROTOCOLS)

    @pytest.mark.parametrize("name", _REGISTRY_CASES)
    def test_build_run_matches_on_kernel_and_turbo(self, name):
        build_kwargs = _REGISTRY_CASES[name]
        protocol = name.split("/")[0]
        kernel = build_scenario(protocol, seed=3, **build_kwargs).run()
        assert kernel.run.delivered > 0
        assert kernel.metrics.total_sent >= kernel.run.delivered
        assert kernel.run.stopped_by_predicate  # the registry's stop predicate fired, not the message cap
        assert ("registry" in kernel.extras) == PROTOCOLS[protocol].signed
        if PROTOCOLS[protocol].kind == "rsm":
            assert "clients" in kernel.extras and "histories" in kernel.extras
        # Kernel and turbo execute the same schedule.
        turbo = build_scenario(protocol, seed=3, backend="turbo", **build_kwargs).run()
        assert turbo.backend == "turbo"
        assert _fingerprint(turbo) == _fingerprint(kernel)

    def test_build_and_run_are_separate_steps(self):
        scenario = build_scenario("wts", 4, 1, seed=3)
        assert scenario.engine.metrics.total_sent == 0  # built, nothing sent yet
        assert all(not node.has_decided for node in scenario.nodes.values())
        assert scenario.run().check_la().ok

    def test_unknown_protocol_names_the_known_ones(self):
        with pytest.raises(ValueError, match="unknown protocol 'bogus'; known: wts, sbs"):
            build_scenario("bogus", 4, 1)

    def test_explorer_menu_and_kinds_come_from_the_registry(self):
        # The explorer samples and judges only what the registry can build.
        assert set(PROTOCOL_BEHAVIOURS) <= set(PROTOCOLS)
        assert set(_DEFAULT_MENUS["protocols"]) <= set(PROTOCOLS)
        assert PROTOCOL_KINDS == {name: PROTOCOLS[name].kind for name in PROTOCOL_BEHAVIOURS}


class TestHelpers:
    def test_member_pids(self):
        assert member_pids(3) == ["p0", "p1", "p2"]
        assert member_pids(2, prefix="r") == ["r0", "r1"]

    def test_default_proposals_are_distinct_singletons(self):
        proposals = default_proposals(SetLattice(), ["p0", "p1"])
        assert len(set(proposals.values())) == 2
        assert all(len(v) == 1 for v in proposals.values())

    def test_make_gla_inputs(self):
        inputs = make_gla_inputs(["p0", "p1"], 3)
        assert len(inputs["p0"]) == 3
        flat = [v for values in inputs.values() for v in values]
        assert len(set(flat)) == 6


class TestScenarioResult:
    def test_views_cover_only_correct_processes(self):
        scenario = build_scenario(
            "wts", 4, 1,
            byzantine_factories=[lambda pid, lat, m, f: SilentByzantine(pid)],
            seed=0,
        ).run()
        assert set(scenario.correct_pids) == {"p0", "p1", "p2"}
        assert scenario.byzantine_pids == ["p3"]
        assert set(scenario.proposals()) == {"p0", "p1", "p2"}
        assert set(scenario.decisions()) == {"p0", "p1", "p2"}

    def test_too_many_byzantine_factories_rejected(self):
        with pytest.raises(ValueError):
            build_scenario("wts", 2, 1, byzantine_factories=[
                lambda pid, lat, m, f: SilentByzantine(pid)] * 3).run()


class TestOpenLoopScenario:
    """The open-loop generator: fixed arrival rate, honest tail latencies."""

    def test_offered_values_decide_and_latencies_are_summarised(self):
        scenario = run_open_loop_scenario(n=4, f=1, values=8, interval=5.0, seed=3)
        report = scenario.extras["open_loop"]
        assert report.offered == 8
        assert report.decided == 8 and report.all_decided
        assert report.time_source == "simulated"
        latency = report.latency
        assert latency["count"] == 8
        assert 0.0 < latency["p50"] <= latency["p95"] <= latency["p99"] <= latency["max"]

    def test_deterministic_backends_agree_on_latencies(self):
        """Arrivals ride the scripted-event calendar, so kernel and turbo
        must measure the *same* simulated latencies."""
        kernel = run_open_loop_scenario(n=4, f=1, values=6, interval=5.0, seed=7)
        turbo = run_open_loop_scenario(
            n=4, f=1, values=6, interval=5.0, seed=7, backend="turbo"
        )
        assert kernel.extras["open_loop"].latency == turbo.extras["open_loop"].latency

    def test_wall_clock_backend_reports_wall_latencies(self):
        scenario = run_open_loop_scenario(
            n=4, f=1, values=4, interval=5.0, seed=3, backend="async"
        )
        report = scenario.extras["open_loop"]
        assert report.time_source == "wall-clock"
        assert report.all_decided
        # Wall-clock decision latency also lands on the RunResult itself.
        assert scenario.run.decision_latency["count"] > 0

    def test_engine_kwargs_reach_the_backend(self):
        scenario = run_open_loop_scenario(
            n=3,
            f=0,
            values=3,
            interval=5.0,
            seed=3,
            backend="async",
            transport="tcp",
            time_scale=0.0002,
            framing="binary",
        )
        assert scenario.engine.transport == "tcp"
        assert scenario.engine.framing == "binary"
        assert scenario.extras["open_loop"].decided == 3

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError, match="at least one value"):
            run_open_loop_scenario(n=4, f=1, values=0)
        with pytest.raises(ValueError, match="interval"):
            run_open_loop_scenario(n=4, f=1, values=1, interval=0.0)
