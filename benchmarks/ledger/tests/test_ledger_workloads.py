"""Exact counts repeat under a seed; tracing accounts for the whole run."""

from __future__ import annotations

import workloads
from tracing import Tracer, iter_spans


def test_same_seed_gives_the_same_exact_counts():
    first = workloads.run_sim_wts(seed=11, n=10, f=3)
    second = workloads.run_sim_wts(seed=11, n=10, f=3)
    other = workloads.run_sim_wts(seed=12, n=10, f=3)
    assert first["check_ok"] and second["check_ok"] and other["check_ok"]
    assert first["attempted"] == first["completed"] == 10
    assert first["layer"]["delivered"] == second["layer"]["delivered"] > 0
    assert other["layer"]["delivered"] > 0


def test_traced_pass_accounts_for_the_whole_engine_run():
    plain = workloads.run_sim_wts(seed=11, n=10, f=3)
    traced = workloads.run_sim_wts(seed=11, tracer=Tracer(), n=10, f=3)
    layer = traced["layer"]
    # Tracing must not change what the protocol does.
    assert layer["delivered"] == plain["layer"]["delivered"]
    assert layer["traced_self_sum_share"] >= 0.95
    shares = [layer[key] for key in layer if key.endswith(".self_share")]
    assert abs(sum(shares) - layer["traced_self_sum_share"]) < 1e-9
    assert layer["core.wts.self_share"] > 0 and layer["engine.turbo.self_share"] > 0
    assert layer["crypto.self_share"] == 0
    # Bracha broadcast: n inits, n*n echoes, n*n readies per instance at most.
    assert layer["rb.instances"] == 10
    assert 10 < layer["rb.messages"] / layer["rb.instances"] <= 10 + 2 * 10 * 10
    spans = list(iter_spans(workloads.OUT_DIR / "trace-sim-wts.json"))
    assert spans[0]["name"] == "engine.run" and spans[0]["parent"] == -1
    assert all(span["parent"] >= 0 for span in spans[1:])
    # The class-level broadcast wrapper is gone again after the run.
    from repro.broadcast.reliable import ReliableBroadcaster

    assert ReliableBroadcaster.handle.__qualname__ == "ReliableBroadcaster.handle"
