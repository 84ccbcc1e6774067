"""Metric names, units and bounds, and how repeats turn into them.

``BENCHMARK.json`` at the repository root lists exactly the names in
:data:`END_TO_END` and :data:`PER_LAYER` (a self-test pins that); later issues
cite them verbatim.  :data:`EXTRA_LAYER` names are printed by the
all-workload command only: they are timings that exist on the cluster
workloads alone.
"""

from __future__ import annotations

import os

import measure

#: (name, unit, better, bound) — bound is the share of the parent's median by
#: which the metric may worsen before a change is rejected.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("cpu_s_per_op", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.25),
)

#: Printed (and recorded in history.jsonl) by the all-workload command beside
#: the end-to-end metrics; not in BENCHMARK.json because they are 0, or not
#: defined, or a second reading of latency_p50_ms on most workloads.
INFORMATIONAL = (
    ("latency_tail_ms", "ms"),
    ("failed_share", "ratio"),
    ("msgs_per_op", "count"),
)

#: (name, unit, better), every one reported by every traced run.
PER_LAYER = (
    # probes: one layer's public functions timed in isolation
    ("lattice.set.join_us", "us", "lower"),
    ("lattice.set.leq_us", "us", "lower"),
    ("crypto.sign_us", "us", "lower"),
    ("crypto.verify_us", "us", "lower"),
    ("engine.turbo.dispatch_us_per_event", "us", "lower"),
    ("engine.kernel.dispatch_us_per_event", "us", "lower"),
    ("engine.async.dispatch_us_per_event", "us", "lower"),
    ("engine.wire.json.encode_us_per_frame", "us", "lower"),
    ("engine.wire.json.decode_us_per_frame", "us", "lower"),
    ("engine.wire.json.bytes_per_frame", "B", "lower"),
    ("engine.wire.binary.encode_us_per_frame", "us", "lower"),
    ("engine.wire.binary.decode_us_per_frame", "us", "lower"),
    ("engine.wire.binary.bytes_per_frame", "B", "lower"),
    ("engine.async.tcp_us_per_msg", "us", "lower"),
    ("engine.async.mem_us_per_msg", "us", "lower"),
    ("cluster.supervisor.start_s", "s", "lower"),
    ("cluster.supervisor.stop_s", "s", "lower"),
    ("cluster.clean_exit_share", "ratio", "higher"),
    ("cluster.link.status_rtt_ms", "ms", "lower"),
    ("cluster.n1.update_p50_ms", "ms", "lower"),
    # the workload's own traced pass; 0 = the layer is not on this workload's path
    ("msgs_per_op", "count", "lower"),
    ("lattice.calls_per_op", "count", "lower"),
    ("lattice.self_share", "ratio", "lower"),
    ("crypto.verify_calls_per_op", "count", "lower"),
    ("crypto.self_share", "ratio", "lower"),
    ("broadcast.rb.msgs_per_instance", "count", "lower"),
    ("broadcast.self_share", "ratio", "lower"),
    ("core.wts.self_share", "ratio", "lower"),
    ("core.sbs.self_share", "ratio", "lower"),
    ("core.gwts.self_share", "ratio", "lower"),
    ("core.rounds_per_op", "count", "lower"),
    ("engine.turbo.self_share", "ratio", "lower"),
    ("engine.async.self_share", "ratio", "lower"),
    ("rsm.history_slowdown", "ratio", "lower"),
    ("rsm.audit_s", "s", "lower"),
    ("cluster.cpu_utilisation", "ratio", "higher"),
    ("cluster.node.rounds_per_op", "count", "lower"),
    ("cluster.node.decisions_per_op", "count", "lower"),
    ("cluster.client.retries_per_op", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

#: Cluster-only timings: printed by the all-workload command, not in BENCHMARK.json.
EXTRA_LAYER = (
    ("cluster.node.cpu_s_per_op", "s", "lower"),
    ("cluster.client.cpu_s_per_op", "s", "lower"),
    ("cluster.crash.max_gap_ms", "ms", "lower"),
)


def measured(repeats: list[dict]) -> list[dict]:
    """The repeats that have timings: a window in which something completed."""
    return [repeat for repeat in repeats if repeat.get("window_s") and repeat["completed"]]


def counts(repeats: list[dict]) -> tuple[int, int]:
    """``(attempted, failed)`` operations over the repeats.

    An operation fails by not completing before the deadline, or by belonging
    to a repeat whose correctness check failed.
    """
    attempted = sum(repeat["attempted"] for repeat in repeats)
    completed = sum(repeat["completed"] for repeat in repeats if repeat["check_ok"])
    return attempted, attempted - completed


def repeat_latencies(repeat: dict) -> list[float]:
    """One sample per operation (cluster workloads), or the one in-flight time
    an in-process repeat has (it times the window, not single operations)."""
    return repeat.get("latencies_ms") or [repeat["latency_ms"]]


def end_to_end(repeats: list[dict]) -> dict[str, float]:
    """The end-to-end metrics of one workload from its repeats.

    The timings are those of the *fastest* repeat: on a shared box
    interference only ever slows a repeat down, so the fastest one is the
    least disturbed measurement of the program itself.  Set-up time and
    memory are medians over the repeats.
    """
    good = measured(repeats)
    if not good:
        return {}
    best = max(good, key=lambda repeat: repeat["completed"] / repeat["window_s"])
    latencies = repeat_latencies(best)
    return {
        "setup_s": measure.median([repeat["setup_s"] for repeat in good]),
        "ops_per_s": best["completed"] / best["window_s"],
        "latency_p50_ms": measure.rank_value(latencies, measure.p50_rank(len(latencies))),
        "cpu_s_per_op": best["cpu_s"] / max(best["completed"], 1),
        "peak_rss_mb": measure.median([repeat["peak_rss_mb"] for repeat in good]),
    }


def informational(repeats: list[dict]) -> tuple[dict[str, float], dict[str, str]]:
    """The :data:`INFORMATIONAL` values of one workload and a note for each."""
    attempted, failed = counts(repeats)
    values = {"failed_share": failed / attempted}
    notes = {}
    good = measured(repeats)
    pooled = [sample for repeat in good for sample in repeat_latencies(repeat)]
    if pooled:
        value, percentile = measure.tail(pooled)
        values["latency_tail_ms"] = value
        notes["latency_tail_ms"] = f"(p{percentile:.1f} of {len(pooled)} samples pooled over the repeats)"
    delivered = [repeat["layer"]["delivered"] / repeat["completed"] for repeat in good if "delivered" in repeat["layer"]]
    if delivered:
        values["msgs_per_op"] = measure.median(delivered)
        notes["msgs_per_op"] = "(exact under the seed)" if len(set(delivered)) == 1 else "(wall-clock schedule: varies)"
    return values, notes


def workload_layers(traced: dict, reference: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one workload from its traced repeat.

    ``reference`` are untraced repeats of the same workload (for the tracing
    overhead); an empty list means no spans were recorded inside the window,
    so there is no overhead to report.
    """
    layer = traced.get("layer", {})
    ops = max(traced.get("completed", 0), 1)
    wall = layer.get("wall_s", traced.get("window_s", 0.0))
    cpu = traced.get("cpu_s", 0.0)
    instances = layer.get("rb.instances", 0)
    out = {name: 0.0 for name, _unit, _better in PER_LAYER + EXTRA_LAYER}
    out.update(
        {
            "msgs_per_op": layer.get("delivered", 0) / ops,
            "lattice.calls_per_op": layer.get("lattice.calls", 0) / ops,
            "crypto.verify_calls_per_op": layer.get("crypto.verify_calls", 0) / ops,
            "broadcast.rb.msgs_per_instance": layer.get("rb.messages", 0) / instances if instances else 0.0,
            "core.rounds_per_op": layer.get("core_rounds", 0) / ops,
            "rsm.history_slowdown": layer.get("history_slowdown", 0.0),
            "rsm.audit_s": traced.get("check_s", 0.0),
            "cluster.cpu_utilisation": cpu / (wall * (os.cpu_count() or 1)) if wall else 0.0,
            "cluster.node.rounds_per_op": layer.get("node_rounds", 0) / ops,
            "cluster.node.decisions_per_op": layer.get("node_decisions", 0) / ops,
            "cluster.client.retries_per_op": layer.get("retries", 0) / ops,
            "cluster.node.cpu_s_per_op": layer.get("node_cpu_s", 0.0) / ops,
            "cluster.client.cpu_s_per_op": layer.get("client_cpu_s", 0.0) / ops,
            "cluster.crash.max_gap_ms": layer.get("crash_max_gap_ms", 0.0),
            "trace.overhead_ratio": 1.0,
        }
    )
    for name in out:
        if name.endswith(".self_share") and name in layer:
            out[name] = layer[name]
    untraced = [repeat["window_s"] for repeat in measured(reference)]
    if untraced and traced.get("window_s"):
        out["trace.overhead_ratio"] = traced["window_s"] / measure.median(untraced)
    return out
