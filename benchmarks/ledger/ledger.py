"""The ledger behind ``run.py``: child interpreters, aggregation, printing.

Imported by ``run.py`` once ``src/`` is on ``sys.path``.  Every repeat of
every workload runs in a fresh child interpreter (``run.py --child ...``),
one at a time, so heap growth and peak RSS do not leak between repeats; this
module is both the parent that starts them and the code a child runs.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

import measure
import metrics
import probes
from tracing import Tracer
from workloads import (
    CLUSTER_REPEATS,
    DEFAULT_DEADLINE_S,
    DETERMINISTIC,
    IN_PROCESS,
    IN_PROCESS_REPEATS,
    WORKLOADS,
)

LEDGER_DIR = Path(__file__).resolve().parent
ROOT = LEDGER_DIR.parents[1]
RUN_PY = LEDGER_DIR / "run.py"

#: ``run_seconds`` of BENCHMARK.json: the measured windows of a workload's
#: repeats add up to about this much on the reference box.
RUN_SECONDS = 10
#: Hard stop for one child interpreter (the contract allows a run 180 s).
CHILD_TIMEOUT_S = 150.0
#: Marker in front of a child's result line.
RESULT_TAG = "LEDGER-RESULT "
LOAD_WARNING = 0.5
#: Share of the machine's CPU time taken by the hypervisor during a run above
#: which its timings are not worth comparing.
STEAL_WARNING = 0.05


class StealWatch:
    """Share of this machine's CPU time the hypervisor stole since construction."""

    def __init__(self) -> None:
        self._stolen = measure.stolen_cpu_seconds()
        self._started = time.monotonic()

    def share(self) -> float:
        capacity = (time.monotonic() - self._started) * (os.cpu_count() or 1)
        return (measure.stolen_cpu_seconds() - self._stolen) / capacity if capacity else 0.0

    def warning(self) -> str | None:
        share = self.share()
        if share > STEAL_WARNING:
            return (
                f"WARNING: the hypervisor stole {share:.0%} of this box's CPU time during the run: "
                "timings taken now do not repeat; rerun when the host is quieter"
            )
        return None


# =====================================================================================
# Child side: one repeat, or the probe set, in this interpreter
# =====================================================================================


def _raise_exit(_signum, _frame) -> None:
    raise SystemExit(143)


def child_main(args: argparse.Namespace) -> int:
    # SIGTERM (the parent's deadline) unwinds through the workload's
    # try/finally, so node processes and state directories are torn down.
    signal.signal(signal.SIGTERM, _raise_exit)
    if args.child == "probes":
        result = probes.run_all(args.seed)
    else:
        function, _why = WORKLOADS[args.workload]
        result = function(args.seed, Tracer() if args.trace else None, deadline_s=args.deadline)
        if "window_start" in result:
            result["setup_s"] = result.pop("window_start") - args.spawned_at
    print(RESULT_TAG + json.dumps(result), flush=True)
    return 0


# =====================================================================================
# Parent side
# =====================================================================================


def run_child(kind: str, workload: str | None, seed: int, trace: bool, deadline_s: float) -> dict | None:
    """Run one child interpreter to completion; its result dict, or None."""
    command = [
        sys.executable,
        str(RUN_PY),
        "--child",
        kind,
        "--seed",
        str(seed),
        "--trace",
        str(int(trace)),
        "--deadline",
        repr(deadline_s),
        "--spawned-at",
        repr(time.monotonic()),
    ]
    if workload:
        command += ["--workload", workload]
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        try:
            stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"ledger: {kind} {workload or ''} exceeded {CHILD_TIMEOUT_S:g}s, stopping it", file=sys.stderr)
            child.terminate()
            stdout, _ = child.communicate(timeout=30)
    finally:
        # Ctrl-C reaches the child too (same process group); give its
        # teardown a moment, then make sure nothing is left behind.
        if child.poll() is None:
            try:
                child.wait(timeout=15)
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait()
    for line in reversed(stdout.splitlines()):
        if line.startswith(RESULT_TAG):
            return json.loads(line[len(RESULT_TAG) :])
    print(f"ledger: {kind} {workload or ''} produced no result (exit {child.returncode})", file=sys.stderr)
    return None


def run_repeat(workload: str, seed: int, trace: bool, deadline_s: float) -> dict:
    result = run_child("repeat", workload, seed, trace, deadline_s)
    if result is None:
        # The child died or overran: every operation it owed counts as failed.
        result = {"attempted": 1, "completed": 0, "check_ok": False, "check_detail": "no result from the repeat"}
    return result


def repeats_for(workload: str, seconds: float) -> int:
    """More ``--seconds`` buy more repeats; each repeat's work is fixed."""
    base = IN_PROCESS_REPEATS if workload in IN_PROCESS else CLUSTER_REPEATS
    return max(1, round(base * seconds / RUN_SECONDS))


def git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True, timeout=10
        )
        return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def provenance(seed: int) -> dict:
    return {
        "sha": git_sha(),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "nproc": os.cpu_count(),
        "load1": os.getloadavg()[0],
        "python": platform.python_version(),
        "seed": seed,
    }


def problems(workload: str, repeats: list[dict]) -> list[str]:
    """Why this workload's repeats are not a correct run (empty when they are)."""
    found = [repeat["check_detail"] for repeat in repeats if not repeat["check_ok"]]
    if workload in DETERMINISTIC:
        delivered = {repeat["layer"]["delivered"] for repeat in metrics.measured(repeats)}
        if len(delivered) > 1:
            found.append(f"same seed, different delivery counts: {sorted(delivered)}")
    return found


# -- the contract: one workload, one JSON line -------------------------------------------


def contract_main(args: argparse.Namespace) -> int:
    steal = StealWatch()
    if not args.trace:
        repeats = [
            run_repeat(args.workload, args.seed, False, args.deadline)
            for _ in range(repeats_for(args.workload, args.seconds))
        ]
        values = metrics.end_to_end(repeats)
        table = metrics.END_TO_END
    else:
        traced = run_repeat(args.workload, args.seed, True, args.deadline)
        # Spans are recorded inside the window only for in-process workloads;
        # those need an untraced window to state the tracing overhead.
        reference = (
            [run_repeat(args.workload, args.seed, False, args.deadline)] if args.workload in IN_PROCESS else []
        )
        repeats = [traced, *reference]
        values = metrics.workload_layers(traced, reference)
        values.update(run_child("probes", None, args.seed, False, args.deadline) or {})
        table = metrics.PER_LAYER
    attempted, failed = metrics.counts(repeats)
    found = problems(args.workload, repeats)
    found += [f"no value for {name}" for name, *_ in table if name not in values]
    for problem in found:
        print(f"ledger: {args.workload}: {problem}", file=sys.stderr)
    if warning := steal.warning():
        print(f"ledger: {warning}", file=sys.stderr)
    result = {
        "correct": not found,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, *_ in table if name in values},
    }
    print(json.dumps(result), flush=True)
    return 1 if found or failed else 0


# -- the ledger: every workload, printed by name -----------------------------------------


def _print_metric(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"  {name:<42} {value:>14.6g} {unit:<6} {note}".rstrip())


def _print_end_to_end(name: str, why: str, repeats: list[dict]) -> tuple[dict, bool]:
    """Print one workload's block; returns its history entry and whether it passed."""
    attempted, failed = metrics.counts(repeats)
    found = problems(name, repeats)
    values = metrics.end_to_end(repeats)
    extra, notes = metrics.informational(repeats)
    good = metrics.measured(repeats)
    if good:
        samples = len(metrics.repeat_latencies(good[0]))
        notes["latency_p50_ms"] = f"({samples} samples, fastest repeat)" if samples > 1 else "(window time, fastest repeat)"
    print(f"\n{name}: {why}")
    print(f"  {len(repeats)} repeats, {attempted} operations attempted, {failed} failed, check: {'FAILED' if found else 'ok'}")
    for problem in found:
        print(f"  FAILED: {problem}")
    for metric, unit, *_ in metrics.END_TO_END + metrics.INFORMATIONAL:
        if metric in values or metric in extra:
            _print_metric(metric, values.get(metric, extra.get(metric)), unit, notes.get(metric, ""))
    return {**values, **extra}, not found and not failed


def _print_layers(name: str, traced: dict, values: dict[str, float], skip: dict) -> None:
    layer = traced.get("layer", {})
    trace_file = (LEDGER_DIR / "out" / f"trace-{name}.json").relative_to(ROOT)
    print(f"\nper-layer: {name}  (traced pass, {layer.get('spans', 0)} spans -> {trace_file})")
    if not traced["check_ok"]:
        print(f"  FAILED: {traced['check_detail']}")
    if "traced_self_sum_share" in layer:
        _print_metric("(sum of self times / engine.run)", layer["traced_self_sum_share"], "ratio")
    absent = []
    for metric, unit, _better in metrics.PER_LAYER + metrics.EXTRA_LAYER:
        if metric in skip:
            continue
        if values[metric]:
            _print_metric(metric, values[metric], unit)
        else:
            absent.append(metric)
    print(f"  0 (layer not on this workload's path): {', '.join(absent)}")


def ledger_main(args: argparse.Namespace) -> int:
    header = provenance(args.seed)
    print(
        "perf ledger  sha={sha}  date={date}  nproc={nproc}  load1={load1:.2f}  python={python}  seed={seed}".format(
            **header
        )
    )
    if header["load1"] > LOAD_WARNING:
        print(
            f"WARNING: 1-minute load average {header['load1']:.2f} > {LOAD_WARNING}: numbers taken on a busy "
            "box do not repeat; rerun when it is idle"
        )
    ok = True
    steal = StealWatch()
    untraced: dict[str, list[dict]] = {}
    record = {**header, "workloads": {}}
    for name, (_function, why) in WORKLOADS.items():
        untraced[name] = [
            run_repeat(name, args.seed, False, args.deadline) for _ in range(repeats_for(name, args.seconds))
        ]
        record["workloads"][name], passed = _print_end_to_end(name, why, untraced[name])
        ok = ok and passed

    if args.trace:
        print("\nper-layer: probes (each layer's public functions, timed in isolation)")
        probe_values = run_child("probes", None, args.seed, False, args.deadline) or {}
        ok = ok and bool(probe_values)
        for metric, unit, _better in metrics.PER_LAYER:
            if metric in probe_values:
                _print_metric(metric, probe_values[metric], unit)
        for name in WORKLOADS:
            traced = run_repeat(name, args.seed, True, args.deadline)
            ok = ok and traced["check_ok"]
            values = metrics.workload_layers(traced, untraced[name] if name in IN_PROCESS else [])
            _print_layers(name, traced, values, skip=probe_values)

    record["steal_share"] = steal.share()
    print(f"\nhypervisor steal during the run: {record['steal_share']:.1%} of CPU time")
    if warning := steal.warning():
        print(warning)
    if args.record:
        with open(LEDGER_DIR / "history.jsonl", "a") as history:
            history.write(json.dumps(record, sort_keys=True) + "\n")
        print(f"\nrecorded one line in {(LEDGER_DIR / 'history.jsonl').relative_to(ROOT)}")
    print(f"\nledger: {'ok' if ok else 'FAILED'}")
    return 0 if ok else 1


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="run.py", description="The perf ledger: seven workloads, end-to-end and per-layer numbers (see README.md)."
    )
    parser.add_argument("--workload", help="run this workload alone and end with the contract's JSON line")
    parser.add_argument("--seed", type=int, default=7, help="inputs and schedules derive from it")
    parser.add_argument(
        "--seconds", type=float, default=RUN_SECONDS, help="measuring time: buys repeats of fixed-size work"
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, help="also (or, with --workload, only) take the per-layer numbers"
    )
    parser.add_argument("--record", action="store_true", help="append the end-to-end metrics to history.jsonl")
    parser.add_argument(
        "--deadline", type=float, default=DEFAULT_DEADLINE_S, help="seconds a repeat's operations may take before they count as failed"
    )
    parser.add_argument("--child", choices=("repeat", "probes"), help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, default=0.0, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.workload is not None and args.workload not in WORKLOADS:
        print(f"ledger: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.child:
        return child_main(args)
    if args.workload is not None:
        return contract_main(args)
    return ledger_main(args)
