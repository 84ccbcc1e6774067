"""BENCHMARK.json, the command's output, and what a timed-out run leaves behind."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import metrics
import workloads

LEDGER_DIR = Path(__file__).resolve().parents[1]
ROOT = LEDGER_DIR.parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str) -> tuple[int, dict]:
    done = subprocess.run(
        [*BENCHMARK["command"], *args], cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    return done.returncode, json.loads(done.stdout.strip().splitlines()[-1])


def test_benchmark_json_lists_exactly_the_ledgers_names():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in BENCHMARK["end_to_end"]] == list(
        metrics.END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == list(metrics.PER_LAYER)
    assert BENCHMARK["paths"] == ["benchmarks/ledger"]
    assert all(m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in BENCHMARK["end_to_end"])


def test_the_command_prints_every_end_to_end_metric_by_name():
    code, result = _run("--workload", "sim-rsm", "--seed", "5", "--seconds", "3", "--trace", "0")
    assert code == 0
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]
    for entry in BENCHMARK["end_to_end"]:
        assert result["metrics"][entry["name"]]["unit"] == entry["unit"]
        assert result["metrics"][entry["name"]]["value"] > 0


def _node_processes() -> list[str]:
    """Command lines of live `cluster node` processes started from the ledger's state dirs."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            cmdline = Path(f"/proc/{entry}/cmdline").read_bytes().replace(b"\0", b" ").decode()
        except OSError:
            continue
        if " cluster node " in cmdline and str(workloads.OUT_DIR) in cmdline:
            found.append(cmdline)
    return found


def test_a_timed_out_workload_fails_loudly_and_leaves_nothing_behind():
    code, result = _run(
        "--workload", "cluster-update", "--seed", "5", "--seconds", "3", "--trace", "0", "--deadline", "0.05"
    )
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] > 0
    assert _node_processes() == []
    assert list(workloads.OUT_DIR.glob("state-*")) == []


def test_without_the_program_source_the_command_refuses_to_run(tmp_path):
    # The driver also runs the benchmark where only BENCHMARK.json and the
    # ledger directory exist: no result line, a non-zero exit.
    bare = tmp_path / "benchmarks" / "ledger"
    bare.mkdir(parents=True)
    for source in LEDGER_DIR.glob("*.py"):
        (bare / source.name).write_bytes(source.read_bytes())
    done = subprocess.run(
        [sys.executable, str(bare / "run.py"), "--workload", "sim-wts", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
