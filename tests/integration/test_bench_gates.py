"""The engine-throughput bench's regression gate (benchmarks/bench_kernel_throughput.py).

The gate compares speedup ratios against the committed ``BENCH_kernel.json``.
A gated ratio that cannot be compared must fail the gate, never drop out of
it: deleting a substrate once silently removed two of three gates.
"""

import importlib.util
import json
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def bench():
    path = ROOT / "benchmarks" / "bench_kernel_throughput.py"
    spec = importlib.util.spec_from_file_location("bench_kernel_throughput", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # the script's dataclasses look their module up
    spec.loader.exec_module(module)
    return module


RATES = {"seed": 100.0, "kernel": 130.0, "turbo": 480.0, "async": 150.0}


def write_baseline(tmp_path, speedups):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({"speedups": speedups}))
    return str(path)


def test_gate_passes_within_bound_and_flags_a_regression(bench, tmp_path):
    baseline = write_baseline(
        tmp_path, {"turbo_vs_seed": 4.8, "kernel_vs_seed": 1.3, "async_vs_seed": 1.5}
    )
    assert bench.check_regression(RATES, baseline, 0.25) == []
    slow = dict(RATES, turbo=300.0)  # 3.0x against a committed 4.8x
    problems = bench.check_regression(slow, baseline, 0.25)
    assert len(problems) == 1 and problems[0].startswith("turbo_vs_seed")


def test_unmeasurable_gated_ratio_fails_loudly(bench, tmp_path):
    baseline = write_baseline(
        tmp_path, {"turbo_vs_seed": 4.8, "kernel_vs_seed": 1.3, "async_vs_seed": 1.5}
    )
    without_seed = {name: rate for name, rate in RATES.items() if name != "seed"}
    problems = bench.check_regression(without_seed, baseline, 0.25)
    assert len(problems) == len(bench.GATED_RATIOS)
    assert all("not measured (seed missing)" in problem for problem in problems)


def test_gated_ratio_missing_from_the_baseline_fails(bench, tmp_path):
    # A baseline from before the seed became the yardstick records shim ratios.
    baseline = write_baseline(
        tmp_path, {"turbo_vs_shim": 2.773, "kernel_vs_seed": 1.3, "async_vs_seed": 1.5}
    )
    problems = bench.check_regression(RATES, baseline, 0.25)
    assert problems == ["turbo_vs_seed: gated ratio not in the baseline"]


def test_committed_baseline_records_every_gated_ratio(bench):
    committed = json.loads((ROOT / "BENCH_kernel.json").read_text())
    assert set(bench.GATED_RATIOS) <= set(committed["speedups"])
