"""Golden traces for the adversarial schedulers (Random / WorstCase).

``tests/golden/scheduler_traces.json`` pins the full delivery ordering —
sender, destination, message type, send/deliver times, causal depth — of
fixed-seed runs under :class:`~repro.sim.scheduler.RandomScheduler` and
:class:`~repro.sim.scheduler.WorstCaseScheduler`.  The fixtures were
generated on CPython 3.11 and must match byte-for-byte on every interpreter
the CI matrix runs (3.11/3.12/3.13): ``random.Random`` is specified to be
reproducible across versions, and nothing else may inject nondeterminism
into an event ordering.

The worker-count half of the guarantee — the same scenarios produce
identical canonical artifacts no matter how many worker processes ran them —
is pinned in ``tests/explore/test_explorer_cli.py``.

Regenerate (only if the kernel's event semantics deliberately change)::

    PYTHONPATH=src python tests/sim/test_scheduler_golden.py
"""

import json
import pathlib

from repro.harness import build_scenario

FIXTURE_PATH = pathlib.Path(__file__).resolve().parents[1] / "golden" / "scheduler_traces.json"

#: name -> zero-argument scenario builder; every builder goes through the
#: string axis specs, so these traces also pin the axes-DSL resolution path.
TRACED_SCENARIOS = {
    "wts_n4_f1_seed2026_random5": lambda: build_scenario(
        "wts", 4, 1, seed=2026, scheduler="random:spread=5"
    ).run(),
    "wts_n4_f1_seed2026_worstcase": lambda: build_scenario(
        "wts", 4, 1, seed=2026, scheduler="worst-case:victims=p0,starve=40,fast=1"
    ).run(),
    "gwts_n4_f1_r2_seed7_random5": lambda: build_scenario(
        "gwts", 4, 1, values_per_process=1, rounds=2, seed=7, scheduler="random:spread=5"
    ).run(),
    "gwts_n4_f1_r2_seed7_worstcase": lambda: build_scenario(
        "gwts", 4, 1, values_per_process=1, rounds=2, seed=7,
        scheduler="worst-case:victims=p1,starve=40,fast=1",
    ).run(),
}


def signature(scenario):
    return [
        [
            str(env.sender),
            str(env.dest),
            env.mtype,
            round(env.send_time, 9),
            round(env.deliver_time, 9),
            env.depth,
        ]
        for env in scenario.engine.delivery_log
    ]


class TestSchedulerGoldenTraces:
    def test_fixture_covers_every_traced_scenario(self):
        golden = json.loads(FIXTURE_PATH.read_text())
        assert sorted(golden) == sorted(TRACED_SCENARIOS)

    def test_traces_match_golden_fixtures(self):
        golden = json.loads(FIXTURE_PATH.read_text())
        for name, build in TRACED_SCENARIOS.items():
            assert signature(build()) == golden[name], (
                f"scheduler event ordering for {name} drifted from the golden trace"
            )

    def test_traces_are_stable_within_a_process(self):
        """Two in-process runs of the same spec are identical (no shared state)."""
        for build in TRACED_SCENARIOS.values():
            assert signature(build()) == signature(build())


def _regenerate() -> None:
    payload = {name: signature(build()) for name, build in TRACED_SCENARIOS.items()}
    FIXTURE_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE_PATH}")


if __name__ == "__main__":
    _regenerate()
