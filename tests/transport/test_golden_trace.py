"""Golden-trace determinism: engine refactors must not change seed runs.

The JSON fixtures under ``tests/golden/`` were generated by the *seed*
implementation (message-only ``Network``, pre-kernel) with fixed seeds and
topologies.  The kernel engine backend — now driving sans-I/O protocol
cores through the effect vocabulary, with the transport shims retired —
must still reproduce every delivery — sender, destination, message type,
send/deliver times and causal depth — bit for bit.

One fixture is no longer the seed's: ``rsm_n4_f1_seed5`` was regenerated
twice.  First, when a ``Broadcast`` came to reach the sender's ``members``
only.  The seed implementation also sent reliable-broadcast traffic
(``rb_init``/``rb_echo``/``rb_ready``) to the RSM clients, which dropped
it.  Now client ``c0`` receives just its ``rsm_decide`` and
``rsm_cnf_rep`` replies (3 781 rows became 3 097).  Second, when replicas
came to open a round only when it carries a command: the update and the
read's ``nop`` run in rounds 0 and 1, where the replicas used to run rounds
0-4 back to back (3 097 rows became 1 486).  The WTS and GWTS fixtures, where every
registered core is a member, are still the seed's, byte for byte.

The async backend's memory transport is the kernel's loop on a wall clock,
so its delivery log must match the same fixtures in every field except
``deliver_time``, which there is a wall-clock reading.
"""

import json
import pathlib

import pytest

from repro.harness import build_scenario
from repro.rsm.crdt import GCounterObject

GOLDEN = json.loads(
    (pathlib.Path(__file__).resolve().parents[1] / "golden" / "delivery_traces.json")
    .read_text()
)


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


def comparable(rows, backend):
    """``rows`` without ``deliver_time`` (slot 4) where it is wall-clock."""
    return rows if backend == "kernel" else [row[:4] + row[5:] for row in rows]


@pytest.mark.parametrize("backend", ["kernel", "async"])
class TestGoldenTraces:
    def test_wts_trace_matches_seed_implementation(self, backend):
        scenario = build_scenario("wts", 4, 1, seed=2026, backend=backend).run()
        assert comparable(signature(scenario), backend) == comparable(GOLDEN["wts_n4_f1_seed2026"], backend)

    def test_gwts_trace_matches_seed_implementation(self, backend):
        scenario = build_scenario("gwts", 4, 1, values_per_process=1, rounds=2, seed=7, backend=backend).run()
        assert comparable(signature(scenario), backend) == comparable(GOLDEN["gwts_n4_f1_r2_seed7"], backend)

    def test_rsm_trace_matches_seed_implementation(self, backend):
        counter = GCounterObject("hits")
        scripts = {"c0": [("update", counter.op_inc(1)), ("read",)]}
        scenario = build_scenario(
            "rsm", 4, 1, inputs=scripts, rounds=6, seed=5, backend=backend
        ).run()
        assert comparable(signature(scenario), backend) == comparable(GOLDEN["rsm_n4_f1_seed5"], backend)
