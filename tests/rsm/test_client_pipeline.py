"""Pipelined RSM client: window semantics, read barriers, equivalence.

``pipeline=k`` keeps up to ``k`` commutative updates in flight at once —
the client-side half of the batching story (replicas can only batch what
clients put in flight).  Pinned here:

* ``pipeline=1`` behaves exactly like the paper's strictly sequential
  client — same history, same final state;
* a pipelined client completes every operation and its reads still
  reflect all of its own prior updates;
* reads are barriers at any pipeline depth: no update overlaps a read in
  the client's own history.
"""

from repro.harness import build_scenario
from repro.rsm import GCounterObject, RSMClient, check_rsm_history

import pytest

COUNTER = GCounterObject("hits")


def script(updates):
    ops = [("update", COUNTER.op_inc(1)) for _ in range(updates)]
    return ops + [("read",)]


def run(pipeline, updates=4, seed=11, backend="kernel"):
    return build_scenario(
        "rsm", 4, 1,
        inputs={"c": script(updates)},
        rounds=updates + 6, seed=seed, backend=backend,
        client_pipeline=pipeline,
    ).run()


class TestPipelineWindow:
    def test_pipeline_must_be_positive(self):
        with pytest.raises(ValueError, match="pipeline"):
            RSMClient("c", ("r0", "r1", "r2", "r3"), 1, pipeline=0)

    def test_depth_one_matches_the_sequential_client(self):
        baseline = build_scenario(
            "rsm", 4, 1, inputs={"c": script(4)},
            rounds=10, seed=11,
        ).run()
        explicit = run(pipeline=1, seed=11)
        base_history = baseline.extras["histories"]["c"]
        history = explicit.extras["histories"]["c"]
        assert [(r.kind, r.command, r.start_time, r.end_time) for r in history] == [
            (r.kind, r.command, r.start_time, r.end_time) for r in base_history
        ]

    @pytest.mark.parametrize("backend", ["kernel", "turbo"])
    @pytest.mark.parametrize("pipeline", [2, 4])
    def test_pipelined_client_completes_and_reads_see_own_updates(self, pipeline, backend):
        scenario = run(pipeline=pipeline, updates=6, backend=backend)
        history = scenario.extras["histories"]["c"]
        assert all(record.completed for record in history)
        final_read = [r for r in history if r.kind == "read"][-1]
        assert COUNTER.value(final_read.result) == 6
        assert check_rsm_history([history]).ok

    def test_updates_genuinely_overlap_at_depth_greater_than_one(self):
        sequential = run(pipeline=1, updates=4)
        pipelined = run(pipeline=4, updates=4)

        def overlaps(history):
            updates = [r for r in history if r.kind == "update"]
            return sum(
                1
                for a in updates
                for b in updates
                if a is not b and a.start_time < b.end_time and b.start_time < a.end_time
            )

        assert overlaps(sequential.extras["histories"]["c"]) == 0
        assert overlaps(pipelined.extras["histories"]["c"]) > 0

    @pytest.mark.parametrize("pipeline", [1, 3])
    def test_reads_are_barriers_at_any_depth(self, pipeline):
        ops = [("update", COUNTER.op_inc(1)), ("update", COUNTER.op_inc(1)),
               ("read",),
               ("update", COUNTER.op_inc(1)), ("read",)]
        scenario = build_scenario(
            "rsm", 4, 1, inputs={"c": ops},
            rounds=12, seed=13, client_pipeline=pipeline,
        ).run()
        history = scenario.extras["histories"]["c"]
        assert all(record.completed for record in history)
        for read in (r for r in history if r.kind == "read"):
            for update in (r for r in history if r.kind == "update"):
                # A read never overlaps an update of the same client.
                assert update.end_time <= read.start_time or update.start_time >= read.end_time
