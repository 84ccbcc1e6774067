"""Property-based tests for the sharded RSM data plane (PR 9).

Three claims carry the sharding design, and each is pinned here as a
property over random inputs rather than a single example:

* **Routing is a stable total function** — every key lands on exactly one
  shard, identically across calls (and, because :func:`shard_of` hashes
  ``repr`` with crc32, across processes and hash seeds).  The projection /
  join pair is lossless: splitting a map element by shard and joining the
  pieces reproduces the element.
* **A cross-shard read is the join of per-shard views** — the client-side
  fan-out read returns exactly the union of what the independent shard
  groups confirmed, so sharding is invisible to readers (the soundness
  argument in ``repro.rsm.sharding``).
* **Batching is semantically free** — proposing commands in batches of
  ``k`` decides the same final state as proposing them one at a time;
  batching changes scheduling, never semantics.

The end-to-end properties run on the kernel *and* turbo backends: the
turbo engine's interned-topology fast path and the kernel's dict-based
delivery must agree on every random workload.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.harness import build_scenario
from repro.lattice import SetLattice
from repro.rsm import (
    GCounterObject,
    GSetObject,
    join_map_shards,
    partition_replicas,
    project_map,
    shard_of,
    shard_of_operation,
)

keys = st.text(min_size=1, max_size=8) | st.integers(-1000, 1000)
shard_counts = st.integers(min_value=1, max_value=7)
backends = st.sampled_from(["kernel", "turbo"])


class TestRoutingProperties:
    @given(key=keys, shards=shard_counts)
    def test_routing_is_stable_and_total(self, key, shards):
        first = shard_of(key, shards)
        assert 0 <= first < shards
        assert shard_of(key, shards) == first  # same key, same shard, always

    @given(key=keys)
    def test_single_shard_routes_everything_to_zero(self, key):
        assert shard_of(key, 1) == 0

    @given(obj=keys, rest=st.integers(), shards=shard_counts)
    def test_operations_route_by_their_object(self, obj, rest, shards):
        # (obj, ...) payloads route by obj alone: every operation on one
        # replicated object lands on the same shard regardless of arguments.
        assert shard_of_operation((obj, rest), shards) == shard_of(obj, shards)

    @given(
        n=st.integers(min_value=1, max_value=40),
        shards=st.integers(min_value=1, max_value=10),
    )
    def test_partition_covers_every_replica_exactly_once(self, n, shards):
        if shards > n:
            return
        groups = partition_replicas(tuple(range(n)), shards)
        assert len(groups) == shards
        assert all(group for group in groups)
        flat = [pid for group in groups for pid in group]
        assert flat == list(range(n))

    @given(
        entries=st.dictionaries(keys, st.integers(0, 5), max_size=12),
        shards=shard_counts,
    )
    def test_projection_then_join_is_lossless(self, entries, shards):
        lattice = SetLattice()
        element = frozenset(entries.items())
        parts = [project_map(element, shard, shards) for shard in range(shards)]
        # Each entry lands in exactly one projection...
        assert sum(len(part) for part in parts) == len(element)
        # ...and the join reassembles the original element.
        assert join_map_shards(lattice, [frozenset(p) for p in parts]) == element


COUNTERS = [GCounterObject(f"ctr-{i}") for i in range(6)]
TAGS = GSetObject("tags")


@settings(max_examples=5, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    increments=st.lists(
        st.tuples(st.integers(0, 5), st.integers(1, 3)), min_size=1, max_size=4
    ),
    shards=st.sampled_from([2, 3]),
    backend=backends,
)
def test_cross_shard_read_is_join_of_per_shard_views(seed, increments, shards, backend):
    """The fan-out read equals the union of the shards' confirmed commands.

    The reading client is the writer itself: update visibility (Section
    7.1) guarantees a client's *own* completed updates appear in its later
    reads, whereas another client's concurrent writes are only eventually
    visible — the property must not quantify over those.
    """
    scripts = {
        "writer": [("update", COUNTERS[obj].op_inc(amount)) for obj, amount in increments]
        + [("read",)],
    }
    # Rounds are generous (some seeds spend extra rounds on retry timing)
    # and the message cap is tight so a genuine liveness bug fails fast
    # instead of grinding to the default 2M-message cap.
    scenario = build_scenario(
        "rsm", shards * 4, 1, shards=shards, inputs=scripts,
        rounds=2 * len(increments) + 8, seed=seed, backend=backend,
        max_messages=300_000,
    ).run()
    reads = scenario.extras["cross_shard_reads"]["writer"]
    assert reads and all(record.completed for record in reads)
    # Every one of the client's own updates is visible in its final read...
    final = reads[-1].result
    submitted = sum(amount for _, amount in increments)
    observed = sum(GCounterObject(f"ctr-{i}").value(final) for i in range(6))
    assert observed == submitted
    # ...and the read is exactly the join of the per-shard final views.
    joined = frozenset()
    for shard, histories in scenario.extras["shard_histories"].items():
        last = histories["writer"][-1]
        assert last.kind == "read" and last.completed
        joined |= last.result
    assert final == joined


@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    tags=st.sets(st.text(min_size=1, max_size=4), min_size=1, max_size=6),
    batch=st.sampled_from([2, 4]),
    backend=backends,
)
def test_batched_and_unbatched_proposals_decide_the_same_state(seed, tags, batch, backend):
    """Batching is a scheduling optimization: the decided join is unchanged."""
    scripts = {
        "writer": [("update", TAGS.op_add(tag)) for tag in sorted(tags)] + [("read",)],
    }
    results = {}
    for batch_size in (None, batch):
        scenario = build_scenario(
            "rsm", 4, 1, inputs=scripts,
            rounds=2 * len(tags) + 8, seed=seed, backend=backend,
            batch_size=batch_size, max_messages=300_000,
        ).run()
        history = scenario.extras["histories"]["writer"]
        assert all(record.completed for record in history)
        results[batch_size] = [r for r in history if r.kind == "read"][-1].result
    assert TAGS.value(results[batch]) == TAGS.value(results[None]) == tags
