"""Backend equivalence: kernel, turbo and async execute the *same* schedule.

The kernel backend is turbo's event loop plus recording (envelopes,
per-type/size metrics, the delivery log), so kernel == turbo here pins that
recording consumes no RNG draw and no sequence number: for the same (cores,
seed, scheduler, fault plan) both must reach identical decision values and
output lattices.  Pinned on the E1 (WTS chain), E6 (GWTS) and E8 (RSM)
workload shapes across several seeds.  The external reference for the
schedule itself is the frozen seed-implementation JSON under
``tests/golden/`` (``tests/transport/test_golden_trace.py``,
``tests/sim/test_scheduler_golden.py``), not either backend's code.

The async backend's default in-process transport (determinism-lite mode)
is the kernel backend on a wall clock: it runs the kernel's sink methods,
calendar and turbo's loop unchanged, so it replays the kernel's schedule by
construction, and its decided values and outputs equal the kernel's too.
Its *timestamps* are wall-clock and are deliberately excluded from these
comparisons (repro-results/v3 marks them as such).
"""

import pytest

from repro.core.sbs import SbSProcess
from repro.core.wts import WTSProcess
from repro.crypto.signatures import KeyRegistry
from repro.engine import AsyncEngine
from repro.engine.delays import AdversarialTargetedDelay, FixedDelay, UniformDelay
from repro.harness import build_scenario
from repro.lattice.set_lattice import SetLattice
from repro.rsm.crdt import GCounterObject, GSetObject


def decisions_of(scenario):
    return {pid: list(decs) for pid, decs in scenario.decisions().items()}


class TestCrossBackendGolden:
    @pytest.mark.parametrize("seed", [11, 2026, 77])
    def test_e1_wts_decisions_identical(self, seed):
        kernel = build_scenario("wts", 4, 1, seed=seed, backend="kernel").run()
        turbo = build_scenario("wts", 4, 1, seed=seed, backend="turbo").run()
        assert kernel.check_la().ok and turbo.check_la().ok
        assert decisions_of(kernel) == decisions_of(turbo)
        # The output lattice (join of everything decided) matches exactly.
        lattice = kernel.lattice
        assert lattice.join_all(
            value for decs in decisions_of(kernel).values() for value in decs
        ) == lattice.join_all(
            value for decs in decisions_of(turbo).values() for value in decs
        )

    @pytest.mark.parametrize("seed", [7, 23])
    def test_e6_gwts_decision_chains_identical(self, seed):
        kwargs = dict(n=4, f=1, values_per_process=2, rounds=3, seed=seed)
        kernel = build_scenario("gwts", backend="kernel", **kwargs).run()
        turbo = build_scenario("gwts", backend="turbo", **kwargs).run()
        assert decisions_of(kernel) == decisions_of(turbo)
        assert kernel.run.end_time == pytest.approx(turbo.run.end_time)

    @pytest.mark.parametrize("seed", [5, 41])
    def test_e8_rsm_histories_identical(self, seed):
        counter = GCounterObject("hits")
        gset = GSetObject("tags")
        scripts = {
            "c0": [("update", counter.op_inc(1)), ("read",)],
            "c1": [("update", gset.op_add("x")), ("read",)],
        }
        kwargs = dict(n=4, f=1, inputs=scripts, rounds=8, seed=seed)
        kernel = build_scenario("rsm", backend="kernel", **kwargs).run()
        turbo = build_scenario("rsm", backend="turbo", **kwargs).run()
        for cid in scripts:
            k_history = kernel.extras["histories"][cid]
            t_history = turbo.extras["histories"][cid]
            assert [(r.kind, r.result, r.start_time, r.end_time) for r in k_history] == [
                (r.kind, r.result, r.start_time, r.end_time) for r in t_history
            ]
        # Replica decision chains (the RSM's output lattice) match too.
        assert decisions_of(kernel) == decisions_of(turbo)

    def test_backends_match_under_faults_and_adversarial_schedule(self):
        kwargs = dict(
            n=4,
            f=1,
            values_per_process=1,
            rounds=3,
            seed=13,
            scheduler="worst-case:victims=quorum,starve=40,fast=1",
            fault_plan="crash:0@5-25",
        )
        kernel = build_scenario("gwts", backend="kernel", **kwargs).run()
        turbo = build_scenario("gwts", backend="turbo", **kwargs).run()
        assert decisions_of(kernel) == decisions_of(turbo)
        assert kernel.run.end_time == pytest.approx(turbo.run.end_time)

    def test_probe_envelope_exposes_every_field_to_delay_models(self):
        """A delay model reading seq/sender/dest off the envelope must see
        identical values on every backend (turbo reuses one probe envelope —
        a stale field here silently forks the schedule)."""

        def chooser(envelope, rng):
            if envelope.seq % 3 == 0 or envelope.dest == "p0":
                return 7.0
            return None

        def build(backend):
            return build_scenario(
                "wts", 4, 1,
                seed=9,
                backend=backend,
                delay_model=AdversarialTargetedDelay(chooser, base=FixedDelay(1.0)),
            ).run()

        kernel, turbo, run_async = build("kernel"), build("turbo"), build("async")
        assert decisions_of(kernel) == decisions_of(turbo) == decisions_of(run_async)
        assert kernel.run.end_time == pytest.approx(turbo.run.end_time)
        assert kernel.run.delivered == turbo.run.delivered == run_async.run.delivered
        # The async envelopes carry the kernel's seq numbers and send times.
        assert [(env.seq, env.send_time) for env in run_async.engine.delivery_log] == [
            (env.seq, env.send_time) for env in kernel.engine.delivery_log
        ]

    def test_turbo_send_counts_match_kernel(self):
        kernel = build_scenario("wts", 4, 1, seed=11, backend="kernel").run()
        turbo = build_scenario("wts", 4, 1, seed=11, backend="turbo").run()
        assert turbo.metrics.decisions  # stop predicates & invariants work
        # Same schedule => identical per-process send tallies...
        assert turbo.metrics.sent_by_process == kernel.metrics.sent_by_process
        assert turbo.metrics.total_sent == kernel.metrics.total_sent
        # ...but per-type/size accounting is kernel-only by design.
        assert not turbo.metrics.sent_by_type and kernel.metrics.sent_by_type
        assert turbo.backend == "turbo"


class TestAsyncBackendGolden:
    """AsyncEngine (memory transport) reproduces the kernel's decisions.

    Safety is schedule-independent, but these tests pin something stronger:
    the determinism-lite transport is the kernel's loop with a wall-clock
    stamp, so it replays the kernel's schedule by construction and decided
    *values* (not just their joins) match per process.  Wall-clock
    timestamps are excluded — they are measurements, not schedule state.
    """

    @pytest.mark.parametrize("seed", [11, 2026, 77])
    def test_e1_wts_decisions_identical(self, seed):
        kernel = build_scenario("wts", 4, 1, seed=seed, backend="kernel").run()
        run_async = build_scenario("wts", 4, 1, seed=seed, backend="async").run()
        assert kernel.check_la().ok and run_async.check_la().ok
        assert decisions_of(kernel) == decisions_of(run_async)

    @pytest.mark.parametrize("seed", [7, 23])
    def test_e6_gwts_decision_chains_identical(self, seed):
        kwargs = dict(n=4, f=1, values_per_process=2, rounds=3, seed=seed)
        kernel = build_scenario("gwts", backend="kernel", **kwargs).run()
        run_async = build_scenario("gwts", backend="async", **kwargs).run()
        assert decisions_of(kernel) == decisions_of(run_async)

    @pytest.mark.parametrize("seed", [5, 41])
    def test_e8_rsm_results_identical(self, seed):
        counter = GCounterObject("hits")
        gset = GSetObject("tags")
        scripts = {
            "c0": [("update", counter.op_inc(1)), ("read",)],
            "c1": [("update", gset.op_add("x")), ("read",)],
        }
        kwargs = dict(n=4, f=1, inputs=scripts, rounds=8, seed=seed)
        kernel = build_scenario("rsm", backend="kernel", **kwargs).run()
        run_async = build_scenario("rsm", backend="async", **kwargs).run()
        for cid in scripts:
            k_history = kernel.extras["histories"][cid]
            a_history = run_async.extras["histories"][cid]
            # Operation kinds and results match; times are wall-clock on
            # the async backend and are deliberately not compared.
            assert [(r.kind, r.result) for r in k_history] == [
                (r.kind, r.result) for r in a_history
            ]
        assert decisions_of(kernel) == decisions_of(run_async)

    def test_async_matches_kernel_under_faults_and_adversarial_schedule(self):
        kwargs = dict(
            n=4,
            f=1,
            values_per_process=1,
            rounds=3,
            seed=13,
            scheduler="worst-case:victims=quorum,starve=40,fast=1",
            fault_plan="crash:0@5-25",
        )
        kernel = build_scenario("gwts", backend="kernel", **kwargs).run()
        run_async = build_scenario("gwts", backend="async", **kwargs).run()
        assert decisions_of(kernel) == decisions_of(run_async)

    def test_async_send_counts_and_wall_clock_times(self):
        kernel = build_scenario("wts", 4, 1, seed=11, backend="kernel").run()
        run_async = build_scenario("wts", 4, 1, seed=11, backend="async").run()
        assert run_async.metrics.sent_by_process == kernel.metrics.sent_by_process
        assert run_async.metrics.total_sent == kernel.metrics.total_sent
        assert run_async.backend == "async"
        # Timestamps are wall-clock seconds: tiny, positive, monotone-ish —
        # nothing like the kernel's simulated delay units.
        assert run_async.run.end_time > 0.0
        assert run_async.run.wall_time_s >= run_async.run.end_time * 0.1
        assert run_async.engine.clock.time_source == "wall-clock"


@pytest.mark.parametrize("framing", ["json", "binary"])
class TestTcpFramingGolden:
    """The golden invariants pinned on real sockets, once per wire framing.

    TCP delivery order is genuinely nondeterministic (the OS schedules the
    frames), so per-process decision *values* cannot be replayed against the
    kernel here — that equality lives in the memory-transport classes above,
    and framing cannot perturb it because the memory transport never
    serialises.  What real sockets must pin is everything the codec could
    break: the schedule-independent LA invariants (comparability, validity,
    inclusivity), liveness to decision, and — the sharpest codec probe —
    cryptographic signatures verifying on proof bundles whose every byte
    crossed the wire.
    """

    def _wts_cluster(self, framing, seed):
        lattice = SetLattice()
        pids = [f"p{i}" for i in range(4)]
        engine = AsyncEngine(
            delay_model=UniformDelay(0.5, 2.0),
            seed=seed,
            transport="tcp",
            time_scale=0.0005,
            framing=framing,
        )
        nodes = {
            pid: engine.add_core(
                WTSProcess(pid, lattice, pids, 1, proposal=frozenset({f"v-{pid}"}))
            )
            for pid in pids
        }
        return engine, nodes, pids

    @pytest.mark.parametrize("seed", [11, 2026])
    def test_e1_wts_la_invariants_over_sockets(self, framing, seed):
        engine, nodes, pids = self._wts_cluster(framing, seed)
        result = engine.run(
            stop_when=lambda: all(n.has_decided for n in nodes.values()),
            max_wall_s=60.0,
        )
        assert result.stopped_by_predicate  # liveness: everyone decided
        assert engine.framing == framing
        decisions = {pid: nodes[pid].decisions[0] for pid in pids}
        # Comparability: decisions form a chain.
        values = list(decisions.values())
        assert all(a <= b or b <= a for a in values for b in values)
        # Inclusivity + validity: own proposal <= decision <= join of all.
        everything = frozenset(f"v-{pid}" for pid in pids)
        for pid in pids:
            assert f"v-{pid}" in decisions[pid]
            assert decisions[pid] <= everything

    def test_sbs_signatures_verify_after_the_socket_trip(self, framing):
        """Every decided proof bundle was serialised, framed, carried over a
        real TCP connection and decoded — its signatures must still verify."""
        lattice = SetLattice()
        pids = [f"p{i}" for i in range(4)]
        registry = KeyRegistry(seed=3)
        engine = AsyncEngine(
            delay_model=UniformDelay(0.5, 2.0),
            seed=7,
            transport="tcp",
            time_scale=0.0005,
            framing=framing,
        )
        nodes = {
            pid: engine.add_core(
                SbSProcess(
                    pid,
                    lattice,
                    pids,
                    1,
                    registry=registry,
                    proposal=frozenset({f"v-{pid}"}),
                )
            )
            for pid in pids
        }
        result = engine.run(
            stop_when=lambda: all(n.has_decided for n in nodes.values()),
            max_wall_s=60.0,
        )
        assert result.stopped_by_predicate
        verified = 0
        for node in nodes.values():
            assert node.decided_proven  # the proofs the decision stood on
            for proven in node.decided_proven:
                assert registry.verify(proven.value)
                for ack in proven.safe_acks:
                    assert registry.verify(ack.signature)
                    verified += 1
        assert verified > 0
        # Wall-clock backends report the tail-latency histogram of the run.
        latency = result.decision_latency
        assert latency["count"] == len(pids)
        assert 0.0 < latency["p50"] <= latency["p99"] <= latency["max"]
