"""End-to-end RSM tests (Algorithms 5-7 over GWTS replicas)."""


from repro.byzantine import SilentByzantine
from repro.harness import build_scenario
from repro.rsm import GCounterObject, GSetObject, check_rsm_history


def silent_replica(pid, lattice, members, f):
    return SilentByzantine(pid)


COUNTER = GCounterObject("hits")
TAGS = GSetObject("tags")


def basic_scripts(updates_per_client=2):
    return {
        "alice": [("update", COUNTER.op_inc(1)) for _ in range(updates_per_client)] + [("read",)],
        "bob": [("update", TAGS.op_add(f"t{k}")) for k in range(updates_per_client)] + [("read",)],
    }


class TestFailureFreeRSM:
    def test_all_operations_complete_and_properties_hold(self):
        scenario = build_scenario(
            "rsm", 4, 1, inputs=basic_scripts(), rounds=8, seed=1
        ).run()
        histories = scenario.extras["histories"]
        assert all(
            record.completed for history in histories.values() for record in history
        )
        assert check_rsm_history(histories.values()).ok

    def test_read_reflects_prior_updates_of_same_client(self):
        scenario = build_scenario(
            "rsm", 4, 1, inputs=basic_scripts(3), rounds=10, seed=2
        ).run()
        history = scenario.extras["histories"]["alice"]
        final_read = [r for r in history if r.kind == "read"][-1]
        assert COUNTER.value(final_read.result) == 3

    def test_sequential_reads_grow(self):
        scripts = {
            "writer": [("update", COUNTER.op_inc(1)), ("update", COUNTER.op_inc(1))],
            "reader": [("read",), ("read",), ("read",)],
        }
        scenario = build_scenario("rsm", 4, 1, inputs=scripts, rounds=10, seed=3).run()
        reads = [r for r in scenario.extras["histories"]["reader"] if r.kind == "read"]
        values = [COUNTER.value(r.result) for r in reads]
        assert values == sorted(values)


class TestByzantineRSM:
    def test_silent_byzantine_replica_tolerated(self):
        scenario = build_scenario(
            "rsm", 4, 1, inputs=basic_scripts(),
            byzantine_factories=[silent_replica], rounds=8, seed=4,
        ).run()
        histories = scenario.extras["histories"]
        assert all(r.completed for h in histories.values() for r in h)
        assert check_rsm_history(histories.values()).ok

    def test_byzantine_clients_cannot_block_correct_clients(self):
        """Lemma 12: garbage, under-replicated and non-waiting clients are harmless."""
        scenario = build_scenario(
            "rsm", 4, 1, inputs=basic_scripts(),
            byzantine_factories=[silent_replica],
            byzantine_client_payloads={"mallory": ["junk1", "junk2"], "trudy": ["junk3"]},
            rounds=10, seed=5,
        ).run()
        histories = scenario.extras["histories"]
        assert all(r.completed for h in histories.values() for r in h)
        assert check_rsm_history(histories.values()).ok

    def test_malformed_commands_never_reach_state(self):
        """A command that is not a Command instance is filtered by replicas."""
        scenario = build_scenario(
            "rsm", 4, 1, inputs=basic_scripts(),
            byzantine_client_payloads={"mallory": ["junk"]},
            rounds=8, seed=6,
        ).run()
        for pid in scenario.correct_pids:
            replica = scenario.nodes[pid]
            for decision in replica.decisions:
                for command in decision:
                    # Only real Command objects ever enter the lattice.
                    assert hasattr(command, "client") and hasattr(command, "seq")

    def test_wait_freedom_reads_complete_while_writers_keep_writing(self):
        scripts = {
            "busy-writer": [("update", COUNTER.op_inc(1)) for _ in range(4)],
            "reader": [("read",), ("read",)],
        }
        scenario = build_scenario(
            "rsm", 4, 1, inputs=scripts,
            byzantine_factories=[silent_replica], rounds=12, seed=7,
        ).run()
        reads = [r for r in scenario.extras["histories"]["reader"] if r.kind == "read"]
        assert all(r.completed for r in reads)
