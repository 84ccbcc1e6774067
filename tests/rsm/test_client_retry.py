"""Timeout-driven client retry: kernel timers instead of harness re-injection."""

import pytest

from repro.engine import Deliver, FixedDelay, Send, Start, TimerFired
from repro.explore.invariants import rsm_invariants
from repro.harness import build_scenario
from repro.rsm.checker import check_rsm_history
from repro.rsm.client import RSMClient
from repro.rsm.crdt import GCounterObject
from repro.rsm.replica import ConfirmReply, ConfirmRequest, DecideNotice, UpdateRequest
from repro.sim import FaultPlan

REPLICAS = ("p0", "p1", "p2", "p3")


def build_scripts(counter):
    return {"c0": [("update", counter.op_inc(1)), ("read",)]}


class TestClientRetry:
    def test_retry_fires_under_partition_and_operation_completes(self):
        counter = GCounterObject("hits")
        # Cut the client off from every replica well past its retry timeout;
        # the retries are duplicates (held + re-sent), which replicas must
        # absorb idempotently.
        plan = FaultPlan().partition(
            ["c0"], ["p0", "p1", "p2", "p3"], at=0.0, heal_at=15.0
        )
        scenario = build_scenario(
            "rsm", 4, 1,
            inputs=build_scripts(counter),
            rounds=14,
            delay_model=FixedDelay(1.0),
            seed=3,
            fault_plan=plan,
            client_retry_timeout=6.0,
        ).run()
        client = scenario.extras["clients"]["c0"]
        assert client.retries >= 1
        assert client.all_completed
        history = scenario.extras["histories"].values()
        admissible = {
            record.command for records in history for record in records
        }
        check = check_rsm_history(
            scenario.extras["histories"].values(), admissible_commands=admissible
        )
        assert check.ok, check
        read = [r for r in client.history if r.kind == "read"][0]
        assert counter.value(read.result) == 1

    def test_no_retries_in_calm_runs(self):
        counter = GCounterObject("hits")
        scenario = build_scenario(
            "rsm", 4, 1,
            inputs=build_scripts(counter),
            rounds=8,
            delay_model=FixedDelay(1.0),
            seed=3,
        ).run()
        client = scenario.extras["clients"]["c0"]
        assert client.all_completed
        assert client.retries == 0

    def test_retry_escalates_to_all_replicas(self):
        counter = GCounterObject("hits")
        plan = FaultPlan().partition(
            ["c0"], ["p0", "p1", "p2", "p3"], at=0.0, heal_at=25.0
        )
        scenario = build_scenario(
            "rsm", 4, 1,
            inputs=build_scripts(counter),
            rounds=8,
            delay_model=FixedDelay(1.0),
            seed=3,
            fault_plan=plan,
            client_retry_timeout=10.0,
        ).run()
        # After the heal, the retried update reaches all four replicas, not
        # just the initial f + 1 = 2.
        update_dests = {
            env.dest
            for env in scenario.engine.delivery_log
            if env.sender == "c0" and env.mtype == "rsm_update"
        }
        assert update_dests == {"p0", "p1", "p2", "p3"}


def update_dests(effects):
    """Destinations of the ``UpdateRequest`` sends among ``effects``, in order."""
    return tuple(
        effect.dest
        for effect in effects
        if isinstance(effect, Send) and isinstance(effect.payload, UpdateRequest)
    )


def notice(client, replica):
    """``replica``'s decide notice covering the client's latest command."""
    accepted = frozenset({client.history[-1].command})
    return Deliver(replica, DecideNotice(accepted_set=accepted, replica=replica))


def retry(client):
    """The retry timer of the client's latest operation, fired."""
    return TimerFired(client.RETRY_TAG, client.history[-1].command.seq)


class TestPreferenceOrder:
    """Sans-I/O: which ``f + 1`` replicas a submission goes to."""

    def make_client(self, script):
        return RSMClient("c0", REPLICAS, 1, script=script, retry_timeout=10.0)

    def test_first_update_goes_to_the_first_f_plus_1(self):
        client = self.make_client([("update", 1)])
        assert update_dests(client.handle(Start())) == ("p0", "p1")

    def test_silent_target_moves_to_the_back_after_a_timeout(self):
        client = self.make_client([("update", 1), ("update", 2)])
        client.handle(Start())
        client.handle(notice(client, "p1"))
        # p0 stayed silent: the retry escalates to everyone and demotes p0.
        assert update_dests(client.handle(retry(client))) == REPLICAS
        assert client.retries == 1
        assert client._order[-1] == "p0"
        # p2's notice completes the update; the next one skips p0.
        assert update_dests(client.handle(notice(client, "p2"))) == ("p1", "p2")

    def test_no_timeouts_never_reorder(self):
        client = self.make_client([("update", k) for k in range(4)])
        sends = [update_dests(client.handle(Start()))]
        for _ in range(4):
            client.handle(notice(client, "p1"))
            sends.append(update_dests(client.handle(notice(client, "p0"))))
        assert sends == [("p0", "p1")] * 4 + [()]
        assert client.all_completed and client.retries == 0
        assert client._order == list(REPLICAS)

    def test_confirm_phase_timeout_does_not_reorder(self):
        client = self.make_client([("read",), ("update", 1)])
        assert update_dests(client.handle(Start())) == ("p0", "p1")
        # p1 and the uncontacted p2 answer: the read enters its confirm
        # phase with its target p0 still silent.
        client.handle(notice(client, "p1"))
        client.handle(notice(client, "p2"))
        sends = [e for e in client.handle(retry(client)) if isinstance(e, Send)]
        assert client.retries == 1
        # The retry re-asks every replica to confirm; nothing is re-submitted.
        assert all(isinstance(e.payload, ConfirmRequest) for e in sends)
        assert {e.dest for e in sends} == set(REPLICAS)
        (value,) = {e.payload.accepted_set for e in sends}
        client.handle(Deliver("p1", ConfirmReply(accepted_set=value, replica="p1")))
        effects = client.handle(Deliver("p2", ConfirmReply(accepted_set=value, replica="p2")))
        assert update_dests(effects) == ("p0", "p1")


def counter_scripts(counter):
    return {c: [("update", counter.op_inc(1))] * 10 + [("read",)] for c in ("c0", "c1")}


class TestCrashedTarget:
    """A replica the clients contact first is crashed for the whole run."""

    @pytest.mark.parametrize(
        "fault_plan, deliveries",
        [(None, 8_197), ("crash:0@0-100000", 2_976), ("crash:1@0-100000", 2_976)],
    )
    def test_only_the_first_operation_pays_the_timer(self, fault_plan, deliveries):
        counter = GCounterObject("hits")
        result = build_scenario(
            "rsm", 4, 1, inputs=counter_scripts(counter), rounds=1000, seed=3,
            fault_plan=fault_plan,
        ).run()
        clients = result.extras["clients"]
        assert all(client.all_completed for client in clients.values())
        # One retry per client: the first timeout demotes the dead replica,
        # so the client's ten later operations never wait on it.
        expected = 0 if fault_plan is None else 1
        assert [client.retries for client in clients.values()] == [expected, expected]
        assert result.run.delivered == deliveries
        histories = result.extras["histories"].values()
        admissible = {record.command for records in histories for record in records}
        assert check_rsm_history(histories, admissible_commands=admissible).ok

    def test_each_shard_client_learns_its_own_order(self):
        counter = GCounterObject("hits")
        result = build_scenario(
            "rsm", 8, 1, inputs=counter_scripts(counter), rounds=1000, seed=3,
            fault_plan="crash:0@0-100000+crash:5@0-100000", shards=2,
        ).run()
        for client in result.extras["clients"].values():
            assert client.all_completed
            shard0, shard1 = client.clients
            assert (shard0.retries, shard0._order) == (1, ["p1", "p2", "p3", "p0"])
            assert (shard1.retries, shard1._order) == (1, ["p4", "p6", "p7", "p5"])
        assert rsm_invariants(result) == {}
