"""Unit tests for replica/client message handling details."""

from repro.core.process import NEWROUND
from repro.engine import FixedDelay, KernelEngine
from repro.engine import ProtocolCore
from repro.rsm import Replica, RSMClient, make_command
from repro.rsm.replica import ConfirmReply, ConfirmRequest, DecideNotice, UpdateRequest


class _Sink(ProtocolCore):
    def __init__(self, pid):
        super().__init__(pid)
        self.received = []

    def on_message(self, sender, payload):
        self.received.append((sender, payload))


REPLICAS = ["r0", "r1", "r2", "r3"]


def build_cluster(with_client=True):
    network = KernelEngine(delay_model=FixedDelay(1.0), seed=0)
    replicas = [network.add_core(Replica(pid, REPLICAS, f=1, max_rounds=4)) for pid in REPLICAS]
    client = network.add_core(_Sink("client")) if with_client else None
    return network, replicas, client


class TestReplica:
    def test_update_request_admits_command(self):
        network, replicas, client = build_cluster()
        network.start()
        command = make_command("client", 1, ("obj", "add", "x"))
        network.submit("client", "r0", UpdateRequest(command=command))
        network.run(max_messages=5000)
        assert command in replicas[0].admitted_commands
        # The command eventually appears in the replica's decisions.
        assert any(command in decision for decision in replicas[0].decisions)

    def test_malformed_update_request_filtered(self):
        network, replicas, client = build_cluster()
        network.start()
        network.submit("client", "r0", UpdateRequest(command="not-a-command"))
        network.run(max_messages=5000)
        assert replicas[0].admitted_commands == []

    def test_decide_notice_sent_to_interested_client(self):
        network, replicas, client = build_cluster()
        network.start()
        command = make_command("client", 1, ("obj", "add", "x"))
        for pid in REPLICAS[:2]:
            network.submit("client", pid, UpdateRequest(command=command))
        network.run(max_messages=8000)
        notices = [p for _, p in client.received if isinstance(p, DecideNotice)]
        assert notices and all(command in n.accepted_set for n in notices)
        # Notices come from at least f+1 = 2 distinct replicas.
        assert len({n.replica for n in notices}) >= 2

    def test_confirmation_answered_only_for_committed_values(self):
        network, replicas, client = build_cluster()
        network.start()
        command = make_command("client", 1, ("obj", "add", "x"))
        network.submit("client", "r0", UpdateRequest(command=command))
        # A value nobody ever proposed must never be confirmed.
        bogus = frozenset({make_command("client", 99, ("obj", "add", "zzz"))})
        network.submit("client", "r0", ConfirmRequest(accepted_set=bogus))
        network.run(max_messages=8000)
        replies = [p for _, p in client.received if isinstance(p, ConfirmReply)]
        assert all(p.accepted_set != bogus for p in replies)

    def test_confirmation_of_a_later_commit_is_answered_once_when_it_commits(self):
        network, replicas, client = build_cluster()
        commit_times = {}
        original = replicas[0]._store_ack

        def store_ack(origin, key, accepted):
            acceptors = original(origin, key, accepted)
            if accepted in replicas[0]._committed_sets:
                commit_times.setdefault(accepted, replicas[0].now)
            return acceptors

        replicas[0]._store_ack = store_ack
        network.start()
        command = make_command("client", 1, ("obj", "add", "x"))
        value = frozenset({command})
        network.submit("client", "r0", UpdateRequest(command=command))
        network.submit("client", "r0", ConfirmRequest(accepted_set=value))
        network.run(max_messages=20000)
        replies = [
            envelope for envelope in network.delivery_log
            if envelope.dest == "client" and isinstance(envelope.payload, ConfirmReply)
        ]
        assert len(replies) == 1 and replies[0].payload.accepted_set == value
        request = next(e for e in network.delivery_log if isinstance(e.payload, ConfirmRequest))
        # Pending when it arrived, answered by the delivery that committed it.
        assert request.deliver_time < commit_times[value] == replies[0].send_time

    def test_late_update_for_a_decided_command_is_notified_at_once(self):
        network, replicas, client = build_cluster()
        network.start()
        command = make_command("client", 1, ("obj", "add", "x"))
        network.submit("client", "r1", UpdateRequest(command=command))
        network.run(max_messages=20000)
        assert all(command in replica.decisions[-1] for replica in replicas)
        # Idle: between rounds, with nothing in flight.
        assert all(replica.state == NEWROUND for replica in replicas)
        assert network.pending_messages == 0
        before = len(network.delivery_log)
        # The client's retry reaches r0, which never heard from it.
        network.submit("client", "r0", UpdateRequest(command=command))
        network.run(max_messages=20000)
        late = network.delivery_log[before:]
        assert [(e.dest, type(e.payload)) for e in late] == [("r0", UpdateRequest), ("client", DecideNotice)]
        assert late[1].send_time == late[0].deliver_time
        assert command in late[1].payload.accepted_set


    def test_notified_commands_leave_the_pending_table_and_are_not_notified_twice(self):
        """The per-message walk covers work in flight only: once a command's
        clients were told, its entry is gone — and a retry of an already
        notified ``(client, command)`` neither re-enters it nor re-notifies."""
        network, replicas, client = build_cluster()
        network.start()
        commands = [make_command("client", seq, ("obj", "add", seq)) for seq in (1, 2)]
        for command in commands:
            network.submit("client", "r0", UpdateRequest(command=command))
        network.run(max_messages=20000)
        notices = [p for s, p in client.received if s == "r0" and isinstance(p, DecideNotice)]
        assert len(notices) == 2
        assert replicas[0]._unnotified == {}
        network.submit("client", "r0", UpdateRequest(command=commands[0]))  # the client's retry
        network.run(max_messages=20000)
        assert replicas[0]._unnotified == {}
        assert len([p for s, p in client.received if s == "r0" and isinstance(p, DecideNotice)]) == 2

    def test_round_and_commit_views_agree_with_the_ack_history(self):
        """``ack_history`` stays the record; the per-round view holds the same
        keys in the same order with the same acceptor sets, and the committed
        sets are exactly the quorum-backed ones."""
        network, replicas, client = build_cluster()
        network.start()
        # One command at a time, each run to quiescence, so they span rounds.
        for seq in (1, 2, 3):
            network.submit("client", "r0", UpdateRequest(command=make_command("client", seq, ("o", seq))))
            network.run(max_messages=40000)
        for replica in replicas:
            history = replica.ack_history
            assert history and any(key[3] > 0 for key in history)
            regrouped = [key for round_no in sorted(replica._round_acks) for key in replica._round_acks[round_no]]
            assert regrouped == sorted(history, key=lambda key: key[3])  # stable: order within a round kept
            for acks in replica._round_acks.values():
                assert all(acks[key] is history[key] for key in acks)
            quorum_backed = {
                replica._proposals[key] for key, acceptors in history.items() if len(acceptors) >= replica.quorum
            }
            assert replica._committed_sets == quorum_backed and quorum_backed


class TestClientUnit:
    def test_client_script_validation(self):
        network = KernelEngine(delay_model=FixedDelay(1.0), seed=0)
        client = RSMClient("c", REPLICAS, f=1, script=[("bogus-kind",)])
        network.add_core(client)
        for pid in REPLICAS:
            network.add_core(_Sink(pid))
        try:
            network.start()
            raised = False
        except ValueError:
            raised = True
        assert raised

    def test_client_sends_updates_to_f_plus_1_replicas(self):
        # Retries disabled: after the timeout the client deliberately
        # escalates to *all* replicas (tested in tests/rsm/test_client_retry.py);
        # here we pin the initial Algorithm 5 line 3 submission to f + 1.
        network = KernelEngine(delay_model=FixedDelay(1.0), seed=0)
        client = RSMClient(
            "c", REPLICAS, f=1, script=[("update", ("obj", "add", 1))], retry_timeout=None
        )
        network.add_core(client)
        sinks = [network.add_core(_Sink(pid)) for pid in REPLICAS]
        network.run_until_quiescent()
        contacted = [sink.pid for sink in sinks if sink.received]
        assert len(contacted) == 2  # f + 1

    def test_client_completes_after_f_plus_1_matching_notices(self):
        network = KernelEngine(delay_model=FixedDelay(1.0), seed=0)
        client = RSMClient("c", REPLICAS, f=1, script=[("update", ("obj", "add", 1))])
        network.add_core(client)
        for pid in REPLICAS:
            network.add_core(_Sink(pid))
        network.start()
        command = client.history[0].command
        accepted = frozenset({command})
        network.submit("r0", "c", DecideNotice(accepted_set=accepted, replica="r0"))
        network.submit("r1", "c", DecideNotice(accepted_set=accepted, replica="r1"))
        network.run_until_quiescent()
        assert client.all_completed
        assert client.history[0].completed

    def test_notice_without_own_command_is_ignored(self):
        network = KernelEngine(delay_model=FixedDelay(1.0), seed=0)
        client = RSMClient("c", REPLICAS, f=1, script=[("update", ("obj", "add", 1))])
        network.add_core(client)
        for pid in REPLICAS:
            network.add_core(_Sink(pid))
        network.start()
        other = frozenset({make_command("other", 1, "op")})
        network.submit("r0", "c", DecideNotice(accepted_set=other, replica="r0"))
        network.submit("r1", "c", DecideNotice(accepted_set=other, replica="r1"))
        # The client's retry timer never lets the run go quiet: stop on time.
        network.run(stop_when=lambda: network.now >= 10.0)
        notices = [env.sender for env in network.delivery_log if isinstance(env.payload, DecideNotice)]
        assert notices == ["r0", "r1"]
        assert not client.history[0].completed
