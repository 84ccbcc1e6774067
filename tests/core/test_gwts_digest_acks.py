"""GWTS acks name the request they accept by its token, not by its set.

A ``RoundAck`` carries ``proposal``, the canonical token of the request it
acknowledges, and every process counts it only under a request it received
itself with that token (the argument is in :mod:`repro.core.gwts`).  These
tests pin the three things that design must keep:

* an equivocating proposer that sends two different requests under one
  ``(ts, round)`` cannot merge their acks into one quorum: every acceptor
  counted under a key accepted that exact request;
* an ack that arrives before its request waits for it, and a quorum of
  acks naming a token no received request carries is never counted;
* ack frames stay the same size as the replicated history grows.
"""

import pytest

from repro.broadcast.reliable import RBInit
from repro.core.gwts import GWTSProcess, request_token
from repro.core.messages import RoundAck, RoundAckRequest
from repro.engine import Deliver, Start
from repro.engine.wire import get_codec
from repro.harness import build_scenario
from repro.lattice import SetLattice
from repro.rsm import GCounterObject, check_rsm_history
from repro.rsm.replica import Replica

MEMBERS = ["p0", "p1", "p2", "p3"]
COUNTER = GCounterObject("hits")


class SplitRequests:
    """Equivocating proposer: under one ``(ts, round)``, request ``S1`` goes
    to itself and the first two other members, a different ``S2`` (``S1``
    less one value) to the third.  Both sets are safe wherever ``S1`` is."""

    is_byzantine = True

    def _broadcast_ack_request(self):
        s1 = self.proposed_set
        s2 = frozenset(sorted(s1, key=repr)[1:])
        others = [member for member in self.members if member != self.pid]
        for dest in [self.pid, *others]:
            proposed = s2 if dest == others[2] else s1
            self.send_to(dest, RoundAckRequest(proposed_set=proposed, ts=self.ts, round=self.round))


class SplitGWTS(SplitRequests, GWTSProcess):
    pass


class SplitReplica(SplitRequests, Replica):
    def __init__(self, pid, lattice, members, f, **kwargs):
        super().__init__(pid, members, f, lattice=lattice, **kwargs)


def split_gwts(pid, lattice, members, f):
    return SplitGWTS(pid, lattice, members, f, max_rounds=3)


def split_replica(pid, lattice, members, f):
    return SplitReplica(pid, lattice, members, f, max_rounds=12)


def scripts(updates):
    return {
        client: [("update", COUNTER.op_inc(k)) for k in range(1, updates + 1)] + [("read",)]
        for client in ("alice", "bob")
    }


SCENARIOS = {
    "gwts": lambda seed: build_scenario(
        "gwts", 4, 1, values_per_process=2, rounds=3, seed=seed, byzantine_factories=[split_gwts]
    ).run(),
    "rsm": lambda seed: build_scenario(
        "rsm", 4, 1, inputs=scripts(2), rounds=12, seed=seed, byzantine_factories=[split_replica]
    ).run(),
}


def requests_received(scenario):
    """(acceptor, proposer, ts, round) -> tokens of the requests it received."""
    received = {}
    for env in scenario.engine.delivery_log:
        if isinstance(env.payload, RoundAckRequest):
            key = (env.dest, env.sender, env.payload.ts, env.payload.round)
            received.setdefault(key, set()).add(request_token(env.payload))
    return received


def split_rounds(scenario, proposer):
    """How many of ``proposer``'s ``(ts, round)`` had acks naming two requests."""
    tokens = {}
    for env in scenario.engine.delivery_log:
        ack = getattr(env.payload, "value", None)
        if isinstance(env.payload, RBInit) and isinstance(ack, RoundAck) and ack.destination == proposer:
            tokens.setdefault((ack.ts, ack.round), set()).add(ack.proposal)
    return sum(len(named) > 1 for named in tokens.values())


@pytest.mark.parametrize("protocol", sorted(SCENARIOS))
def test_an_equivocator_cannot_merge_the_acks_of_its_two_requests(protocol):
    split = 0
    for seed in range(20):
        scenario = SCENARIOS[protocol](seed)
        received = requests_received(scenario)
        split += split_rounds(scenario, scenario.byzantine_pids[0])
        for node in scenario.correct_nodes():
            for (token, dest, ts, round_no), acceptors in node.ack_history.items():
                for acceptor in acceptors:
                    assert token in received.get((acceptor, dest, ts, round_no), ()), (seed, node.pid, acceptor)
        if protocol == "gwts":
            assert scenario.check_gla().ok, (seed, str(scenario.check_gla()))
        else:
            histories = scenario.extras["histories"]
            assert all(record.completed for history in histories.values() for record in history), seed
            assert check_rsm_history(histories.values()).ok, seed
    # The attack really split the acks: acceptors acked both requests.
    assert split > 0


def started_gwts():
    process = GWTSProcess("p0", SetLattice(), MEMBERS, 1, max_rounds=3)
    process.handle(Start())
    return process


def test_an_ack_delivered_before_its_request_waits_for_it():
    process = started_gwts()
    request = RoundAckRequest(proposed_set=frozenset(), ts=1, round=0)
    ack = RoundAck(request_token(request), "p1", "p3", 1, 0)
    process._on_rb_deliver("p3", ("ack", 0, 1, "p1"), ack)
    assert process.waiting_msgs == [("p3", ack)] and not process.ack_history
    process.handle(Deliver("p1", request))
    assert process.waiting_msgs == []
    assert process.ack_history == {(request_token(request), "p1", 1, 0): {"p3"}}


def test_a_quorum_naming_an_unknown_token_is_never_counted():
    process = started_gwts()
    # Three disclosures: p0 proposes in round 0 and would decide on a quorum.
    for origin in ("p1", "p2", "p3"):
        process._on_rb_deliver(origin, ("disclosure", 0), frozenset({origin}))
    assert process.state == "proposing"
    unknown = "H" + "0" * 64
    for origin in ("p1", "p2", "p3"):
        ack = RoundAck(unknown, "p0", origin, process.ts, 0)
        process._on_rb_deliver(origin, ("ack", 0, process.ts, "p0"), ack)
    assert process.safe_round == 0 and not process.decisions
    assert not process.ack_history and len(process.waiting_msgs) == 3


def largest_ack_frame(updates):
    """Bytes of the largest JSON-framed reliable-broadcast ack of a kernel RSM run."""
    scenario = build_scenario("rsm", 4, 1, inputs=scripts(updates), rounds=4 * updates, seed=5).run()
    assert all(record.completed for history in scenario.extras["histories"].values() for record in history)
    codec = get_codec("json")
    sizes = [
        len(codec.encode_frame(env.payload))
        for env in scenario.engine.delivery_log
        if isinstance(getattr(env.payload, "value", None), RoundAck)
    ]
    return max(sizes)


def test_ack_frames_stay_flat_as_the_history_grows():
    short, long = largest_ack_frame(5), largest_ack_frame(20)
    # Round and ts numbers grow by a digit or two; the history does not show.
    assert abs(long - short) <= 4, (short, long)

