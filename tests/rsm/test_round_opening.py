"""When an RSM replica opens its next GWTS round.

A replica in ``NEWROUND`` opens the next round at once on a member's INIT of
its own disclosure for that round (or on delivering such a disclosure), at
once when its queue fills ``batch_size``, and after ``ROUND_HOLD`` when it
holds an undecided value; otherwise it stays idle.  Algorithm 3 opens every
round at once, so each test below also tells the two rules apart.
"""

import pytest

from repro.broadcast.reliable import RBInit
from repro.core.process import NEWROUND
from repro.engine import FixedDelay, KernelEngine, ProtocolCore, UniformDelay
from repro.engine.effects import Broadcast, SetTimer
from repro.engine.events import Deliver, Start, TimerFired
from repro.harness import build_scenario
from repro.rsm import Replica, make_command
from repro.rsm.crdt import GCounterObject
from repro.rsm.replica import HOLD_TAG, ROUND_HOLD, UpdateRequest

REPLICAS = ["r0", "r1", "r2", "r3"]


def update(seq):
    return Deliver("client", UpdateRequest(command=make_command("client", seq, ("obj", "add", seq))))


def disclosures(effects):
    """The values of the disclosure INITs among ``effects``, by round."""
    return {
        e.payload.tag[1]: e.payload.value
        for e in effects
        if isinstance(e, Broadcast) and isinstance(e.payload, RBInit) and e.payload.tag[0] == "disclosure"
    }


def hold_timers(effects):
    """The hold timers armed among ``effects`` (each checked for its delay)."""
    timers = [e for e in effects if isinstance(e, SetTimer) and e.handle.tag == HOLD_TAG]
    assert all(e.delay == ROUND_HOLD for e in timers)
    return [e.handle for e in timers]


def started_replica(**kwargs):
    replica = Replica("r0", REPLICAS, f=1, max_rounds=10, **kwargs)
    assert replica.handle(Start()) == []  # idle: no round, no timer
    return replica


class _Announcer(ProtocolCore):
    """A Byzantine member that sends one round-0 disclosure INIT to ``target``
    and nothing else."""

    members = tuple(REPLICAS)

    def __init__(self, pid, target):
        super().__init__(pid)
        self.target = target

    def on_start(self):
        self.send(self.target, RBInit(origin=self.pid, tag=("disclosure", 0), value=frozenset()))


class TestIdleGroup:
    def test_a_group_with_no_client_delivers_nothing(self):
        engine = KernelEngine(delay_model=UniformDelay(), seed=0)
        replicas = [engine.add_core(Replica(pid, REPLICAS, f=1, max_rounds=20)) for pid in REPLICAS]
        result = engine.run(max_messages=200_000)
        assert result.quiescent and result.delivered == 0
        assert all(replica.state == NEWROUND and replica.round == -1 for replica in replicas)

    def test_a_byzantine_init_to_one_replica_runs_one_round_everywhere(self):
        """The INIT reaches r0 alone; r0 opens round 0, and its own INIT opens
        the round at r1 and r2.  The Byzantine disclosure never delivers (only
        r0 echoes it), and no correct replica opens a second round."""
        engine = KernelEngine(delay_model=UniformDelay(), seed=4)
        correct = [engine.add_core(Replica(pid, REPLICAS, f=1, max_rounds=20)) for pid in REPLICAS[:3]]
        engine.add_core(_Announcer("r3", target="r0"))
        result = engine.run(max_messages=200_000)
        assert result.quiescent
        for replica in correct:
            assert replica.state == NEWROUND and replica.round == 0
            assert replica.decisions == [frozenset()]


class TestSharedRounds:
    @pytest.mark.parametrize("delay_model", [UniformDelay(), FixedDelay(1.0)], ids=["uniform", "fixed"])
    def test_two_sequential_clients_share_every_round(self, delay_model):
        """The ``sim-rsm`` shape at n = 4: two closed-loop clients with 9
        updates each take 9 rounds, one per pair of updates (eager rounds
        take 19)."""
        counter = GCounterObject("hits")
        for seed in range(20):
            scripts = {f"c{i}": [("update", counter.op_inc(k + 1)) for k in range(9)] for i in range(2)}
            scenario = build_scenario(
                "rsm", 4, 1, inputs=scripts, rounds=1000, seed=seed, backend="turbo", delay_model=delay_model
            )
            result = scenario.run()
            assert result.run.stopped_by_predicate, seed
            assert max(scenario.nodes[pid].round for pid in scenario.correct_pids) + 1 == 9, seed


class TestOpeningRules:
    def test_a_held_value_opens_on_a_peers_init_before_the_hold_ends(self):
        replica = started_replica()
        effects = replica.handle(update(1))
        (hold,) = hold_timers(effects)
        assert disclosures(effects) == {}
        effects = replica.handle(Deliver("r1", RBInit(origin="r1", tag=("disclosure", 0), value=frozenset())))
        assert list(disclosures(effects)) == [0] and replica.round == 0
        assert hold.cancelled

    def test_a_held_value_opens_on_the_hold_when_no_peer_opens(self):
        replica = started_replica()
        (hold,) = hold_timers(replica.handle(update(1)))
        assert replica.handle(update(2)) == []  # one timer, armed once
        effects = replica.handle(TimerFired(hold.tag, hold.payload))
        assert disclosures(effects) == {0: frozenset(update(seq).payload.command for seq in (1, 2))}

    def test_an_init_from_a_non_member_or_for_a_later_round_opens_nothing(self):
        replica = started_replica()
        replica.handle(update(1))
        inits = [
            ("client", "client", ("disclosure", 0)),  # not a member
            ("r2", "r1", ("disclosure", 0)),  # relayed: the sender is not the origin
            ("r1", "r1", ("disclosure", 1)),  # a round after the next
            ("r1", "r1", ("ack", 0)),  # not a disclosure
        ]
        for sender, origin, tag in inits:
            effects = replica.handle(Deliver(sender, RBInit(origin=origin, tag=tag, value=frozenset())))
            assert disclosures(effects) == {}, (sender, origin, tag)
        assert replica.round == -1

    def test_a_full_batch_opens_without_holding(self):
        replica = started_replica(batch_size=2)
        effects = replica.handle(update(1))
        (hold,) = hold_timers(effects)
        effects = replica.handle(update(2))
        assert list(disclosures(effects)) == [0] and hold_timers(effects) == []
        assert hold.cancelled

    def test_a_batch_of_one_opens_on_the_first_command(self):
        replica = started_replica(batch_size=1)
        effects = replica.handle(update(1))
        assert list(disclosures(effects)) == [0] and hold_timers(effects) == []
