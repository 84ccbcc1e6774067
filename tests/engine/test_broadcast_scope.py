"""What a ``Broadcast`` reaches: the emitting core's ``members``, on every sink.

The kernel and turbo engines (through ``EngineBase``), the async engine's
memory and tcp transports, and the cluster's ``CoreHost`` all read the one
definition, ``repro.engine.effects.members_of``.  Registration says nothing
about scope: two disjoint memberships on one engine are two independent
systems (a sharded RSM), a registered core outside every membership (an RSM
client) hears no broadcast, and a core that broadcasts without ``members``
fails the run instead of reaching nobody.
"""

import asyncio
from collections import Counter

import pytest

from repro.byzantine.behaviors import CrashByzantine
from repro.cluster.runtime import CoreHost
from repro.core.wts import WTSProcess
from repro.engine import AsyncEngine, KernelEngine, ProtocolCore, TurboEngine
from repro.harness import build_scenario
from repro.lattice import SetLattice
from repro.rsm.crdt import GCounterObject

GROUP_A = ("a0", "a1")
GROUP_B = ("b0", "b1", "b2")


class Shouter(ProtocolCore):
    """Broadcasts one message at start to ``members``; records what it hears."""

    def __init__(self, pid, members):
        super().__init__(pid)
        self.members = members
        self.heard = []

    def on_start(self):
        self.broadcast(f"from-{self.pid}")

    def on_message(self, sender, payload):
        self.heard.append((sender, payload))


class Listener(ProtocolCore):
    """A registered core in no membership: it only records what it hears."""

    def __init__(self, pid):
        super().__init__(pid)
        self.heard = []

    def on_message(self, sender, payload):
        self.heard.append((sender, payload))


class Memberless(ProtocolCore):
    """Broadcasts at start, but defines no ``members``."""

    def on_start(self):
        self.broadcast("lost")


class StrangerShouter(ProtocolCore):
    """Broadcasts to a membership naming a process nobody registered."""

    members = ("s0", "ghost")

    def on_start(self):
        self.broadcast("hello")


#: Every engine sink, as "an engine to register cores on".
ENGINES = {
    "kernel": lambda: KernelEngine(seed=3),
    "turbo": lambda: TurboEngine(seed=3),
    "async-memory": lambda: AsyncEngine(seed=3),
    "async-tcp": lambda: AsyncEngine(transport="tcp", time_scale=0.0, seed=3),
}


def run_engine(name, *cores):
    engine = ENGINES[name]()
    for core in cores:
        engine.add_core(core)
    if name == "async-tcp":
        engine.run(max_wall_s=30.0)
    else:
        engine.run_until_quiescent()
    return engine


def two_groups_and_a_listener():
    cores = [Shouter(pid, GROUP_A) for pid in GROUP_A] + [Shouter(pid, GROUP_B) for pid in GROUP_B]
    return cores, Listener("outsider")


def run_on_core_host(core, **callbacks):
    """Start ``core`` on a ``CoreHost`` and let one loop turn pass."""

    async def main():
        host = CoreHost(core, **callbacks)
        host.start()
        await asyncio.sleep(0)

    asyncio.run(main())


@pytest.mark.parametrize("engine", list(ENGINES))
class TestEngineSinks:
    def test_disjoint_memberships_stay_isolated(self, engine):
        cores, listener = two_groups_and_a_listener()
        run_engine(engine, *cores, listener)
        for core in cores:
            expected = {(peer, f"from-{peer}") for peer in core.members}
            assert sorted(core.heard) == sorted(expected)  # each member once, itself included

    def test_registered_non_member_hears_no_broadcast(self, engine):
        cores, listener = two_groups_and_a_listener()
        run_engine(engine, *cores, listener)
        assert listener.heard == []

    def test_memberless_broadcast_raises(self, engine):
        with pytest.raises(ValueError, match="no members"):
            run_engine(engine, Memberless("m0"), Listener("l0"))

    def test_unregistered_member_fails_like_a_send_to_an_unknown_pid(self, engine):
        with pytest.raises(ValueError, match="unknown destination"):
            run_engine(engine, StrangerShouter("s0"))


class TestCoreHostSink:
    def test_broadcast_goes_to_the_cores_members(self):
        fanned = []
        core = Shouter("a0", GROUP_A)
        run_on_core_host(core, broadcast=lambda dests, payload: fanned.append((dests, payload)))
        assert fanned == [(("a1",), "from-a0")]
        assert core.heard == [("a0", "from-a0")]

    def test_a_core_outside_its_members_gets_no_copy(self):
        fanned = []
        core = Shouter("outsider", GROUP_A)
        run_on_core_host(core, broadcast=lambda dests, payload: fanned.append((dests, payload)))
        assert fanned == [(GROUP_A, "from-outsider")]
        assert core.heard == []

    def test_memberless_broadcast_raises(self):
        with pytest.raises(ValueError, match="no members"):
            run_on_core_host(Memberless("m0"), broadcast=lambda dests, payload: None)


class TestWrappedAndRsmCores:
    def test_crash_byzantine_discloses_to_the_members_before_crashing(self):
        members = ("b", "p1", "p2", "p3")
        lattice = SetLattice()
        engine = KernelEngine(seed=0)
        wrapper = engine.add_core(
            CrashByzantine(WTSProcess("b", lattice, members, 1, proposal=frozenset({"b"})), crash_after_deliveries=2)
        )
        for pid in members[1:]:
            engine.add_core(WTSProcess(pid, lattice, members, 1, proposal=frozenset({pid})))
        engine.run(max_messages=2_000)
        assert wrapper.members == members
        assert wrapper.crashed
        disclosures = [env.dest for env in engine.delivery_log if env.sender == "b" and env.mtype == "rb_init"]
        assert sorted(disclosures) == sorted(members)

    def test_rsm_clients_receive_no_reliable_broadcast_traffic(self):
        counter = GCounterObject("hits")
        scripts = {"c0": [("update", counter.op_inc(1)), ("read",)], "c1": [("update", counter.op_inc(2))]}
        result = build_scenario("rsm", 4, 1, inputs=scripts, rounds=6, seed=5).run()
        assert all(client.all_completed for client in result.extras["clients"].values())
        to_clients = Counter(env.mtype for env in result.engine.delivery_log if env.dest in scripts)
        assert to_clients  # the clients' replies did arrive
        assert not any(mtype.startswith("rb_") for mtype in to_clients)
