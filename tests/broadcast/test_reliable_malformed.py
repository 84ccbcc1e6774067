"""Malformed reliable-broadcast messages are dropped, never raised on.

No correct process builds an RB message whose ``origin``, ``tag`` or
``value`` is unhashable, but a Byzantine peer can (the JSON codec decodes an
untagged array to a ``list``).  The broadcaster keys its instances and
votes by those fields, so it must drop such a message instead of letting the
``TypeError`` abort the host core's handler.
"""

import pytest

from repro.broadcast import RBEcho, RBInit, RBReady
from repro.core.gwts import GWTSProcess
from repro.core.wts import WTSProcess
from repro.engine import Deliver, Start
from repro.lattice import SetLattice

MEMBERS = ["p0", "p1", "p2", "p3"]

MALFORMED = {
    "echo-list-value": RBEcho(origin="p3", tag=("ack", 0, 0, "p1"), value=[1]),
    "init-list-tag": RBInit(origin="p3", tag=["x"], value=frozenset({"v"})),
    # Echoing it would cost n^2 echoes that every receiver drops.
    "init-list-value": RBInit(origin="p3", tag=("disclosure",), value=[1]),
    "ready-dict-origin": RBReady(origin={}, tag=("disclosure", 0), value=frozenset({"v"})),
}

CORES = {
    "wts": lambda: WTSProcess("p0", SetLattice(), MEMBERS, 1, proposal=frozenset({"a"})),
    "gwts": lambda: GWTSProcess("p0", SetLattice(), MEMBERS, 1),
}


@pytest.mark.parametrize("message", MALFORMED.values(), ids=MALFORMED.keys())
@pytest.mark.parametrize("core", CORES.values(), ids=CORES.keys())
def test_a_started_core_drops_a_malformed_rb_message(core, message):
    process = core()
    process.handle(Start())
    # Nothing is echoed or readied, and no vote is counted.
    assert process.handle(Deliver("p3", message)) == []
    states = process._rb._instances.values()
    assert not any(state.echo_senders or state.ready_senders for state in states)


def test_a_dropped_echo_does_not_spend_its_senders_vote():
    # p3's malformed echo is not counted, so its well-formed echo still is:
    # with p1's and p2's that makes the echo quorum of 3 at n = 4, f = 1.
    process = WTSProcess("p0", SetLattice(), MEMBERS, 1, proposal=frozenset({"a"}))
    process.handle(Start())
    value = frozenset({"b"})
    tag = ("disclosure",)
    process.handle(Deliver("p3", RBEcho(origin="p1", tag=tag, value=[1])))
    effects = []
    for sender in ("p1", "p2", "p3"):
        effects += process.handle(Deliver(sender, RBEcho(origin="p1", tag=tag, value=value)))
    [ready] = [effect.payload for effect in effects]
    assert ready == RBReady(origin="p1", tag=tag, value=value)
