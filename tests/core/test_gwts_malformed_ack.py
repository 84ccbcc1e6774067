"""A reliably-delivered GWTS ack with an unhashable key field is dropped.

No correct acceptor builds a ``RoundAck`` whose ``destination``, ``ts`` or
``round`` is unhashable, but a Byzantine one can (the JSON codec decodes an
untagged array to a ``list``), and reliable broadcast delivers whatever its
origin sent.  GWTS keys its ack history by those fields, so such an ack must
be dropped, on the direct path and after waiting for safety, instead of
letting the ``TypeError`` abort the host core's handler.
"""

import pytest

from repro.core.gwts import GWTSProcess
from repro.core.messages import RoundAck
from repro.engine import Start
from repro.lattice import SetLattice
from repro.rsm.replica import Replica

MEMBERS = ["p0", "p1", "p2", "p3"]

CORES = {
    "gwts": lambda: GWTSProcess("p0", SetLattice(), MEMBERS, 1),
    "replica": lambda: Replica("p0", MEMBERS, 1),
}

MALFORMED = {
    "list-ts": dict(destination="p0", ts=[1], round=0),
    "list-round": dict(destination="p0", ts=1, round=[0]),
    "dict-destination": dict(destination={}, ts=1, round=0),
}


def started(core):
    process = core()
    process.handle(Start())
    return process


def assert_nothing_stored(process):
    assert not process.ack_history and not process._round_acks
    assert not process.waiting_msgs
    assert process._out == []


@pytest.mark.parametrize("fields", MALFORMED.values(), ids=MALFORMED.keys())
@pytest.mark.parametrize("core", CORES.values(), ids=CORES.keys())
def test_a_safe_malformed_ack_is_dropped(core, fields):
    process = started(core)
    process._on_rb_deliver("p3", ("ack", 0, 0, "p0"), RoundAck(accepted_set=frozenset(), sender="p3", **fields))
    assert_nothing_stored(process)


@pytest.mark.parametrize("core", CORES.values(), ids=CORES.keys())
def test_a_malformed_ack_waiting_for_safety_is_dropped_when_it_becomes_safe(core):
    process = started(core)
    value = frozenset({"later"})
    process._on_rb_deliver("p3", ("ack", 0, 0, "p0"), RoundAck(value, "p0", "p3", [1], 0))
    # Not yet safe: it waits in the buffer.
    assert len(process.waiting_msgs) == 1 and not process.ack_history
    # A disclosure of its value makes it safe; the drain drops it.
    process._on_rb_deliver("p1", ("disclosure", 0), value)
    if isinstance(process, Replica):
        # An idle replica joins the round the disclosure belongs to: its own
        # round-0 disclosure is the one effect, and the ack still yields nothing.
        (disclosure,) = process._out
        assert disclosure.payload.origin == "p0" and disclosure.payload.tag == ("disclosure", 0)
        process._out.clear()
    assert_nothing_stored(process)


@pytest.mark.parametrize("core", CORES.values(), ids=CORES.keys())
def test_a_well_formed_ack_is_still_recorded(core):
    process = started(core)
    process._on_rb_deliver("p3", ("ack", 0, 0, "p0"), RoundAck(frozenset(), "p0", "p3", 1, 0))
    assert process.ack_history == {(frozenset(), "p0", 1, 0): {"p3"}}
