"""A reliably-delivered GWTS ack with a malformed key field is dropped.

No correct acceptor builds a ``RoundAck`` whose ``proposal`` is not a
string token or whose ``destination``, ``ts`` or ``round`` is unhashable,
but a Byzantine one can (the JSON codec decodes an untagged array to a
``list``), and reliable broadcast delivers whatever its origin sent.  GWTS
keys its ack history by those fields, so such an ack must be dropped at
once, even when a received request carries the very token it names,
instead of waiting for a request it can never match or letting a
``TypeError`` abort the host core's handler.
"""

import pytest

from repro.core.gwts import GWTSProcess, request_token
from repro.core.messages import RoundAck, RoundAckRequest
from repro.engine import Deliver, Start
from repro.lattice import SetLattice
from repro.rsm.replica import Replica

MEMBERS = ["p0", "p1", "p2", "p3"]

CORES = {
    "gwts": lambda: GWTSProcess("p0", SetLattice(), MEMBERS, 1),
    "replica": lambda: Replica("p0", MEMBERS, 1),
}

#: p1's round-0 request, safe from the start: every ack below names it.
REQUEST = RoundAckRequest(proposed_set=frozenset(), ts=1, round=0)
TOKEN = request_token(REQUEST)

MALFORMED = {
    "list-ts": dict(proposal=TOKEN, destination="p1", ts=[1], round=0),
    "list-round": dict(proposal=TOKEN, destination="p1", ts=1, round=[0]),
    "dict-destination": dict(proposal=TOKEN, destination={}, ts=1, round=0),
    "bytes-token": dict(proposal=TOKEN.encode(), destination="p1", ts=1, round=0),
    "list-token": dict(proposal=[TOKEN], destination="p1", ts=1, round=0),
}


def started(core):
    """A started core that indexed (and acked) ``REQUEST``, effects cleared."""
    process = core()
    process.handle(Start())
    process.handle(Deliver("p1", REQUEST))
    return process


def assert_nothing_stored(process):
    assert not process.ack_history and not process._round_acks
    assert not process.waiting_msgs
    assert process._out == []


@pytest.mark.parametrize("fields", MALFORMED.values(), ids=MALFORMED.keys())
@pytest.mark.parametrize("core", CORES.values(), ids=CORES.keys())
def test_a_malformed_ack_of_a_received_request_is_dropped(core, fields):
    process = started(core)
    process._on_rb_deliver("p3", ("ack", 0, 1, "p1"), RoundAck(sender="p3", **fields))
    assert_nothing_stored(process)


@pytest.mark.parametrize("core", CORES.values(), ids=CORES.keys())
def test_a_malformed_ack_of_a_request_not_yet_safe_is_dropped_not_buffered(core):
    process = started(core)
    value = frozenset({"later"})
    request = RoundAckRequest(proposed_set=value, ts=2, round=0)
    process.handle(Deliver("p1", request))
    # Not yet safe: the request waits, and the malformed ack does not.
    assert process.waiting_msgs == [("p1", request)]
    process._on_rb_deliver("p3", ("ack", 0, 2, "p1"), RoundAck(request_token(request), "p1", "p3", [2], 0))
    assert process.waiting_msgs == [("p1", request)] and not process.ack_history
    # A disclosure of its value makes the request safe; the ack yields nothing.
    process._on_rb_deliver("p1", ("disclosure", 0), value)
    assert not process.waiting_msgs and not process.ack_history and not process._round_acks


@pytest.mark.parametrize("core", CORES.values(), ids=CORES.keys())
def test_a_well_formed_ack_is_still_recorded(core):
    process = started(core)
    process._on_rb_deliver("p3", ("ack", 0, 1, "p1"), RoundAck(TOKEN, "p1", "p3", 1, 0))
    assert process.ack_history == {(TOKEN, "p1", 1, 0): {"p3"}}
