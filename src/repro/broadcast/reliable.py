"""Bracha reliable broadcast over authenticated point-to-point channels.

The component is embedded in a host :class:`~repro.engine.ProtocolCore`: the
host forwards every incoming payload to :meth:`ReliableBroadcaster.handle`,
which returns ``True`` when the payload was a broadcast-internal message (the
host should then ignore it); deliveries are reported through a callback.
Protocol messages are emitted through the host's effect buffer, so the
broadcaster itself stays sans-I/O.

Broadcast instances are identified by ``(origin, tag)``.  GWTS tags each
disclosure and each acceptor ack with its round number (footnote 2 of the
paper: the primitive "is designed to avoid possible confusion of messages in
round based algorithms"), so instances from different rounds never interfere.
"""

from __future__ import annotations
from collections.abc import Callable, Hashable

from dataclasses import dataclass
from typing import Any

from repro.engine.core import ProtocolCore

#: Identifier of one broadcast instance.
InstanceKey = tuple[Hashable, Hashable]


@dataclass(frozen=True)
class RBInit:
    """First round of Bracha broadcast: the origin sends its value to all."""

    origin: Hashable
    tag: Hashable
    value: Any
    mtype: str = "rb_init"


@dataclass(frozen=True)
class RBEcho:
    """Second round: every process echoes the first value it saw."""

    origin: Hashable
    tag: Hashable
    value: Any
    mtype: str = "rb_echo"


@dataclass(frozen=True)
class RBReady:
    """Third round: processes declare readiness to deliver the value."""

    origin: Hashable
    tag: Hashable
    value: Any
    mtype: str = "rb_ready"


def is_rb_message(payload: Any) -> bool:
    """Return ``True`` iff ``payload`` is internal to the broadcast protocol."""
    return isinstance(payload, (RBInit, RBEcho, RBReady))


class _InstanceState:
    """Per-(origin, tag) protocol state at one process.

    A delivered instance stops working and lets go of its votes.  Delivery
    takes ``2f + 1`` readies for one value, so ``sent_ready`` was already
    set when that value reached ``f + 1``; every later echo or ready — for
    this value or an equivocated one — can therefore satisfy no guard
    (both ready guards need ``not sent_ready``, the delivery guard needs
    ``not delivered``), and the vote tables would only pin memory for as
    long as the process runs.  The three flags stay: ``sent_echo`` still
    decides whether a late INIT is echoed.
    """

    __slots__ = (
        "echo_senders",
        "ready_senders",
        "echo_votes",
        "ready_votes",
        "sent_echo",
        "sent_ready",
        "delivered",
    )

    def __init__(self) -> None:
        # Which peers we have already counted (one vote per peer per phase,
        # so a Byzantine peer cannot stuff the ballot with duplicates).
        self.echo_senders: set[Hashable] = set()
        self.ready_senders: set[Hashable] = set()
        # Votes per candidate value.
        self.echo_votes: dict[Any, set[Hashable]] = {}
        self.ready_votes: dict[Any, set[Hashable]] = {}
        self.sent_echo = False
        self.sent_ready = False
        self.delivered = False

    def mark_delivered(self) -> None:
        self.delivered = True
        self.echo_senders = self.ready_senders = self.echo_votes = self.ready_votes = None


class ReliableBroadcaster:
    """Bracha reliable broadcast endpoint embedded in a host node.

    Parameters
    ----------
    node:
        The host core; protocol messages are broadcast to its ``members``
        through its effect buffer (``node.broadcast``).
    n, f:
        System size and Byzantine tolerance threshold.  The thresholds are the
        classic ones: echo quorum ``floor((n + f) / 2) + 1``, ready
        amplification ``f + 1``, delivery quorum ``2 f + 1``.
    deliver:
        Callback ``deliver(origin, tag, value)`` invoked exactly once per
        delivered instance — this is the pseudocode's ``RBcastDelivery``
        event.

    Instances and votes are keyed by a message's ``origin``, ``tag`` and
    ``value``.  No correct process originates a message with an unhashable
    field, so one that has it (a Byzantine peer's ``list`` or ``dict``) is
    dropped where the broadcaster would look the field up.  An INIT's value is not looked
    up: an unhashable one is echoed, and every receiver drops the echoes.
    """

    def __init__(
        self,
        node: ProtocolCore,
        n: int,
        f: int,
        deliver: Callable[[Hashable, Hashable, Any], None],
    ) -> None:
        if n < 3 * f + 1:
            # The primitive is still instantiable (the lower-bound experiment
            # deliberately runs with too few processes) but its guarantees are
            # void; we record the fact for the experiment reports.
            self.under_provisioned = True
        else:
            self.under_provisioned = False
        self._node = node
        self._n = n
        self._f = f
        self._deliver = deliver
        self._instances: dict[InstanceKey, _InstanceState] = {}
        self.echo_quorum = (n + f) // 2 + 1
        self.ready_amplify = f + 1
        self.ready_quorum = 2 * f + 1

    # -- API used by the host node -----------------------------------------------

    def broadcast(self, tag: Hashable, value: Any) -> None:
        """Reliably broadcast ``value`` under ``tag`` (origin = host node)."""
        init = RBInit(origin=self._node.pid, tag=tag, value=value)
        self._node.broadcast(init)

    def handle(self, sender: Hashable, payload: Any) -> bool:
        """Process a potentially broadcast-internal message.

        Returns ``True`` when ``payload`` belonged to the broadcast protocol
        (and was consumed), ``False`` otherwise so the host can handle it.
        """
        if isinstance(payload, RBInit):
            self._on_init(sender, payload)
            return True
        if isinstance(payload, RBEcho):
            self._on_echo(sender, payload)
            return True
        if isinstance(payload, RBReady):
            self._on_ready(sender, payload)
            return True
        return False

    # -- protocol ------------------------------------------------------------------

    def _state(self, key: InstanceKey) -> _InstanceState:
        state = self._instances.get(key)
        if state is None:
            state = _InstanceState()
            self._instances[key] = state
        return state

    def _on_init(self, sender: Hashable, msg: RBInit) -> None:
        # Authenticated channels: only the origin itself may start its own
        # broadcast instance.  A Byzantine process relaying a forged INIT for
        # somebody else is ignored here.
        if sender != msg.origin:
            return
        try:
            hash(msg.value)
            state = self._state((msg.origin, msg.tag))
        except TypeError:
            return  # unhashable origin, tag or value: a malformed message, dropped
        if state.sent_echo:
            # Echo only the *first* value received from the origin; an
            # equivocating origin cannot make us echo two values.
            return
        state.sent_echo = True
        echo = RBEcho(origin=msg.origin, tag=msg.tag, value=msg.value)
        self._node.broadcast(echo)

    def _on_echo(self, sender: Hashable, msg: RBEcho) -> None:
        try:
            state = self._state((msg.origin, msg.tag))
            if state.delivered or sender in state.echo_senders:
                return
            votes = state.echo_votes.setdefault(msg.value, set())
        except TypeError:
            return  # unhashable origin, tag or value: dropped, no vote taken
        state.echo_senders.add(sender)
        votes.add(sender)
        if len(votes) >= self.echo_quorum and not state.sent_ready:
            state.sent_ready = True
            ready = RBReady(origin=msg.origin, tag=msg.tag, value=msg.value)
            self._node.broadcast(ready)

    def _on_ready(self, sender: Hashable, msg: RBReady) -> None:
        try:
            state = self._state((msg.origin, msg.tag))
            if state.delivered or sender in state.ready_senders:
                return
            votes = state.ready_votes.setdefault(msg.value, set())
        except TypeError:
            return  # unhashable origin, tag or value: dropped, no vote taken
        state.ready_senders.add(sender)
        votes.add(sender)
        if len(votes) >= self.ready_amplify and not state.sent_ready:
            # Amplification step: f+1 readys prove at least one correct
            # process saw an echo quorum, so it is safe to join.
            state.sent_ready = True
            ready = RBReady(origin=msg.origin, tag=msg.tag, value=msg.value)
            self._node.broadcast(ready)
        if len(votes) >= self.ready_quorum:
            state.mark_delivered()
            self._deliver(msg.origin, msg.tag, msg.value)

    # -- introspection (used by tests) ----------------------------------------------

    def delivered_instances(self) -> set[InstanceKey]:
        """Instances this endpoint has delivered."""
        return {
            key for key, state in self._instances.items() if state.delivered
        }
