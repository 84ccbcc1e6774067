"""CoreHost: one sans-I/O protocol core living on an asyncio event loop.

The in-process engines (:mod:`repro.engine.kernel_backend`,
``turbo_backend``, ``async_backend``) each host a *whole system* of cores
inside one process.  Cluster service mode inverts that: every OS process
hosts exactly **one** core (a :class:`~repro.rsm.replica.Replica` in a node
process, an :class:`~repro.rsm.client.RSMClient` in the client process) and
the network between cores is real TCP.  :class:`CoreHost` is the per-process
interpreter of the effect vocabulary that makes this work:

* ``Send`` to *this* core loops back through ``loop.call_soon`` (the paper's
  processes play their own acceptor role); any other destination goes out
  through the ``send`` callback the embedding supplies (a peer link or a
  client reply channel).
* ``Broadcast`` reaches the protocol *membership* — in a cluster the
  host does not know the whole "system" the in-process engines enumerate,
  and GWTS/reliable-broadcast traffic is only meaningful to members anyway.
  The remote members are handed to the embedding's ``broadcast`` callback
  as **one** operation, so a node can encode the payload once for all of
  them; an embedding that gives only ``send`` gets one ``send`` per member.
* ``SetTimer`` maps protocol time units onto wall-clock seconds via
  ``time_scale`` and arms ``loop.call_later``; cancellation stays lazy
  (the fire callback checks ``handle.cancelled``), exactly like the
  engines' timer semantics.
* ``Decide`` / ``Output`` are recorded locally and surfaced through
  optional callbacks — the node's status probe and the client's completion
  tracking read them.

``core.now`` is stamped before every hook with wall seconds since the
host's clock origin, so operation records taken by co-hosted client cores
share one timeline (what the linearizability audit compares).
"""

from __future__ import annotations

import asyncio
import time
from collections.abc import Callable, Hashable, Iterable
from typing import Any

from repro.cluster.spec import ClusterError
from repro.engine.core import ProtocolCore
from repro.engine.effects import Broadcast, Cancel, Decide, Output, Send, SetTimer


class CoreHost:
    """Drive one :class:`ProtocolCore` on the running asyncio loop."""

    def __init__(
        self,
        core: ProtocolCore,
        *,
        members: Iterable[Hashable] = (),
        send: Callable[[Hashable, Any], None] | None = None,
        broadcast: Callable[[tuple[Hashable, ...], Any], None] | None = None,
        time_scale: float = 0.001,
        clock_origin: float | None = None,
        on_output: Callable[[str, Any], None] | None = None,
    ) -> None:
        self.core = core
        self.members = tuple(members)
        #: The members a ``Broadcast`` leaves this process for.
        self._remote_members = tuple(dest for dest in self.members if dest != core.pid)
        self._send = send
        self._broadcast = broadcast
        self.time_scale = time_scale
        self.clock_origin = time.monotonic() if clock_origin is None else clock_origin
        self.on_output = on_output
        #: ``(now, value, round)`` per Decide effect, in order.
        self.decisions: list[tuple[float, Any, Any]] = []
        #: ``(now, label, data)`` per Output effect, in order.
        self.outputs: list[tuple[float, str, Any]] = []
        self._loop = None

    # -- event entry points ---------------------------------------------------------

    def start(self) -> None:
        """Run the core's ``on_start`` hook (call once, on the loop)."""
        self._loop = asyncio.get_running_loop()
        self._stamp()
        self.core.on_start()
        self._apply()

    def deliver(self, sender: Hashable, payload: Any) -> None:
        """Deliver one message to the core and apply the effects."""
        self._stamp()
        self.core.on_message(sender, payload)
        self._apply()

    def call(self, fn: Callable[[], None]) -> None:
        """Run ``fn`` against the core with effect application (service
        mode's way to inject work, e.g. appending to a client's script)."""
        self._stamp()
        fn()
        self._apply()

    # -- internals -------------------------------------------------------------------

    def _stamp(self) -> None:
        self.core.now = time.monotonic() - self.clock_origin

    def _fire_timer(self, handle) -> None:
        if handle.cancelled:
            return
        self._stamp()
        self.core.on_timer(handle.tag, handle.payload)
        self._apply()

    def _route(self, dest: Hashable, payload: Any) -> None:
        if dest == self.core.pid:
            # Self-delivery is queued, not recursive: the engines' calendars
            # never re-enter a handler from inside itself.
            self._loop.call_soon(self.deliver, self.core.pid, payload)
        elif self._send is not None:
            self._send(dest, payload)
        else:
            raise ClusterError(f"core {self.core.pid!r} has no route to {dest!r}")

    def _apply(self) -> None:
        effects: list = []
        self.core.drain_into(effects)
        for effect in effects:
            cls = effect.__class__
            if cls is Send:
                self._route(effect.dest, effect.payload)
            elif cls is Broadcast:
                payload = effect.payload
                if effect.include_self and self.core.pid in self.members:
                    self._route(self.core.pid, payload)
                if self._broadcast is not None:
                    self._broadcast(self._remote_members, payload)
                else:
                    for dest in self._remote_members:
                        self._route(dest, payload)
            elif cls is SetTimer:
                handle = effect.handle
                timer = self._loop.call_later(
                    effect.delay * self.time_scale, self._fire_timer, handle
                )
                handle.bind(timer)
            elif cls is Cancel:
                effect.handle.cancel()
            elif cls is Decide:
                self.decisions.append((self.core.now, effect.value, effect.round))
            elif cls is Output:
                self.outputs.append((self.core.now, effect.label, effect.data))
                if self.on_output is not None:
                    self.on_output(effect.label, effect.data)
            else:
                raise ClusterError(f"core {self.core.pid!r} emitted unknown effect {effect!r}")
