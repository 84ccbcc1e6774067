"""CoreHost: one sans-I/O protocol core living on an asyncio event loop.

The in-process engines (:mod:`repro.engine.kernel_backend`,
``turbo_backend``, ``async_backend``) each host a *whole system* of cores
inside one process.  Cluster service mode inverts that: every OS process
hosts exactly **one** core (a :class:`~repro.rsm.replica.Replica` in a node
process, an :class:`~repro.rsm.client.RSMClient` in the client process) and
the network between cores is real TCP.  :class:`CoreHost` is the per-process
*sink* of the shared effect interpreter
(:func:`repro.engine.effects.interpret`), which stamps the core as the
sender, rejects invalid timer delays and non-effects exactly as it does for
the engines, and hands the host the rest:

* ``send`` — a message to *this* core loops back through
  ``loop.call_soon`` (the paper's processes play their own acceptor role);
  any other destination goes out through the ``send`` callback the
  embedding supplies (a peer link or a client reply channel).  No callback,
  no route: the host raises :class:`~repro.cluster.spec.ClusterError`.
* ``broadcast`` — reaches the core's ``members``, as on every substrate:
  a member that is this core loops back like a self-send, and the remote
  members are handed to the embedding's ``broadcast`` callback as **one**
  operation, so a node encodes the payload once for all of them.  An
  embedding without that callback (a client process, whose cores only
  send) gets a loud ``ClusterError``, as for a send with no route.
* ``arm_timer`` — maps protocol time units onto wall-clock seconds via
  ``time_scale`` and arms ``loop.call_later``; cancellation stays lazy
  (the fire callback checks ``handle.cancelled``), exactly like the
  engines' timer semantics.
* ``decided`` / ``output`` — recorded locally (and outputs surfaced through
  the optional ``on_output`` callback) — the node's status probe and the
  client's completion tracking read them.

``core.now`` is stamped before every hook with wall seconds since the
host's clock origin, so operation records taken by co-hosted client cores
share one timeline (what the linearizability audit compares); decisions and
outputs carry that same stamp.
"""

from __future__ import annotations

import asyncio
import time
from collections.abc import Callable, Hashable
from typing import Any

from repro.cluster.spec import ClusterError
from repro.engine.core import ProtocolCore
from repro.engine.effects import TimerHandle, interpret, members_of


class CoreHost:
    """Drive one :class:`ProtocolCore` on the running asyncio loop."""

    def __init__(
        self,
        core: ProtocolCore,
        *,
        send: Callable[[Hashable, Any], None] | None = None,
        broadcast: Callable[[tuple[Hashable, ...], Any], None] | None = None,
        time_scale: float = 0.001,
        clock_origin: float | None = None,
        on_output: Callable[[str, Any], None] | None = None,
    ) -> None:
        self.core = core
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
        interpret(self.core, self)

    def deliver(self, sender: Hashable, payload: Any) -> None:
        """Deliver one message to the core and apply the effects."""
        self._stamp()
        self.core.on_message(sender, payload)
        interpret(self.core, self)

    def call(self, fn: Callable[[], None]) -> None:
        """Run ``fn`` against the core with effect application (service
        mode's way to inject work, e.g. appending to a client's script)."""
        self._stamp()
        fn()
        interpret(self.core, self)

    def _stamp(self) -> None:
        self.core.now = time.monotonic() - self.clock_origin

    def _fire_timer(self, handle: TimerHandle) -> None:
        if handle.cancelled:
            return
        self._stamp()
        self.core.on_timer(handle.tag, handle.payload)
        interpret(self.core, self)

    # -- the effect sink (see repro.engine.effects.interpret) -------------------------

    def send(self, sender: Hashable, dest: Hashable, payload: Any, depth: int) -> None:
        if dest == sender:
            # Self-delivery is queued, not recursive: the engines' calendars
            # never re-enter a handler from inside itself.
            self._loop.call_soon(self.deliver, sender, payload)
        elif self._send is not None:
            self._send(dest, payload)
        else:
            raise ClusterError(f"core {sender!r} has no route to {dest!r}")

    def broadcast(self, sender: Hashable, payload: Any, depth: int) -> None:
        if self._broadcast is None:
            raise ClusterError(f"core {sender!r} has no broadcast route")
        members = members_of(self.core)
        if sender in members:
            self._loop.call_soon(self.deliver, sender, payload)
        self._broadcast(tuple(dest for dest in members if dest != sender), payload)

    def arm_timer(self, pid: Hashable, delay: float, handle: TimerHandle) -> None:
        handle.bind(self._loop.call_later(delay * self.time_scale, self._fire_timer, handle))

    def decided(self, pid: Hashable, value: Any, round: Any, causal_depth: int) -> None:
        self.decisions.append((self.core.now, value, round))

    def output(self, pid: Hashable, label: str, data: Any) -> None:
        self.outputs.append((self.core.now, label, data))
        if self.on_output is not None:
            self.on_output(label, data)
