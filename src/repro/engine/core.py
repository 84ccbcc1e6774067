"""Sans-I/O protocol cores: pure state machines with ``handle(event) -> effects``.

A :class:`ProtocolCore` is the process abstraction every algorithm in this
repository builds on.  It holds *only* protocol state; it never references a
network, a runtime or a metrics collector.  Interaction with the world is two
one-way streams:

* **in** — the backend calls :meth:`handle` with a
  :class:`~repro.engine.events.CoreEvent` (start, delivery, timer, crash,
  recovery);
* **out** — the handler mutates local state and emits
  :class:`~repro.engine.effects.Effect` values (send, broadcast, set_timer,
  decide, output), which :meth:`handle` returns for the backend to apply.

The same core therefore runs unchanged under the deterministic kernel
backend, the turbo fast-path backend, adversarial fuzzing, or a hand-driven
unit test that feeds events and asserts on the returned effects.

Authoring style: subclasses override the ``on_*`` hooks exactly as they
would on a classic callback node (``on_message`` mutates state and calls
``self.send(...)``); the emit helpers append to a per-core *preallocated
effect buffer* which ``handle`` drains.  That keeps the pseudocode-shaped
"upon event" handlers readable while the observable interface stays purely
functional.  Substrates call the ``on_*`` hooks and then drain the buffer
through the shared interpreter (:func:`repro.engine.effects.interpret`),
which skips ``handle``'s event object and result list on the hot path —
semantically identical to calling ``handle`` and applying what it returns.
"""

from __future__ import annotations
from collections.abc import Hashable

from typing import Any

from repro.engine.effects import Broadcast, Decide, Effect, Output, Send, SetTimer, TimerHandle
from repro.engine.events import Crashed, Deliver, Recovered, Start, TimerFired


class ProtocolCore:
    """Base class for all protocol state machines (correct or Byzantine)."""

    def __init__(self, pid: Hashable) -> None:
        self.pid = pid
        #: Simulated time of the event currently being handled (stamped by
        #: the backend before each ``handle`` call; 0.0 before the run).
        self.now: float = 0.0
        #: Causal message-delay counter: the longest chain of messages that
        #: causally precedes this core's state.  The backend raises it on
        #: every delivery and reads it when the core sends or decides.
        self.causal_depth: int = 0
        #: Free-form event log (``(time, label, data)``) used by tests and
        #: experiments to trace interesting transitions without prints.
        self.trace: list[tuple[float, str, Any]] = []
        #: The preallocated effect buffer the emit helpers append to.
        self._out: list[Effect] = []

    # -- the sans-I/O interface --------------------------------------------------

    def handle(self, event: Any) -> list[Effect]:
        """Process one input event and return the effects it produced.

        This is the canonical core interface.  Dispatches on the event type
        to the matching ``on_*`` hook, then drains the effect buffer.
        """
        cls = event.__class__
        if cls is Deliver:
            self.on_message(event.sender, event.payload)
        elif cls is TimerFired:
            self.on_timer(event.tag, event.payload)
        elif cls is Start:
            self.on_start()
        elif cls is Crashed:
            self.on_crash()
        elif cls is Recovered:
            self.on_recover()
        else:
            raise TypeError(f"unknown core event {event!r}")
        out = self._out
        if not out:
            return []
        effects = list(out)
        out.clear()
        return effects

    # -- lifecycle hooks (overridden by algorithm implementations) ----------------

    def on_start(self) -> None:
        """Called once before any message is delivered."""

    def on_message(self, sender: Hashable, payload: Any) -> None:
        """Called for every delivered message (``sender`` is authentic)."""

    def on_timer(self, tag: str, payload: Any = None) -> None:
        """Called when a timer armed via :meth:`set_timer` fires."""

    def on_crash(self) -> None:
        """Called when the environment takes this process down.

        Backends hold all traffic and timers addressed to a crashed process
        and hand them over on recovery, so overriding this hook is only
        needed to model *state* effects of the crash.
        """

    def on_recover(self) -> None:
        """Called when the environment brings this process back up."""

    # -- emit helpers (the only way a core acts on the world) ---------------------

    def send(self, dest: Hashable, payload: Any) -> None:
        """Emit a point-to-point send over the authenticated channel."""
        self._out.append(Send(dest, payload))

    def broadcast(self, payload: Any) -> None:
        """Emit a best-effort broadcast: one send per process in ``members``.

        Every substrate reads the emitting core's ``members`` (the paper's
        ``Π``; a subclass that broadcasts defines it) and sends to each in
        order, the core itself included when it is a member.  Several
        disjoint memberships on one engine are so many independent systems
        sharing a transport.

        This is the plain ``Broadcast`` of the pseudocode — *not* the
        Byzantine reliable broadcast, which lives in :mod:`repro.broadcast`
        and is built on top of this primitive.
        """
        self._out.append(Broadcast(payload))

    def set_timer(self, delay: float, tag: str, payload: Any = None) -> TimerHandle:
        """Emit a timer arming; returns the handle (``handle.cancel()``).

        Timers are process-local — they model the process's own clock, not
        the network — so they keep firing under partitions and are held (not
        lost) while the process is crashed.
        """
        handle = TimerHandle(tag, payload)
        self._out.append(SetTimer(delay, handle))
        return handle

    def cancel_timer(self, handle: TimerHandle) -> None:
        """Cancel a timer previously armed with :meth:`set_timer`."""
        handle.cancel()

    def decide(self, value: Any, round: Any = None) -> None:
        """Emit a decision for the backend to record into the run metrics."""
        self._out.append(Decide(value, round))

    def output(self, label: str, data: Any = None) -> None:
        """Emit a labelled value for the harness (collected per run)."""
        self._out.append(Output(label, data))

    # -- local bookkeeping ---------------------------------------------------------

    def log_event(self, label: str, data: Any = None) -> None:
        """Append an entry to the core's local trace (pure state, no effect)."""
        self.trace.append((self.now, label, data))

    @property
    def is_byzantine(self) -> bool:
        """Whether this core is controlled by the adversary.

        The base class is honest; Byzantine behaviours in
        :mod:`repro.byzantine` override this.  Backends never look at this
        flag (the adversary gets no extra power from the substrate) — it
        exists purely so experiments and checkers can tell the two
        populations apart when evaluating the correctness properties, which
        are quantified over correct processes only.
        """
        return False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} pid={self.pid!r}>"
