"""The effect vocabulary: everything a sans-I/O protocol core can ask for.

A protocol core never touches a network, a clock or a metrics collector.
Its handlers mutate local state and *emit effects* — small, typed, inert
descriptions of intent — which the driving backend interprets:

=================  =========================================================
:class:`Send`      deliver ``payload`` to ``dest`` over the authenticated
                   point-to-point channel (the interpreter stamps the
                   true sender, so channels stay unforgeable)
:class:`Broadcast` one :class:`Send` per process in the emitting core's
                   ``members``, in that order, on every substrate
:class:`SetTimer`  arm a process-local alarm; the paired
                   :class:`TimerHandle` doubles as the cancellation token
:class:`Cancel`    cancel a previously armed timer (equivalent to calling
                   ``handle.cancel()`` — provided so a core can express the
                   cancellation as data when it prefers to)
:class:`Decide`    publish a decision (value + optional round); the backend
                   records it with the core's causal depth and the current
                   simulated time
:class:`Output`    surface an arbitrary labelled value to the harness
                   (client operation completions, probe readings, ...)
=================  =========================================================

Effects are deliberately tiny ``__slots__`` classes — the hot loop of the
turbo backend pushes hundreds of thousands of them through per second — and
are *inert*: constructing one does nothing until a backend applies it.

:func:`interpret` is the one place effects are applied.  It stamps the
emitting core as the sender (so channels stay authenticated), computes the
causal depth a message carries, rejects invalid timer delays and objects
outside this vocabulary (a typo'd effect must fail the run, not silently
drop a message), and hands everything else to a *sink* — the substrate: the
kernel, turbo and async engines, or the cluster's ``CoreHost``.  A sink has
five methods::

    send(sender, dest, payload, depth)
    broadcast(sender, payload, depth)
    arm_timer(pid, delay, handle)
    decided(pid, value, round, causal_depth)
    output(pid, label, data)

and owns everything substrate-specific: where time comes from, how a
message or a timer is queued.  What a ``Broadcast`` reaches is not one of
them: every sink sends it to :func:`members_of` the emitting core, and a
core with no ``members`` (or a member the substrate does not know) fails
the run, as a ``Send`` to an unknown process does.
"""

from __future__ import annotations
from collections.abc import Hashable

from typing import Any

_INF = float("inf")


def invalid_time(value: float) -> bool:
    """True for negative, NaN or infinite time/delay values.

    The single definition of temporal validity, shared by the interpreter,
    the engines' scheduling entry points and
    :class:`~repro.sim.faults.FaultPlan`, so they cannot drift apart.
    """
    return value < 0.0 or value != value or value == _INF


class Effect:
    """Base class of everything a protocol core may emit."""

    __slots__ = ()


class Send(Effect):
    """Point-to-point message: ``payload`` to ``dest`` (sender is implicit)."""

    __slots__ = ("dest", "payload")

    def __init__(self, dest: Hashable, payload: Any) -> None:
        self.dest = dest
        self.payload = payload

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Send(dest={self.dest!r}, payload={self.payload!r})"


class Broadcast(Effect):
    """One :class:`Send` per member of the emitting core, in ``members`` order.

    The paper's "send to all" goes to the ``n`` processes of ``Π``, the
    sender among them (it plays its own acceptor role).
    """

    __slots__ = ("payload",)

    def __init__(self, payload: Any) -> None:
        self.payload = payload

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Broadcast(payload={self.payload!r})"


class TimerHandle:
    """Cancellation token for an armed timer.

    Created by the core when it emits a :class:`SetTimer`; both the core and
    the backend hold a reference.  ``cancel()`` flags the handle; the
    engines check ``cancelled`` when the timer comes due (and when it is
    released from crash/partition parking), so cancellation survives
    parking.  A substrate whose own timer must be cancelled eagerly binds it.
    """

    __slots__ = ("tag", "payload", "cancelled", "_bound")

    def __init__(self, tag: str, payload: Any = None) -> None:
        self.tag = tag
        self.payload = payload
        self.cancelled = False
        #: Substrate-side timer this handle cancels eagerly: the cluster
        #: ``CoreHost``'s asyncio handle (the engines never bind one).
        self._bound: Any = None

    def cancel(self) -> None:
        """Cancel the timer (idempotent; safe before and after binding)."""
        self.cancelled = True
        bound = self._bound
        if bound is not None:
            bound.cancel()

    def bind(self, event: Any) -> None:
        """Link a substrate timer (``CoreHost``'s asyncio handle) to this handle."""
        self._bound = event
        if self.cancelled:
            event.cancel()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "cancelled" if self.cancelled else "armed"
        return f"<TimerHandle tag={self.tag!r} {state}>"


class SetTimer(Effect):
    """Arm a process-local alarm ``delay`` time units from now."""

    __slots__ = ("delay", "handle")

    def __init__(self, delay: float, handle: TimerHandle) -> None:
        self.delay = delay
        self.handle = handle

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SetTimer(delay={self.delay!r}, handle={self.handle!r})"


class Cancel(Effect):
    """Cancel a previously armed timer (data form of ``handle.cancel()``)."""

    __slots__ = ("handle",)

    def __init__(self, handle: TimerHandle) -> None:
        self.handle = handle


class Decide(Effect):
    """Publish a decision; the backend records it into the run's metrics."""

    __slots__ = ("value", "round")

    def __init__(self, value: Any, round: int | None = None) -> None:
        self.value = value
        self.round = round

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Decide(value={self.value!r}, round={self.round!r})"


class Output(Effect):
    """Surface a labelled value to the harness (collected per run)."""

    __slots__ = ("label", "data")

    def __init__(self, label: str, data: Any = None) -> None:
        self.label = label
        self.data = data

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Output(label={self.label!r}, data={self.data!r})"


def members_of(core: Any) -> tuple[Hashable, ...]:
    """What ``core``'s ``Broadcast`` reaches, on every sink: its ``members``.

    There is no default: a core that broadcasts without ``members`` fails
    the run instead of reaching nobody.
    """
    try:
        return core.members
    except AttributeError:
        raise ValueError(f"core {core.pid!r} broadcast but has no members") from None


def interpret(core: Any, sink: Any) -> None:
    """Apply (and drain) everything ``core`` emitted to ``sink``, in emission order.

    The buffer is emptied before the first effect is applied, so a sink
    whose routing re-enters the same core (and makes it emit again) applies
    every effect exactly once: the nested batch is interpreted by the nested
    call, the rest of this batch by this one.
    """
    out = core._out
    if not out:
        return
    effects = out.copy()
    out.clear()
    pid = core.pid
    depth = core.causal_depth + 1
    for effect in effects:
        cls = effect.__class__
        if cls is Send:
            sink.send(pid, effect.dest, effect.payload, depth)
        elif cls is Broadcast:
            sink.broadcast(pid, effect.payload, depth)
        elif cls is SetTimer:
            if invalid_time(effect.delay):
                raise ValueError(f"invalid timer delay {effect.delay!r}")
            sink.arm_timer(pid, effect.delay, effect.handle)
        elif cls is Decide:
            sink.decided(pid, effect.value, effect.round, depth - 1)
        elif cls is Output:
            sink.output(pid, effect.label, effect.data)
        elif cls is Cancel:
            effect.handle.cancel()
        else:
            raise TypeError(
                f"core {pid!r} emitted a non-effect {effect!r}; substrates "
                "only understand the repro.engine.effects vocabulary"
            )
