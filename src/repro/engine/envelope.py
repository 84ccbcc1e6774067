"""Message envelope used by the kernel engine backend.

Algorithm-level messages (``ack_req``, ``nack``, reliable-broadcast echoes,
RSM client requests, ...) are plain dataclasses defined next to each
algorithm.  The kernel backend wraps every such payload in an
:class:`Envelope` when a core's ``Send`` effect is applied; the envelope
records the true sender (authenticated channels), the destination, the
simulated send/delivery times, and the causal depth used for the
message-delay metric of the paper's latency theorems.  (The turbo backend
allocates no envelopes at all — that is its whole point — and reuses one
mutable probe envelope to interrogate delay models.)

The envelope is a hand-rolled ``__slots__`` class rather than a frozen
dataclass: it is the single most-allocated object on the kernel backend (one
per send in every run), and the delivery hot path stamps ``deliver_time``
in place instead of frozen-copying the whole envelope per message.  The
payload size estimate is computed lazily on first access and cached, so
runs that never read size metrics never pay for the recursive payload walk.
"""

from __future__ import annotations
from collections.abc import Hashable

from itertools import chain
from typing import Any


def estimate_size(payload: Any, memo: dict[int, tuple[Any, int]] | None = None) -> int:
    """Rough structural size estimate (in abstract units) of a payload.

    Used by the metrics layer to confirm the message-size trade-off the paper
    mentions for SbS ("it sends messages that could have size O(n^2)",
    Section 8).  The estimate counts contained items recursively rather than
    serialised bytes, which is enough to observe the asymptotic shape.
    Strings and bytes count one unit per 16 characters (minimum one unit).

    The payload is sized as a tree: a container reached twice counts twice.
    Payloads are often DAGs, though (every proof in an SbS ack request shares
    one safe_ack set), so the walk is post-order and each container's size is
    kept in ``memo`` (``id -> (container, size)``; the container is held so its
    ``id`` cannot be reused).  Pass one ``memo`` to size several payloads that
    share objects; by default each call gets its own.
    """
    if memo is None:
        memo = {}
    # The open container, its unsized children and their size so far; the
    # containers above it wait on ``stack``.  The outermost level is a
    # stand-in (``None``) whose only child is the payload.
    container, items, size = None, iter((payload,)), 0
    stack: list[tuple[Any, Any, int]] = []
    while True:
        for item in items:
            if isinstance(item, (str, bytes)):
                length = len(item) // 16
                size += length if length > 1 else 1
                continue
            if isinstance(item, (list, tuple, set, frozenset)):
                children = iter(item)
            elif isinstance(item, dict):
                children = chain(item.keys(), item.values())
            elif hasattr(item, "__dataclass_fields__"):
                children = iter([getattr(item, name) for name in item.__dataclass_fields__])
            else:
                size += 1
                continue
            hit = memo.get(id(item))
            if hit is not None and hit[0] is item:
                size += hit[1]
                continue
            stack.append((container, items, size))
            container, items, size = item, children, 1
            break
        else:
            # Every child of ``container`` is sized: close it.
            if not stack:
                return size
            memo[id(container)] = (container, size)
            container, items, outer = stack.pop()
            size += outer


class Envelope:
    """One message in flight on the simulated network."""

    __slots__ = (
        "sender",
        "dest",
        "payload",
        "send_time",
        "deliver_time",
        "depth",
        "seq",
        "_size",
        "_mtype",
    )

    def __init__(
        self,
        sender: Hashable,
        dest: Hashable,
        payload: Any,
        send_time: float,
        deliver_time: float | None = None,
        depth: int = 1,
        seq: int = 0,
    ) -> None:
        #: True sender process id (stamped by the network — unforgeable).
        self.sender = sender
        #: Destination process id.
        self.dest = dest
        #: The algorithm-level message object.
        self.payload = payload
        #: Simulated time at which the send happened.
        self.send_time = send_time
        #: Simulated time at which the message was delivered (stamped in
        #: place by the network at delivery; ``None`` while in flight).
        self.deliver_time = deliver_time
        #: Causal depth: 1 + the causal depth of the sender at send time.  The
        #: maximum causal depth observed at a process when it decides is the
        #: "number of message delays" of the paper's Theorems 3 and 8.
        self.depth = depth
        #: Monotonic sequence number (tie-breaker for deterministic ordering).
        self.seq = seq
        self._size: int | None = None
        self._mtype: str | None = None

    def measure(self, memo: dict[int, tuple[Any, int]] | None = None) -> int:
        """Structural size estimate of the payload (computed lazily, cached).

        ``memo`` is :func:`estimate_size`'s: one memo shared across many
        envelopes sizes each payload object they share once.
        """
        if self._size is None:
            self._size = estimate_size(self.payload, memo)
        return self._size

    size = property(measure)

    @property
    def mtype(self) -> str:
        """Best-effort message-type label for metrics and traces (cached —
        the payload never changes while the envelope is in flight)."""
        mtype = self._mtype
        if mtype is None:
            payload = self.payload
            mtype = getattr(payload, "mtype", None)
            if not isinstance(mtype, str):
                mtype = type(payload).__name__
            self._mtype = mtype
        return mtype

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Envelope({self.sender!r}->{self.dest!r} {self.mtype} "
            f"t={self.send_time:.3f} depth={self.depth})"
        )
