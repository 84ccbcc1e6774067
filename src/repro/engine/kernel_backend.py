"""Kernel backend: turbo's event loop plus per-message recording.

:class:`KernelEngine` is the reference backend for trace-level work.  It runs
on :class:`~repro.engine.turbo_backend.TurboEngine`'s calendar and event
loop — the same seeded RNG, ``(time, seq)`` tie-breaking and crash/partition
hold semantics, so the schedule is turbo's by construction — and adds what
turbo sheds: one :class:`~repro.engine.envelope.Envelope` per message (handed
to the delay model, which may read any field), per-type and payload-size
metrics, and the :attr:`delivery_log`.  Recording draws no random number and
takes no sequence number, which is what keeps a kernel run's schedule equal to
turbo's (``tests/engine/test_cross_backend.py``) and to the frozen JSON
goldens under ``tests/golden/``.

Guarantees provided (matching the paper's model, Section 3):

* **Reliable channels** — every ``Send`` effect is eventually delivered
  exactly once; crashes and partitions only *hold* traffic (released on
  recovery / heal), so a fault is indistinguishable from a long delay.
* **Authenticated channels** — the receiver learns the true sender: the
  interpreter applies effects under the identity of the core that emitted
  them, so a Byzantine core cannot forge the sender field.
* **Deterministic replay** — delivery order and timing come from a pluggable
  :class:`~repro.engine.delays.DelayModel` driven by the seeded RNG; a run is
  a pure function of (cores, seed, delay model, fault plan).
"""

from __future__ import annotations

from collections.abc import Hashable
from typing import Any

from repro.engine.delays import DelayModel
from repro.engine.effects import invalid_time
from repro.engine.envelope import Envelope
from repro.engine.services import EngineBase, RunResult
from repro.engine.turbo_backend import _MESSAGE, TurboEngine
from repro.metrics.collector import MetricsCollector

__all__ = ["KernelEngine", "RunResult"]


class KernelEngine(TurboEngine):
    """Reference backend: turbo's loop, plus envelopes, full metrics and a delivery log."""

    name = "kernel"
    summary = "reference: turbo's schedule plus delivery log + full metrics"

    def __init__(
        self,
        delay_model: DelayModel | None = None,
        seed: int = 0,
        metrics: MetricsCollector | None = None,
    ) -> None:
        super().__init__(delay_model, seed, metrics)
        #: Every delivered envelope, in delivery order (for trace tests).
        self.delivery_log: list[Envelope] = []

    # -- the effect sink -----------------------------------------------------------

    def send(self, sender: Hashable, dest: Hashable, payload: Any, depth: int) -> Envelope:
        """Queue one message from ``sender`` to ``dest`` carrying causal ``depth``."""
        dest_index = self._index.get(dest)
        if dest_index is None:
            raise ValueError(f"unknown destination {dest!r}")
        self._msg_seq += 1
        now = self._now
        envelope = Envelope(
            sender=sender,
            dest=dest,
            payload=payload,
            send_time=now,
            depth=depth,
            seq=self._msg_seq,
        )
        delay = self._delay_model.delay(envelope, self.rng)
        if invalid_time(delay):
            raise ValueError(f"delay model produced invalid delay {delay!r}")
        self.metrics.record_send(sender, dest, envelope.mtype, envelope)
        self._seq += 1
        self._enqueue((now + delay, self._seq, _MESSAGE, dest_index, sender, payload, depth, envelope))
        self.pending_messages += 1
        return envelope

    broadcast = EngineBase.broadcast

    def submit(self, sender: Hashable, dest: Hashable, payload: Any) -> Envelope:
        """Queue one message from ``sender`` to ``dest`` (harness API).

        The message carries ``sender``'s causal depth plus one, exactly as
        if ``sender``'s core had emitted the ``Send``.
        """
        return self.send(sender, dest, payload, self._nodes[sender].causal_depth + 1)

    def _record_delivery(self, entry: tuple, time: float) -> None:
        """The delivery hook of :meth:`TurboEngine.run` (slot 7 is the envelope)."""
        envelope = entry[7]
        envelope.deliver_time = time
        self.metrics.record_delivery(envelope.sender, envelope.dest, envelope.mtype)
        self.delivery_log.append(envelope)
