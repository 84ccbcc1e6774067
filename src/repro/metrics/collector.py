"""Metrics collection for simulated runs."""

from __future__ import annotations

from collections import Counter, defaultdict
from collections.abc import Hashable
from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True)
class DecisionRecord:
    """One decision event of a (correct or Byzantine-claimed) process."""

    pid: Hashable
    value: Any
    time: float
    causal_depth: int
    round: int | None = None


class MetricsCollector:
    """Accumulates traffic and decision statistics for one simulation run.

    The collector is deliberately passive: the network calls
    :meth:`record_send` / :meth:`record_delivery`, algorithm processes call
    :meth:`record_decision`, and experiments read the aggregate views.  All
    counters can be partitioned by process so the "per process" complexity
    measures of the paper can be computed for correct processes only.
    """

    def __init__(self) -> None:
        self.sent_by_process: Counter = Counter()
        self.sent_by_type: Counter = Counter()
        self.sent_by_process_and_type: Counter = Counter()
        self.delivered_by_process: Counter = Counter()
        self.total_sent: int = 0
        self.total_delivered: int = 0
        self.decisions: list[DecisionRecord] = []
        self.custom_events: list[tuple[float, str, Any]] = []
        self._decision_index: dict[Hashable, list[DecisionRecord]] = defaultdict(list)
        # Size accounting is lazy: the network hands us envelopes whose size
        # estimate is computed only if somebody actually reads the size
        # views (``bytes_by_process`` / ``max_payload_size``).  Direct int
        # sizes (legacy callers, tests) are folded immediately.
        self._bytes_by_process: Counter = Counter()
        self._max_payload_size: int = 0
        #: Envelopes awaiting size accounting (sender is read off the
        #: envelope at flush time; the envelopes are alive anyway via the
        #: network's delivery log, so this adds one list slot per send).
        self._pending_sizes: list[Any] = []

    # -- recording (called by the network / processes) --------------------------

    def record_send(
        self, sender: Hashable, dest: Hashable, mtype: str, size: Any = 0
    ) -> None:
        """Account one point-to-point message attributed to ``sender``.

        ``size`` is either an integer (accounted immediately) or an object
        with a lazily-computed ``size`` attribute — in practice the
        :class:`~repro.engine.envelope.Envelope` itself — whose estimate
        is deferred until a size view is read (metrics-gated sizing).
        """
        self.total_sent += 1
        self.sent_by_process[sender] += 1
        self.sent_by_type[mtype] += 1
        self.sent_by_process_and_type[(sender, mtype)] += 1
        if isinstance(size, (int, float)):
            self._bytes_by_process[sender] += size
            if size > self._max_payload_size:
                self._max_payload_size = size
        else:
            self._pending_sizes.append(size)

    def _flush_sizes(self) -> None:
        if self._pending_sizes:
            bytes_by_process = self._bytes_by_process
            max_size = self._max_payload_size
            # One memo for the whole flush: payloads sent to many members (a
            # broadcast, an SbS proof set) are sized once, not per envelope.
            memo: dict = {}
            for envelope in self._pending_sizes:
                size = envelope.measure(memo)
                bytes_by_process[envelope.sender] += size
                if size > max_size:
                    max_size = size
            self._max_payload_size = max_size
            self._pending_sizes.clear()

    @property
    def bytes_by_process(self) -> Counter:
        """Total structural payload size sent per process (computed lazily)."""
        self._flush_sizes()
        return self._bytes_by_process

    @property
    def max_payload_size(self) -> int:
        """Largest single payload size estimate seen (computed lazily)."""
        self._flush_sizes()
        return self._max_payload_size

    def record_delivery(self, sender: Hashable, dest: Hashable, mtype: str) -> None:
        """Account one delivered message at ``dest``."""
        self.total_delivered += 1
        self.delivered_by_process[dest] += 1

    def record_decision(
        self,
        pid: Hashable,
        value: Any,
        time: float,
        causal_depth: int,
        round: int | None = None,
    ) -> DecisionRecord:
        """Record a decision together with its causal depth.

        ``causal_depth`` is the length of the longest chain of messages that
        causally precedes the decision, each message one hop.  It counts
        message delays only when every message takes the same time
        (``FixedDelay``).  Under any other delay model it also counts chains
        the decision never waited on, such as reliable-broadcast echo/ready
        chains, so it can exceed the paper's message-delay bounds while the
        decision time, in units of the largest delay, stays within them.
        """
        record = DecisionRecord(
            pid=pid, value=value, time=time, causal_depth=causal_depth, round=round
        )
        self.decisions.append(record)
        self._decision_index[pid].append(record)
        return record

    def record_event(self, time: float, label: str, data: Any = None) -> None:
        """Record an arbitrary experiment-specific event."""
        self.custom_events.append((time, label, data))

    # -- aggregate views ---------------------------------------------------------

    def decisions_of(self, pid: Hashable) -> list[DecisionRecord]:
        """All decisions recorded for process ``pid`` (in order)."""
        return list(self._decision_index.get(pid, []))

    @property
    def decided(self):
        """Set-like live view of pids with at least one decision.

        Backed directly by the decision index (no second structure to keep
        in sync), so stop predicates can test ``targets <= metrics.decided``
        in O(|targets|) per check instead of rebuilding a set per delivered
        message.
        """
        return self._decision_index.keys()

    def decided_pids(self) -> list[Hashable]:
        """Identifiers of processes that recorded at least one decision."""
        return list(self._decision_index.keys())

    def max_messages_per_process(self, pids: list[Hashable] | None = None) -> int:
        """Worst-case per-process send count (over ``pids`` or everyone)."""
        if pids is None:
            counts = list(self.sent_by_process.values())
        else:
            counts = [self.sent_by_process[pid] for pid in pids]
        return max(counts, default=0)

    def mean_messages_per_process(self, pids: list[Hashable] | None = None) -> float:
        """Average per-process send count."""
        if pids is None:
            pids = list(self.sent_by_process.keys())
        if not pids:
            return 0.0
        return sum(self.sent_by_process[pid] for pid in pids) / len(pids)

    def max_decision_depth(self, pids: list[Hashable] | None = None) -> int:
        """Largest causal depth among recorded decisions (over ``pids`` or everyone).

        A count of message delays only under ``FixedDelay``; see
        :meth:`record_decision`.
        """
        records = self.decisions
        if pids is not None:
            allowed = set(pids)
            records = [record for record in records if record.pid in allowed]
        return max((record.causal_depth for record in records), default=0)

    def summary(self) -> dict[str, Any]:
        """Compact dictionary summary used by experiment reports and tests."""
        return {
            "total_sent": self.total_sent,
            "total_delivered": self.total_delivered,
            "decisions": len(self.decisions),
            "max_decision_depth": self.max_decision_depth(),
            "max_messages_per_process": self.max_messages_per_process(),
            "max_payload_size": self.max_payload_size,
            "sent_by_type": dict(self.sent_by_type),
        }
