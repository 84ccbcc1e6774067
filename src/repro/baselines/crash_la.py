"""Crash-fault-only Lattice Agreement baseline (Faleiro et al. [2] style).

The paper builds WTS by hardening exactly this algorithm: "The Deciding Phase
is an extension of the algorithm described in [2] with a Byzantine quorum and
additional checks used to thwart Byzantine attacks" (Section 5).  The
baseline is therefore WTS's own Deciding Phase
(:class:`~repro.core.wts.WTSProcess`) with every Byzantine defence removed:

* no Values Disclosure Phase / reliable broadcast — the process starts in
  ``proposing`` and sends its first ack request on start;
* no safe-value filtering — ``SAFE(m)`` is always true, so whatever arrives
  is merged;
* a simple majority quorum ``floor(n/2) + 1`` (tolerates ``f < n/2`` crash
  faults) instead of the Byzantine quorum.

What it keeps are WTS's structural checks: acks, nacks and requests whose
sets are not lattice elements are dropped, so the comparison with WTS is
about Byzantine *protocol* attacks, not about trivially broken payload types.

It is used by experiment E10 (message/latency overhead of Byzantine
tolerance) and, as a negative control, by failure-injection tests that show
it violates Comparability/Non-Triviality under Byzantine behaviour that WTS
tolerates.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence

from repro.core.wts import PROPOSING, WTSProcess
from repro.lattice.base import JoinSemilattice, LatticeElement


class CrashLAProcess(WTSProcess):
    """Crash-tolerant single-shot Lattice Agreement participant (both roles)."""

    def __init__(
        self,
        pid: Hashable,
        lattice: JoinSemilattice,
        members: Sequence[Hashable],
        f: int,
        proposal: LatticeElement | None = None,
    ) -> None:
        super().__init__(pid, lattice, members, f, proposal)
        self.state = PROPOSING
        self.proposed_set = lattice.join(self.proposed_set, self.proposal)

    @property
    def quorum(self) -> int:
        """Crash-fault quorum: a simple majority of the membership."""
        return self.n // 2 + 1

    def on_start(self) -> None:
        """No disclosure: propose the input straight away."""
        self._broadcast_ack_request()

    def is_safe(self, element: LatticeElement) -> bool:
        """Every message is handled as it arrives."""
        return True
