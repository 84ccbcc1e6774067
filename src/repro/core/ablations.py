"""Ablated WTS variants: remove one defence and watch the paper's attack land.

The paper motivates two design choices that make the Deciding Phase of [2]
Byzantine-tolerant (Section 5):

1. **Reliable broadcast in the Values Disclosure Phase** — "the reliable
   broadcast prevents Byzantine processes from sending different messages to
   [different] processes";
2. **The wait-till-safe discipline** — correct processes only handle messages
   whose lattice content is covered by their safe-values set ``SvS``.

Each class below removes exactly one of those defences while keeping
everything else identical, so experiments and tests can show the specific
property that breaks (a classic ablation study):

* :class:`NoSafetyWTSProcess` — treats every message as safe.  A nack-spamming
  Byzantine acceptor can then launder arbitrary undisclosed values into
  ``Proposed_set`` and decisions, violating **Non-Triviality** (and unbounding
  the refinement count that Lemma 3 relies on).
* :class:`PlainDisclosureWTSProcess` — replaces the Byzantine reliable
  broadcast with a single best-effort broadcast.  An equivocating proposer can
  then put *different* values into different processes' ``SvS``; combined with
  the wait-till-safe filter this wedges the deciding phase (acceptors on the
  other side of the equivocation never consider the requests safe), destroying
  **Liveness**; removing both defences at once instead yields incomparable
  decisions, destroying **Comparability**.

These classes exist for evaluation only — they are deliberately *incorrect*
implementations and are never exported through the top-level package API.
"""

from __future__ import annotations
from collections.abc import Hashable

from typing import Any

from repro.broadcast.reliable import RBInit
from repro.core.wts import DISCLOSURE_TAG, WTSProcess
from repro.crypto.signatures import KeyRegistry
from repro.lattice.base import LatticeElement


class NoSafetyWTSProcess(WTSProcess):
    """WTS with the wait-till-safe discipline removed (ablation A1).

    ``SAFE(m)`` always returns ``True``: buffered messages are processed
    immediately regardless of whether their values were ever disclosed.
    """

    def is_safe(self, element: LatticeElement) -> bool:  # noqa: D401 - ablation
        return True


class PlainDisclosureWTSProcess(WTSProcess):
    """WTS with the reliable broadcast replaced by a plain broadcast (ablation A2).

    The disclosure is sent as a single point-to-point fan-out and treated as
    delivered on first receipt — no echo/ready amplification, so an
    equivocating origin can feed different values to different processes.
    """

    def _disclose(self) -> None:
        self.broadcast(RBInit(origin=self.pid, tag=DISCLOSURE_TAG, value=self.proposal))

    def on_message(self, sender: Hashable, payload: Any) -> None:
        if isinstance(payload, RBInit) and payload.tag == DISCLOSURE_TAG:
            # Deliver directly on first receipt — the whole point of the
            # ablation is that nobody cross-checks what others received.
            self._on_rb_deliver(origin=sender, tag=payload.tag, value=payload.value)
            return
        super().on_message(sender, payload)


class NoDefencesWTSProcess(PlainDisclosureWTSProcess):
    """Both ablations at once: plain disclosure and no safety filter (A3).

    This is essentially the crash-fault deciding phase of [2] run with a
    Byzantine quorum; an equivocating proposer splits the correct processes'
    views and their decisions stop being comparable.
    """

    def is_safe(self, element: LatticeElement) -> bool:  # noqa: D401 - ablation
        return True


class BlindKeyRegistry(KeyRegistry):
    """A PKI that accepts every signature (ablation A4: no verification).

    SbS/GSbS with this registry keep all their message flow but lose the one
    defence the paper adds over WTS: ``Verify`` returns true for *any* tag.
    Used by the explorer's ``no-signatures`` mutant canary — on-wire value
    tampering and signature splicing must start landing in decisions once
    verification is disabled, proving the end-to-end wire-Byzantine test can
    actually fail.
    """

    def verify(self, signed) -> bool:  # noqa: D401 - ablation
        return True
