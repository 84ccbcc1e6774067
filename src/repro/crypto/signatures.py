"""HMAC-based simulated signature scheme.

The registry plays the role of the paper's PKI: it issues one secret key per
process identifier and can verify any signature.  The scheme provides the
``Sign`` / ``Verify`` interface of Algorithm 10 (Helper Procedures):

* ``Sign(e)`` — "signs the element e ... and returns a new element e' that is
  a signed version of e"; here :meth:`Signer.sign` returns a
  :class:`SignedValue` bundling the value, the signer id and the tag.
* ``Verify(e)`` — "returns true if and only if e has a correct signature";
  here :meth:`KeyRegistry.verify`.

Security model: forging requires knowing the per-process secret; Byzantine
processes in the simulation only ever receive their own :class:`Signer`, so
signatures of correct processes are existentially unforgeable with respect to
the modelled adversary (which is all the algorithms need).
"""

from __future__ import annotations

import hashlib
import hmac
import os
from collections.abc import Callable, Hashable
from dataclasses import dataclass
from typing import Any


class SignatureError(Exception):
    """Raised when signing/verification is attempted with unknown identities."""


def canonical_bytes(value: Any) -> bytes:
    """Serialise ``value`` into a canonical byte string for MAC computation.

    The encoding is deterministic for the value types used by the algorithms
    (nested tuples, frozensets, strings, ints, ``None`` and dataclass-free
    plain values): logically equal values map to equal byte strings, so a
    signature made on one replica verifies on another.
    """
    return _encode(value).encode("utf-8")


def _encode(value: Any) -> str:
    if value is None:
        return "N"
    if isinstance(value, bool):
        return f"B{int(value)}"
    if isinstance(value, int):
        return f"I{value}"
    if isinstance(value, float):
        return f"F{value!r}"
    if isinstance(value, str):
        return f"S{len(value)}:{value}"
    if isinstance(value, bytes):
        return f"Y{value.hex()}"
    if isinstance(value, (frozenset, set)):
        inner = sorted(_encode(item) for item in value)
        return "{" + ",".join(inner) + "}"
    if isinstance(value, (tuple, list)):
        inner = [_encode(item) for item in value]
        return "(" + ",".join(inner) + ")"
    if isinstance(value, dict):
        inner = sorted(f"{_encode(k)}:{_encode(v)}" for k, v in value.items())
        return "<" + ",".join(inner) + ">"
    # Fall back to repr for exotic-but-hashable values; repr of such values is
    # required to be stable within a single simulation run, which is all the
    # algorithms rely on.
    return f"R{value!r}"


@dataclass(frozen=True)
class SignedValue:
    """A value together with its claimed signer and signature tag.

    Instances are immutable and hashable so they can be members of lattice
    elements (the SbS algorithm stores signed values inside ``Proposed_set``).
    """

    value: Any
    signer: Hashable
    tag: bytes

    @property
    def sender(self) -> Hashable:
        """Alias matching the paper's ``v.sender`` notation (Section 8.1)."""
        return self.signer

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SignedValue(value={self.value!r}, signer={self.signer!r})"


class Signer:
    """Per-process signing handle issued by :class:`KeyRegistry`."""

    def __init__(self, identity: Hashable, secret: bytes, registry: KeyRegistry) -> None:
        self._identity = identity
        self._secret = secret
        self._registry = registry

    @property
    def identity(self) -> Hashable:
        """The process identifier whose key this signer holds."""
        return self._identity

    def sign(self, value: Any) -> SignedValue:
        """Sign ``value`` with this process's key (the paper's ``Sign``)."""
        tag = self._registry.mac(self._secret, self._identity, value)
        return SignedValue(value=value, signer=self._identity, tag=tag)

    def verify(self, signed: SignedValue) -> bool:
        """Verify any process's signature via the registry (the paper's ``Verify``)."""
        return self._registry.verify(signed)


class KeyRegistry:
    """Trusted key directory: issues keys and verifies signatures.

    One registry instance is shared by all processes of a simulation; it is
    part of the trusted computing base (like the PKI of the paper) and is not
    subject to Byzantine corruption.
    """

    def __init__(self, seed: int | None = None) -> None:
        self._keys: dict[Hashable, bytes] = {}
        self._seed = seed
        self._counter = 0
        # Verification memo keyed by object identity.  Signed values are
        # immutable and passed by reference inside one simulation, so a value
        # verified once never needs re-hashing; this keeps the SbS AllSafe
        # checks (which re-verify the same proof objects on every message)
        # from dominating large-n runs.  The dict holds a strong reference to
        # the object so an id() is never reused while the entry is alive.
        self._verify_memo: dict[int, tuple] = {}
        #: Verdicts of higher-level validators (the SbS/GSbS ``AllSafe`` and
        #: ack checks), filled by :meth:`memo_check`.  Scoped to this
        #: registry, i.e. to one simulation run.
        self.validation_memo: dict[tuple, tuple] = {}

    def memo_check(
        self, tag: str, obj: Any, extra: Hashable, check: Callable[..., bool], *args: Any
    ) -> bool:
        """``check(*args)``, run once per ``obj`` and remembered by identity.

        The entry is ``validation_memo[(tag, id(obj), extra)] = (obj, verdict)``
        and a hit requires ``memo[0] is obj``: the anchored object cannot be
        freed, so its ``id`` is never reused while the entry lives.  Callers
        pass only immutable objects, whose verdict cannot change.
        """
        key = (tag, id(obj), extra)
        memo = self.validation_memo.get(key)
        if memo is not None and memo[0] is obj:
            return memo[1]
        verdict = check(*args)
        self.validation_memo[key] = (obj, verdict)
        return verdict

    def register(self, identity: Hashable) -> Signer:
        """Issue (or re-issue) the signer for ``identity``."""
        if identity not in self._keys:
            self._keys[identity] = self._generate_key(identity)
        return Signer(identity, self._keys[identity], self)

    def signer_for(self, identity: Hashable) -> Signer:
        """Return the signer for an already-registered identity."""
        if identity not in self._keys:
            raise SignatureError(f"identity {identity!r} is not registered")
        return Signer(identity, self._keys[identity], self)

    def knows(self, identity: Hashable) -> bool:
        """Return ``True`` iff ``identity`` has been registered."""
        return identity in self._keys

    def mac(self, secret: bytes, identity: Hashable, value: Any) -> bytes:
        """Compute the MAC tag binding ``identity`` to ``value``."""
        message = canonical_bytes((identity, value))
        return hmac.new(secret, message, hashlib.sha256).digest()

    def verify(self, signed: SignedValue) -> bool:
        """Return ``True`` iff ``signed`` carries a valid tag for its signer."""
        if not isinstance(signed, SignedValue):
            return False
        memo = self._verify_memo.get(id(signed))
        if memo is not None and memo[0] is signed:
            return memo[1]
        secret = self._keys.get(signed.signer)
        if secret is None:
            return False
        expected = self.mac(secret, signed.signer, signed.value)
        result = hmac.compare_digest(expected, signed.tag)
        self._verify_memo[id(signed)] = (signed, result)
        return result

    # -- internal --------------------------------------------------------------

    def _generate_key(self, identity: Hashable) -> bytes:
        self._counter += 1
        if self._seed is not None:
            # Deterministic keys for reproducible simulations: derived from the
            # seed and identity, still unknown to other simulated processes.
            material = canonical_bytes((self._seed, self._counter, identity))
            return hashlib.sha256(material).digest()
        return os.urandom(32)
