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
from dataclasses import dataclass, fields, is_dataclass
from typing import Any


class SignatureError(Exception):
    """Raised when signing/verification is attempted with unknown identities."""


def canonical_bytes(value: Any) -> bytes:
    """Serialise ``value`` into a canonical byte string for MAC computation.

    Logically equal values map to equal byte strings in every interpreter:
    no part of the encoding depends on the string hash seed, so a signature
    made in one process verifies in any other (after a wire round trip too).

    * ``None``, bools, ints, floats, strings and bytes encode as a type
      letter plus their text.  Frozensets and sets sort their members'
      encodings, tuples and lists keep their order, and dicts sort their
      ``key:value`` encodings.
    * A dataclass instance encodes as ``H`` plus the SHA-256 digest of its
      class name and its fields' encodings in declaration order.  A parent
      embeds each child dataclass's digest, not the child's text, so a proof
      nested in a proof (``ProvenValue`` -> ``SafeAck`` -> ``SignedValue``)
      costs one digest per reference.  Forging a body therefore needs a
      SHA-256 collision, which HMAC-SHA-256 already assumes cannot be found.
    * A frozen dataclass keeps its digest in its instance ``__dict__`` once
      computed, provided the encoding met no list, set, dict or non-frozen
      dataclass below it.  Such a value could still change, so its digest is
      recomputed on every call.  Nothing may mutate a frozen dataclass
      behind ``object.__setattr__`` once it has been encoded.
    * Any other value encodes as its ``repr``, which must therefore not
      depend on the hash seed (no set iteration order inside it) and, below
      a frozen dataclass, must not change.
    """
    return _encode(value).encode("utf-8")


#: Instance ``__dict__`` key of a frozen dataclass's cached digest.
_DIGEST_KEY = "_canonical_digest"

#: Per dataclass: ``(header, field names, frozen)``.
_LAYOUTS: dict[type, tuple[str, tuple[str, ...], bool]] = {}


def _encode(value: Any) -> str:
    # Strings and dataclasses (signed values in a body) are tested first:
    # they are what a hot signing path meets most.
    if value is None:
        return "N"
    if isinstance(value, str):
        return f"S{len(value)}:{value}"
    layout = _LAYOUTS.get(type(value))
    if layout is not None:
        return _digest(value, layout)
    if isinstance(value, bool):
        return f"B{int(value)}"
    if isinstance(value, int):
        return f"I{value}"
    if isinstance(value, float):
        return f"F{value!r}"
    if isinstance(value, bytes):
        return f"Y{value.hex()}"
    if isinstance(value, (frozenset, set)):
        inner = sorted([_encode(item) for item in value])
        return "{" + ",".join(inner) + "}"
    if isinstance(value, (tuple, list)):
        inner = [_encode(item) for item in value]
        return "(" + ",".join(inner) + ")"
    if isinstance(value, dict):
        inner = sorted(f"{_encode(k)}:{_encode(v)}" for k, v in value.items())
        return "<" + ",".join(inner) + ">"
    layout = _layout(type(value))
    if layout is not None:
        return _digest(value, layout)
    return f"R{value!r}"


def _layout(cls: type) -> tuple[str, tuple[str, ...], bool] | None:
    """Record and return ``cls``'s layout, or ``None`` if it is not a dataclass."""
    if not is_dataclass(cls):
        return None
    name = cls.__name__
    names = tuple(field.name for field in fields(cls))
    layout = _LAYOUTS[cls] = (f"D{len(name)}:{name}(", names, cls.__dataclass_params__.frozen)
    return layout


def _digest(value: Any, layout: tuple[str, tuple[str, ...], bool]) -> str:
    """A dataclass's ``H`` + SHA-256 token, read from or stored in its cache."""
    attrs = getattr(value, "__dict__", None)
    token = attrs.get(_DIGEST_KEY) if attrs is not None else None
    if token is not None:
        return token
    header, names, frozen = layout
    parts = [getattr(value, name) for name in names]
    token = "H" + hashlib.sha256(
        (header + ",".join([_encode(part) for part in parts]) + ")").encode("utf-8")
    ).hexdigest()
    if frozen and attrs is not None and all(map(_settled, parts)):
        attrs[_DIGEST_KEY] = token
    return token


def _settled(value: Any) -> bool:
    """Whether ``value``'s encoding can never change.

    Run after ``value`` was encoded, so a dataclass below it is settled iff
    it holds a cached digest.
    """
    if isinstance(value, (set, list, dict)):
        return False
    if isinstance(value, (tuple, frozenset)):
        return all(map(_settled, value))
    if type(value) in _LAYOUTS:
        return _DIGEST_KEY in getattr(value, "__dict__", ())
    return True


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
        #: Values a content-pure validator has accepted, one set per scope
        #: (SbS/GSbS ``AllSafe`` use ``(algorithm, quorum)``).  Membership is
        #: by equality, so a value equal to an accepted one is accepted too:
        #: only validators whose verdict depends on nothing but the value and
        #: this registry (one run) may use it.
        self.known_safe: dict[Hashable, set[Any]] = {}

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
