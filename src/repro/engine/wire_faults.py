"""Wire-level fault injection: corrupt, duplicate and tamper with real bytes.

The simulated backends perturb *Python objects* (schedulers reorder
envelopes, fault plans crash nodes); everything here perturbs *encoded
frames* — the attack surface that actually exists once traffic rides
sockets.  Two injection points:

:class:`FaultyCodec`
    Wraps a :class:`~repro.engine.wire.Codec` on the **send** side.  Every
    ``encode_frame`` may prepend forged frames ahead of the honest one:
    bit-flipped copies (stale CRC — the receiver must reject at the framing
    layer), truncated copies re-headered to a *valid* CRC (the decoder must
    reject), duplicated and replayed frames, and on-wire Byzantine
    mutations of signed payloads — value tampering and signature splicing
    applied to the :class:`~repro.crypto.signatures.SignedValue` bundles
    inside an already-built protocol message.  The honest frame always
    follows the forgeries, so channels stay reliable and liveness is
    preserved; what is under test is whether anything *forged* ever
    influences a decision.

:class:`FaultySocket`
    A localhost TCP proxy for a :class:`~repro.engine.wire.FrameLink` (the
    one link layer under the async engine's tcp transport and the cluster):
    torn writes (frames chopped into tiny chunks), slow-socket pacing, and
    periodic mid-stream disconnects that force the link's reconnect path
    while a frame is torn in half on the wire.

Injected duplicate/replay/tamper frames carry a ``"wf"`` marker key in the
``peer`` frame dict so :class:`~repro.engine.async_backend.AsyncEngine` can
keep its pending-message accounting exact (an injected extra was never
counted as a send).

The fault menu is a tiny ``+``-separated DSL — ``"flip+tamper-value:0.5"``
— so a fault plan can ride a scenario axis, a campaign file and a replay
command as one string (:func:`parse_wire_faults`).
"""

from __future__ import annotations

import asyncio
import dataclasses
from random import Random
from typing import Any

from repro.crypto.signatures import SignedValue
from repro.engine import wire

#: Codec-level modes (injected by :class:`FaultyCodec` on the send path).
CODEC_MODES = ("flip", "trunc", "dup", "replay", "tamper-value", "tamper-sig")

#: Socket-level modes (exercised by :class:`FaultySocket` / cluster tests).
SOCKET_MODES = ("torn", "slow", "churn")

#: Per-mode default injection probability per encoded frame.
DEFAULT_RATE = 0.25

#: The poison marker tampered values smuggle in: if it ever shows up in a
#: decided set, verification failed to hold the line.
POISON = "wire-byz"

#: Marker key on injected frame dicts (see the module docstring).
INJECTED_KEY = "wf"

#: Payload classes eligible for ``tamper-*`` mutation: the *request*
#: direction — disclosure and proposal traffic carrying signed values.  This
#: is exactly the surface of the paper's claim: a value forged on the wire
#: must never enter a decision, because receivers verify before processing.
#: Response traffic (acks) is deliberately excluded: mutating an ack makes
#: the recipient attribute Byzantine behaviour to the honest sender (the
#: protocols' authenticated-channel assumption) and blacklist it, which
#: kills liveness without testing verification at all — that direction needs
#: channel authentication (e.g. TLS), not signatures.
TAMPER_ELIGIBLE = frozenset(
    {
        "InitPhase",
        "SafeRequest",
        "SbSAckRequest",
        "GSbSInit",
        "GSbSSafeRequest",
        "GSbSAckRequest",
    }
)

_HISTORY_CAP = 32


@dataclasses.dataclass(frozen=True)
class WireFaultPlan:
    """A parsed wire-fault menu: ``(mode, rate)`` terms plus options."""

    terms: tuple[tuple[str, float], ...] = ()
    framing: str = ""

    def describe(self) -> str:
        """The canonical DSL string (parse/describe round-trips)."""
        parts = [
            mode if rate == DEFAULT_RATE else f"{mode}:{rate:g}"
            for mode, rate in self.terms
        ]
        if self.framing:
            parts.append(f"framing:{self.framing}")
        return "+".join(parts)

    def codec_terms(self) -> tuple[tuple[str, float], ...]:
        return tuple(term for term in self.terms if term[0] in CODEC_MODES)

    def has(self, mode: str) -> bool:
        return any(name == mode for name, _rate in self.terms)


def parse_wire_faults(spec: str) -> WireFaultPlan | None:
    """Parse a ``+``-separated wire-fault menu (empty string -> ``None``).

    Each term is ``mode`` or ``mode:rate`` with ``rate`` in ``(0, 1]``;
    ``framing:json`` / ``framing:binary`` selects the codec.  Unknown modes
    and malformed rates raise :class:`~repro.engine.wire.WireError` so a
    typo'd axis value fails a campaign loudly instead of silently injecting
    nothing.
    """
    spec = spec.strip()
    if not spec:
        return None
    terms: list[tuple[str, float]] = []
    framing = ""
    for raw in spec.split("+"):
        term = raw.strip()
        if not term:
            raise wire.WireError(f"empty term in wire-fault spec {spec!r}")
        mode, _sep, arg = term.partition(":")
        if mode == "framing":
            if arg not in wire.FRAMINGS:
                raise wire.WireError(
                    f"unknown wire-fault framing {arg!r}; known: {', '.join(wire.FRAMINGS)}"
                )
            framing = arg
            continue
        if mode not in CODEC_MODES and mode not in SOCKET_MODES:
            known = ", ".join(CODEC_MODES + SOCKET_MODES)
            raise wire.WireError(f"unknown wire-fault mode {mode!r}; known: {known}")
        rate = DEFAULT_RATE
        if arg:
            try:
                rate = float(arg)
            except ValueError:
                raise wire.WireError(f"malformed wire-fault rate {arg!r} in {term!r}") from None
            if not 0.0 < rate <= 1.0:
                raise wire.WireError(f"wire-fault rate must be in (0, 1], got {rate!r}")
        terms.append((mode, rate))
    return WireFaultPlan(terms=tuple(terms), framing=framing)


def coerce_wire_faults(value: Any) -> WireFaultPlan:
    """Accept a plan object or a DSL string; reject everything else."""
    if isinstance(value, WireFaultPlan):
        return value
    if isinstance(value, str):
        plan = parse_wire_faults(value)
        if plan is None:
            raise wire.WireError("empty wire-fault spec (pass None to disable)")
        return plan
    raise wire.WireError(f"wire_faults must be a WireFaultPlan or DSL string, got {value!r}")


# ---------------------------------------------------------------------------
# Byzantine payload mutation (value tampering / signature splicing)
# ---------------------------------------------------------------------------


def _rebuild(obj: Any, mutate, state: dict) -> Any:
    """Rebuild ``obj`` with ``mutate`` applied to the first SignedValue found."""
    if state["done"]:
        return obj
    if isinstance(obj, SignedValue):
        state["done"] = True
        return mutate(obj)
    if isinstance(obj, dict):
        return {key: _rebuild(item, mutate, state) for key, item in obj.items()}
    if isinstance(obj, list):
        return [_rebuild(item, mutate, state) for item in obj]
    if isinstance(obj, tuple):
        return tuple(_rebuild(item, mutate, state) for item in obj)
    if isinstance(obj, frozenset):
        return frozenset(_rebuild(item, mutate, state) for item in obj)
    if isinstance(obj, set):
        return {_rebuild(item, mutate, state) for item in obj}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {
            field.name: _rebuild(getattr(obj, field.name), mutate, state)
            for field in dataclasses.fields(obj)
        }
        return type(obj)(**fields)
    return obj


def mutate_first_signed(obj: Any, mutate) -> tuple[Any, bool]:
    """Apply ``mutate`` to the first SignedValue in ``obj`` (depth-first).

    Returns ``(rebuilt, found)``; when no SignedValue exists the original
    object comes back unchanged with ``found=False``.
    """
    state = {"done": False}
    rebuilt = _rebuild(obj, mutate, state)
    return rebuilt, state["done"]


def collect_tags(obj: Any, into: list[bytes], cap: int = 8) -> None:
    """Harvest SignedValue tags for signature-splicing attacks."""
    if len(into) >= cap:
        return
    if isinstance(obj, SignedValue):
        if obj.tag not in into:
            into.append(obj.tag)
        obj = obj.value
    if isinstance(obj, dict):
        for key, item in obj.items():
            collect_tags(key, into, cap)
            collect_tags(item, into, cap)
    elif isinstance(obj, (list, tuple, set, frozenset)):
        for item in obj:
            collect_tags(item, into, cap)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for field in dataclasses.fields(obj):
            collect_tags(getattr(obj, field.name), into, cap)


def poison_value(value: Any) -> Any:
    """A tampered stand-in for a signed value (keeps the container shape)."""
    if isinstance(value, frozenset):
        return value | {POISON}
    return (POISON, value)


def _flip_tag(tag: bytes) -> bytes:
    if not tag:
        return b"\x5a"
    return tag[:-1] + bytes([tag[-1] ^ 0x01])


# ---------------------------------------------------------------------------
# FaultyCodec: forge frames on the send path
# ---------------------------------------------------------------------------


class FaultyCodec(wire.Codec):
    """Send-side codec wrapper injecting forged frames ahead of honest ones.

    ``encode_frame`` returns the honest frame *preceded by* zero or more
    forgeries, each drawn independently per term of the plan from a seeded
    RNG; :meth:`forge` draws the forgeries alone, for a sender that encodes
    the honest frame once and forges per link.  Decoding is delegated
    untouched — the receiver under test stays honest.  ``stats`` counts
    injections by mode.
    """

    def __init__(self, inner: wire.Codec, plan: WireFaultPlan, seed: int = 0) -> None:
        self.inner = inner
        self.plan = plan
        self.rng = Random(seed)
        self.stats: dict[str, int] = {}
        self._terms = plan.codec_terms()
        self._needs_history = plan.has("replay")
        self._needs_tags = plan.has("tamper-sig")
        #: Replay candidates per link: a replay re-sends an earlier frame of
        #: the same link, because the receiver stamps the link's sender on it.
        self._history: dict[Any, list[Any]] = {}
        self._tag_pool: list[bytes] = []

    @property
    def name(self) -> str:  # type: ignore[override]
        return f"faulty+{self.inner.name}"

    def decode_body(self, body) -> Any:
        return self.inner.decode_body(body)

    def encode_frame(self, message: Any) -> bytes:
        honest = self.inner.encode_frame(message)
        return self.forge(message, honest) + honest

    def forge(self, message: Any, honest: bytes, link: Any = None) -> bytes:
        """The forged frames to send ahead of ``honest`` (the encoding of
        ``message``) on ``link``."""
        if not self._terms:
            return b""
        history = self._history.setdefault(link, [])
        out = bytearray()
        for mode, rate in self._terms:
            if self.rng.random() >= rate:
                continue
            forged = self._forge(mode, message, honest, history)
            if forged:
                out += forged
                self.stats[mode] = self.stats.get(mode, 0) + 1
        self._remember(message, history)
        return bytes(out)

    # -- forgeries ---------------------------------------------------------------

    def _forge(self, mode: str, message: Any, honest: bytes, history: list[Any]) -> bytes:
        if mode == "flip":
            return self._forge_flip(honest)
        if mode == "trunc":
            return self._forge_trunc(honest)
        if mode == "dup":
            return self.inner.encode_frame(self._marked(message))
        if mode == "replay":
            if not history:
                return b""
            return self.inner.encode_frame(self._marked(self.rng.choice(history)))
        if mode == "tamper-value":
            return self._forge_tamper(
                message, lambda sv: dataclasses.replace(sv, value=poison_value(sv.value))
            )
        if mode == "tamper-sig":
            return self._forge_tamper(message, self._splice_signature)
        return b""

    def _forge_flip(self, honest: bytes) -> bytes:
        """One bit flipped inside the body: the header CRC goes stale, so
        the receiver must reject at the framing layer.  The header itself is
        left intact — framing alignment is not what this mode attacks."""
        forged = bytearray(honest)
        index = self.rng.randrange(wire.HEADER_SIZE, len(honest))
        forged[index] ^= 1 << self.rng.randrange(8)
        return bytes(forged)

    def _forge_trunc(self, honest: bytes) -> bytes:
        """A truncated body re-headered with a *matching* length and CRC:
        the framing layer passes, so the decoder itself must reject."""
        body = honest[wire.HEADER_SIZE :]
        if len(body) < 2:
            return b""
        cut = self.rng.randrange(1, len(body))
        stub = body[:cut]
        return wire.pack_header(stub) + stub

    def _forge_tamper(self, message: Any, mutate) -> bytes:
        if isinstance(message, dict):
            payload = message.get("payload")
            if type(payload).__name__ not in TAMPER_ELIGIBLE:
                return b""
        tampered, found = mutate_first_signed(message, mutate)
        if not found:
            return b""
        return self.inner.encode_frame(self._marked(tampered))

    def _splice_signature(self, signed: SignedValue) -> SignedValue:
        foreign = [tag for tag in self._tag_pool if tag != signed.tag]
        tag = self.rng.choice(foreign) if foreign else _flip_tag(signed.tag)
        return dataclasses.replace(signed, tag=tag)

    def _marked(self, message: Any) -> Any:
        """Tag an injected frame so the engine's accounting can spot it."""
        if isinstance(message, dict):
            marked = dict(message)
            marked[INJECTED_KEY] = 1
            return marked
        return message

    def _remember(self, message: Any, history: list[Any]) -> None:
        if self._needs_history:
            history.append(message)
            if len(history) > _HISTORY_CAP:
                del history[0]
        if self._needs_tags:
            collect_tags(message, self._tag_pool)


# ---------------------------------------------------------------------------
# FaultySocket: a byte-mangling TCP proxy for the cluster links
# ---------------------------------------------------------------------------


class FaultySocket:
    """A localhost TCP proxy that mangles the *stream*, not the frames.

    Sits between a :class:`~repro.engine.wire.FrameLink` (or any client)
    and a backend server: forwards bytes in both directions while
    tearing writes into tiny chunks (``torn``), pacing them (``pace_s``)
    and periodically dropping the connection mid-stream
    (``disconnect_after`` forwarded chunks) to force the reconnect path
    while a frame is split across the cut.
    """

    def __init__(
        self,
        target_host: str,
        target_port: int,
        *,
        torn: bool = False,
        pace_s: float = 0.0,
        disconnect_after: int = 0,
        seed: int = 0,
    ) -> None:
        self.target_host = target_host
        self.target_port = target_port
        self.torn = torn
        self.pace_s = pace_s
        self.disconnect_after = disconnect_after
        self.rng = Random(seed)
        self.port: int | None = None
        self.chunks_forwarded = 0
        self.disconnects = 0
        self._server: asyncio.AbstractServer | None = None
        self._conns: set[asyncio.StreamWriter] = set()

    async def start(self, host: str = "127.0.0.1") -> int:
        self._server = await asyncio.start_server(self._handle, host=host, port=0)
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for writer in list(self._conns):
            writer.close()
        self._conns.clear()

    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        try:
            upstream_reader, upstream_writer = await asyncio.open_connection(
                self.target_host, self.target_port
            )
        except OSError:
            writer.close()
            return
        self._conns.add(writer)
        self._conns.add(upstream_writer)
        budget = [self.disconnect_after] if self.disconnect_after else None
        pumps = [
            asyncio.ensure_future(self._pump(reader, upstream_writer, budget)),
            asyncio.ensure_future(self._pump(upstream_reader, writer, budget)),
        ]
        try:
            await asyncio.wait(pumps, return_when=asyncio.FIRST_COMPLETED)
        finally:
            for pump in pumps:
                pump.cancel()
            await asyncio.gather(*pumps, return_exceptions=True)
            for side in (writer, upstream_writer):
                self._conns.discard(side)
                side.close()

    async def _pump(self, reader, writer, budget) -> None:
        try:
            while True:
                data = await reader.read(65536)
                if not data:
                    return
                for chunk in self._shred(data):
                    if budget is not None:
                        budget[0] -= 1
                        if budget[0] < 0:
                            self.disconnects += 1
                            return  # mid-stream cut: the tail is torn away
                    writer.write(chunk)
                    await writer.drain()
                    self.chunks_forwarded += 1
                    if self.pace_s:
                        await asyncio.sleep(self.pace_s)
        except (ConnectionError, OSError):
            return

    def _shred(self, data: bytes):
        if not self.torn:
            yield data
            return
        offset = 0
        while offset < len(data):
            size = self.rng.randrange(1, 8)
            yield data[offset : offset + size]
            offset += size
