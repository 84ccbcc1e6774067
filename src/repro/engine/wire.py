"""Wire formats of the asyncio network backend: length-prefixed frames.

The protocols exchange rich Python values — frozen message dataclasses
(:mod:`repro.core.messages`, :mod:`repro.rsm.replica`, ...), frozensets,
tuples, :class:`~repro.crypto.signatures.SignedValue` bundles with ``bytes``
tags.  Two framings carry them, selected per engine via
``AsyncEngine(framing=...)`` / :func:`get_codec`:

* ``"json"`` — tagged JSON, the readable reference format.  JSON knows none
  of the rich types, so the codec wraps every non-JSON-native value in a
  small tagged object::

      ("a", "b")                 -> {"~": "tuple", "v": ["a", "b"]}
      frozenset({"x"})           -> {"~": "frozenset", "v": ["x"]}
      b"\\x01\\x02"              -> {"~": "bytes", "v": "0102"}
      Ack(accepted_set=..., ...) -> {"~": "dc:Ack", "v": {...fields...}}

  One pass each way, one implementation each way: :func:`encode_frame`
  writes that text directly (no intermediate tree; a dataclass's opening
  text and field keys are cached per class, strings go through the JSON
  module's C escaper) and :func:`decode_body` is a single
  :func:`json.loads` whose object hook revives each tagged object as the C
  scanner closes it, children first.  Set order rule: members travel
  sorted by their own encoded text.  That text is a function of the value
  alone, so equal sets give equal frames under any hash seed; the order
  carries no meaning, and a decoder accepts members in any order.

* ``"binary"`` — the compact wire-speed format: one type byte per value,
  varint/struct lengths, zigzag-varint ints, per-frame string interning
  (repeated node ids and field strings cost one varint after first use) and
  dataclass payloads as an interned class name plus *positional* field
  values — no per-value dict allocation on either side.  The decoder runs
  directly on a :class:`memoryview`, so a buffered transport can parse
  frames in place without copying the body.

Dataclass payloads resolve through an explicit registry keyed by class name
(shared by both framings); the registry is populated from the algorithm
message modules at import time and is extensible
(:func:`register_wire_dataclasses`) for user protocols.  Decoding an unknown
tag, class or type byte raises :class:`WireError` — a frame the codec cannot
faithfully reconstruct must fail the run, not silently turn into a dict.
Torn frames (truncated header or body, trailing garbage, oversized length
prefix) raise :class:`WireError` too.

Round-trip fidelity: ``decode(encode(x)) == x`` for every supported value
(including nested signed values — :func:`repro.crypto.signatures.
canonical_bytes` is order-insensitive for sets, so signatures still verify
after the trip in either framing).  Framing is an 8-byte big-endian header —
a 4-byte body length followed by the body's CRC-32 — then the body itself
(UTF-8 JSON, or ``0xB1``-tagged binary).  The checksum is what makes "never
decode garbage" an honest claim: a bit flipped inside a JSON string literal
would otherwise decode silently to a *different valid value*; with the CRC,
any corruption of header or body raises :class:`WireError` at the framing
layer before the decoder ever runs.

The same codecs carry the multi-process cluster service mode
(:mod:`repro.cluster`): node processes and socket clients exchange
dict-shaped frames whose payloads are these registered dataclasses, selected
by ``ClusterSpec(framing=...)`` through the identical :func:`get_codec`
entry point — one wire format implementation for both the in-process
:class:`~repro.engine.async_backend.AsyncEngine` and real OS-process
deployments.
"""

from __future__ import annotations

import dataclasses
import json
import struct
import zlib
from collections.abc import Iterable
from typing import Any

#: Tag key; chosen to be an unlikely dict key in application payloads.
_TAG = "~"

#: Frame header: unsigned 32-bit big-endian body length, then the body's
#: unsigned 32-bit CRC-32 (:func:`zlib.crc32`).
_HEADER = struct.Struct(">II")
HEADER_SIZE = _HEADER.size

#: Upper bound on one frame body (64 MiB) — a corrupted length prefix must
#: not make the reader try to allocate gigabytes.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: The framings :func:`get_codec` resolves.
FRAMINGS = ("json", "binary")


class WireError(ValueError):
    """A value or frame the wire codec refuses to handle."""


def pack_header(body) -> bytes:
    """The 8-byte frame header for ``body``: length then CRC-32."""
    return _HEADER.pack(len(body), zlib.crc32(body))


def unpack_header(header) -> tuple[int, int]:
    """Split an 8-byte frame header into ``(length, crc)``, bounds-checked."""
    length, crc = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise WireError(f"frame length {length} exceeds {MAX_FRAME_BYTES}")
    return length, crc


def check_crc(body, crc: int) -> None:
    """Verify a frame body against its header checksum, loudly.

    Accepts any bytes-like object (buffered transports hand in
    :class:`memoryview` slices).
    """
    actual = zlib.crc32(body)
    if actual != crc:
        raise WireError(
            f"frame checksum mismatch: header says {crc:#010x}, body is {actual:#010x}"
        )


#: Class-name -> dataclass registry for payload decoding.
_DATACLASSES: dict[str, type] = {}

#: Per-class positional field-name cache (binary framing encodes dataclass
#: fields positionally in ``dataclasses.fields`` order).
_FIELD_NAMES: dict[type, tuple[str, ...]] = {}


def register_wire_dataclass(cls: type) -> type:
    """Register one dataclass for wire transport (idempotent per class)."""
    if not dataclasses.is_dataclass(cls):
        raise WireError(f"{cls!r} is not a dataclass")
    existing = _DATACLASSES.get(cls.__name__)
    if existing is not None and existing is not cls:
        raise WireError(
            f"wire dataclass name collision: {cls.__name__!r} already maps "
            f"to {existing.__module__}.{existing.__qualname__}"
        )
    _DATACLASSES[cls.__name__] = cls
    return cls


def register_wire_dataclasses(module) -> None:
    """Register every public dataclass defined in ``module``."""
    for name in dir(module):
        if name.startswith("_"):
            continue
        value = getattr(module, name)
        if isinstance(value, type) and dataclasses.is_dataclass(value) and value.__module__ == module.__name__:
            register_wire_dataclass(value)


def _field_names(cls: type) -> tuple[str, ...]:
    names = _FIELD_NAMES.get(cls)
    if names is None:
        names = tuple(field.name for field in dataclasses.fields(cls))
        _FIELD_NAMES[cls] = names
    return names


_builtins_registered = False


def _ensure_builtin_payloads() -> None:
    """Register the in-tree algorithm message vocabularies (lazily: the
    protocol modules import :mod:`repro.engine`, so registering at import
    time would be a cycle)."""
    global _builtins_registered
    if _builtins_registered:
        return
    _builtins_registered = True
    from repro.broadcast import reliable
    from repro.core import messages
    from repro.crypto import signatures
    from repro.rsm import commands, replica

    for module in (messages, reliable, replica, commands, signatures):
        register_wire_dataclasses(module)


# ---------------------------------------------------------------------------
# JSON framing (the readable reference format)
# ---------------------------------------------------------------------------

#: JSON string escaper (the C one when the accelerator is built) — the same
#: ``ensure_ascii`` escaping :func:`json.dumps` applies, so bodies are ASCII.
_escape = json.encoder.encode_basestring_ascii


def _open(tag: str) -> str:
    """Opening text of one tagged container; all of them close with ``]}``."""
    return f'{{"{_TAG}":"{tag}","v":['


_OPEN_TUPLE, _OPEN_DICT = _open("tuple"), _open("dict")
_OPEN_SET = {frozenset: _open("frozenset"), set: _open("set")}
_OPEN_BYTES = f'{{"{_TAG}":"bytes","v":"'
_INFINITY = float("inf")

#: Per-class JSON encoding plan, filled on first use: the opening text
#: ``{"~":"dc:Name","v":{`` and each field's name beside its ``"name":`` key.
_JSON_PLANS: dict[type, tuple[str, tuple[tuple[str, str], ...]]] = {}

#: Built-in types whose subclasses are encoded as the base type (what
#: ``isinstance`` dispatch and :func:`json.dumps` always did with them).
_JSON_BASES = (int, float, str, list, tuple, frozenset, set, bytes, dict)


def _json_plan(cls: type) -> None:
    """Cache the encoding plan of one wire-registered dataclass."""
    if not _builtins_registered:
        _ensure_builtin_payloads()
    name = cls.__name__
    if _DATACLASSES.get(name) is not cls:
        raise WireError(
            f"dataclass {cls.__module__}.{name} is not wire-registered; "
            "call repro.engine.wire.register_wire_dataclass first"
        )
    head = f'{{"{_TAG}":{_escape("dc:" + name)},"v":{{'
    _JSON_PLANS[cls] = (head, tuple((field, _escape(field) + ":") for field in _field_names(cls)))


def _json_text(value: Any) -> str:
    """The tagged-JSON text of ``value``, emitted in one pass (no tree).

    Set members are sorted by their own text: a member's text is a pure
    function of its value (nested sets sort the same way, dicts keep
    insertion order), so frames do not depend on the hash seed.
    """
    cls = value.__class__
    if cls is str:
        return _escape(value)
    if cls is int:
        return int.__repr__(value)
    plan = _JSON_PLANS.get(cls)
    if plan is not None:
        head, fields = plan
        return head + ",".join([key + _json_text(getattr(value, name)) for name, key in fields]) + "}}"
    if cls is frozenset or cls is set:
        return _OPEN_SET[cls] + ",".join(sorted(map(_json_text, value))) + "]}"
    if cls is tuple:
        return _OPEN_TUPLE + ",".join(map(_json_text, value)) + "]}"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if cls is list:
        return "[" + ",".join(map(_json_text, value)) + "]"
    if cls is bytes:
        return _OPEN_BYTES + value.hex() + '"}'
    if cls is dict:
        if _TAG not in value and all(isinstance(key, str) for key in value):
            return "{" + ",".join([_escape(key) + ":" + _json_text(item) for key, item in value.items()]) + "}"
        # Non-string keys (or a reserved-tag collision): pair list form.
        pairs = ["[" + _json_text(key) + "," + _json_text(item) + "]" for key, item in value.items()]
        return _OPEN_DICT + ",".join(pairs) + "]}"
    if cls is float:
        if value != value:
            return "NaN"
        if value in (_INFINITY, -_INFINITY):
            return "Infinity" if value > 0 else "-Infinity"
        return float.__repr__(value)
    # The slow lane: a subclass of a built-in type, or the first sight of a
    # dataclass (whose plan is cached for every later frame).
    for base in _JSON_BASES:
        if isinstance(value, base):
            return _json_text(base(value))
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        _json_plan(cls)
        return _json_text(value)
    raise WireError(f"value of type {type(value).__name__} is not wire-encodable: {value!r}")


def _tag_body(data: dict, tag: str, expected: type) -> Any:
    """The ``"v"`` body of a tagged object, validated loudly.

    A missing body or a wrong body type means the frame is corrupt (or was
    produced by something that is not this codec); silently yielding ``None``
    here used to surface as confusing ``TypeError``s deep inside protocol
    handlers.
    """
    try:
        body = data["v"]
    except KeyError:
        raise WireError(f"tagged wire object {tag!r} is missing its 'v' body") from None
    if not isinstance(body, expected):
        raise WireError(
            f"tagged wire object {tag!r} carries a {type(body).__name__} body; "
            f"expected {expected.__name__}"
        )
    return body


def _revive(data: dict) -> Any:
    """``json.loads`` object hook: turn one tagged object back into its value.

    The scanner calls this bottom-up, so everything inside ``data`` has been
    revived already; an untagged object is a plain dict and passes through.
    """
    tag = data.get(_TAG)
    if tag is None:
        return data
    if tag.__class__ is not str:
        raise WireError(f"non-string wire tag {tag!r}")
    if tag[:3] == "dc:":
        name = tag[3:]
        cls = _DATACLASSES.get(name)
        if cls is None:
            raise WireError(f"unknown wire dataclass {name!r}")
        try:
            return cls(**_tag_body(data, tag, dict))
        except TypeError as failure:
            raise WireError(
                f"wire dataclass {name!r} body does not match its fields: {failure}"
            ) from None
    if tag == "frozenset":
        return frozenset(_tag_body(data, tag, list))
    if tag == "tuple":
        return tuple(_tag_body(data, tag, list))
    if tag == "set":
        return set(_tag_body(data, tag, list))
    if tag == "bytes":
        body = _tag_body(data, tag, str)
        try:
            return bytes.fromhex(body)
        except ValueError as failure:
            raise WireError(f"invalid hex bytes body: {failure}") from None
    if tag == "dict":
        body = _tag_body(data, tag, list)
        try:
            return dict(body)
        except (TypeError, ValueError) as failure:
            raise WireError(f"malformed dict pair body: {failure}") from None
    raise WireError(f"unknown wire tag {tag!r}")


def encode_frame(message: Any) -> bytes:
    """Serialise one message into a length-prefixed JSON frame."""
    body = _json_text(message).encode("ascii")
    if len(body) > MAX_FRAME_BYTES:
        raise WireError(f"frame body of {len(body)} bytes exceeds {MAX_FRAME_BYTES}")
    return pack_header(body) + body


def decode_body(body) -> Any:
    """Deserialise one JSON frame body (the part after the length prefix).

    One :func:`json.loads` pass with :func:`_revive` as the object hook.
    Accepts any bytes-like object (a buffered transport hands in
    :class:`memoryview` slices); undecodable bytes raise :class:`WireError`
    instead of leaking :class:`json.JSONDecodeError`.
    """
    if not _builtins_registered:
        _ensure_builtin_payloads()
    if isinstance(body, memoryview):
        body = bytes(body)
    try:
        return json.loads(body, object_hook=_revive)
    except WireError:
        raise
    except (ValueError, RecursionError) as failure:
        raise WireError(f"undecodable JSON frame body: {failure}") from failure


async def read_frame(reader) -> Any:
    """Read one JSON frame from an :class:`asyncio.StreamReader` (or raise
    ``asyncio.IncompleteReadError`` when the peer closed)."""
    return await get_codec("json").read_frame(reader)


# ---------------------------------------------------------------------------
# Binary framing (the compact wire-speed format)
# ---------------------------------------------------------------------------

#: First body byte of every binary frame — catches codec/framing confusion
#: loudly (it can never open a UTF-8 JSON body).
_MAGIC = 0xB1

_B_NONE = 0x00
_B_TRUE = 0x01
_B_FALSE = 0x02
_B_INT = 0x03  # zigzag varint
_B_FLOAT = 0x04  # 8-byte big-endian double
_B_STR = 0x05  # varint length + UTF-8 (and joins the intern table)
_B_REF = 0x06  # varint index into the frame's intern table
_B_BYTES = 0x07  # varint length + raw bytes
_B_LIST = 0x08  # varint count + items
_B_TUPLE = 0x09
_B_FROZENSET = 0x0A  # items in deterministic (standalone-encoding) order
_B_SET = 0x0B
_B_DICT = 0x0C  # varint count + key/value pairs (any key type, no tagging)
_B_DATACLASS = 0x0D  # interned class name + positional field values

_DOUBLE = struct.Struct(">d")


def _write_varint(out: bytearray, n: int) -> None:
    while n > 0x7F:
        out.append((n & 0x7F) | 0x80)
        n >>= 7
    out.append(n)


def _write_str(out: bytearray, text: str, interned: dict[str, int]) -> None:
    index = interned.get(text)
    if index is not None:
        out.append(_B_REF)
        _write_varint(out, index)
        return
    interned[text] = len(interned)
    raw = text.encode("utf-8")
    out.append(_B_STR)
    _write_varint(out, len(raw))
    out += raw


def _binary_set_order(items: Iterable[Any], probes: dict[int, bytes]) -> list:
    """Set members in a stable order so frames are deterministic.

    Each member is keyed by its *standalone* encoding (fresh intern table):
    interning state depends on traversal order, so keying by the in-stream
    encoding would make the order depend on itself.  Standalone encodings
    are pure functions of the value, hence hash-seed independent.

    ``probes`` memoizes standalone encodings by object identity for the
    duration of one frame encode (every value is kept alive by the message
    graph, so ids are stable).  Without it, probing a member re-probes its
    nested sets' members recursively — exponential re-encoding in the
    set-nesting depth, which made GSbS proof frames (sets of signed values
    carrying sets) take *seconds* each to encode.
    """
    keyed = []
    for item in items:
        probe = probes.get(id(item))
        if probe is None:
            out = bytearray()
            _encode_binary(item, out, {}, probes)
            probe = probes[id(item)] = bytes(out)
        keyed.append((probe, item))
    keyed.sort(key=lambda pair: pair[0])
    return [item for _probe, item in keyed]


def _encode_binary(
    value: Any, out: bytearray, interned: dict[str, int], probes: dict[int, bytes]
) -> None:
    if value is None:
        out.append(_B_NONE)
    elif value is True:
        out.append(_B_TRUE)
    elif value is False:
        out.append(_B_FALSE)
    elif isinstance(value, int):
        out.append(_B_INT)
        _write_varint(out, (value << 1) if value >= 0 else ((-value) << 1) - 1)
    elif isinstance(value, float):
        out.append(_B_FLOAT)
        out += _DOUBLE.pack(value)
    elif isinstance(value, str):
        _write_str(out, value, interned)
    elif isinstance(value, bytes):
        out.append(_B_BYTES)
        _write_varint(out, len(value))
        out += value
    elif isinstance(value, list):
        out.append(_B_LIST)
        _write_varint(out, len(value))
        for item in value:
            _encode_binary(item, out, interned, probes)
    elif isinstance(value, tuple):
        out.append(_B_TUPLE)
        _write_varint(out, len(value))
        for item in value:
            _encode_binary(item, out, interned, probes)
    elif isinstance(value, frozenset):
        out.append(_B_FROZENSET)
        _write_varint(out, len(value))
        for item in _binary_set_order(value, probes):
            _encode_binary(item, out, interned, probes)
    elif isinstance(value, set):
        out.append(_B_SET)
        _write_varint(out, len(value))
        for item in _binary_set_order(value, probes):
            _encode_binary(item, out, interned, probes)
    elif isinstance(value, dict):
        out.append(_B_DICT)
        _write_varint(out, len(value))
        for key, item in value.items():
            _encode_binary(key, out, interned, probes)
            _encode_binary(item, out, interned, probes)
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        cls = type(value)
        name = cls.__name__
        if _DATACLASSES.get(name) is not cls:
            raise WireError(
                f"dataclass {cls.__module__}.{name} is not wire-registered; "
                "call repro.engine.wire.register_wire_dataclass first"
            )
        out.append(_B_DATACLASS)
        _write_str(out, name, interned)
        for field_name in _field_names(cls):
            _encode_binary(getattr(value, field_name), out, interned, probes)
    else:
        raise WireError(
            f"value of type {type(value).__name__} is not wire-encodable: {value!r}"
        )


def _read_varint(buf, offset: int, end: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if offset >= end:
            raise WireError("truncated varint in binary frame")
        byte = buf[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if byte < 0x80:
            return result, offset
        shift += 7


def _decode_binary(buf, offset: int, end: int, interned: list[str]) -> tuple[Any, int]:
    if offset >= end:
        raise WireError("truncated binary frame: missing type byte")
    marker = buf[offset]
    offset += 1
    if marker == _B_REF:
        index, offset = _read_varint(buf, offset, end)
        if index >= len(interned):
            raise WireError(f"dangling string ref {index} in binary frame")
        return interned[index], offset
    if marker == _B_STR:
        length, offset = _read_varint(buf, offset, end)
        if offset + length > end:
            raise WireError("truncated string in binary frame")
        text = str(buf[offset : offset + length], "utf-8")
        interned.append(text)
        return text, offset + length
    if marker == _B_INT:
        zigzag, offset = _read_varint(buf, offset, end)
        return ((zigzag >> 1) if not (zigzag & 1) else -((zigzag + 1) >> 1)), offset
    if marker == _B_NONE:
        return None, offset
    if marker == _B_TRUE:
        return True, offset
    if marker == _B_FALSE:
        return False, offset
    if marker == _B_FLOAT:
        if offset + 8 > end:
            raise WireError("truncated float in binary frame")
        return _DOUBLE.unpack_from(buf, offset)[0], offset + 8
    if marker == _B_BYTES:
        length, offset = _read_varint(buf, offset, end)
        if offset + length > end:
            raise WireError("truncated bytes in binary frame")
        return bytes(buf[offset : offset + length]), offset + length
    if marker in (_B_LIST, _B_TUPLE, _B_FROZENSET, _B_SET):
        count, offset = _read_varint(buf, offset, end)
        items = []
        append = items.append
        for _ in range(count):
            item, offset = _decode_binary(buf, offset, end, interned)
            append(item)
        if marker == _B_LIST:
            return items, offset
        if marker == _B_TUPLE:
            return tuple(items), offset
        if marker == _B_FROZENSET:
            return frozenset(items), offset
        return set(items), offset
    if marker == _B_DICT:
        count, offset = _read_varint(buf, offset, end)
        result: dict = {}
        for _ in range(count):
            key, offset = _decode_binary(buf, offset, end, interned)
            item, offset = _decode_binary(buf, offset, end, interned)
            result[key] = item
        return result, offset
    if marker == _B_DATACLASS:
        name, offset = _decode_binary(buf, offset, end, interned)
        if not isinstance(name, str):
            raise WireError("binary dataclass frame carries a non-string class name")
        cls = _DATACLASSES.get(name)
        if cls is None:
            raise WireError(f"unknown wire dataclass {name!r}")
        args = []
        for _field in _field_names(cls):
            item, offset = _decode_binary(buf, offset, end, interned)
            args.append(item)
        try:
            return cls(*args), offset
        except TypeError as failure:
            raise WireError(
                f"wire dataclass {name!r} body does not match its fields: {failure}"
            ) from None
    raise WireError(f"unknown binary wire marker 0x{marker:02x}")


def _encode_binary_frame(message: Any) -> bytes:
    if not _builtins_registered:
        _ensure_builtin_payloads()
    out = bytearray(HEADER_SIZE)
    out.append(_MAGIC)
    _encode_binary(message, out, {}, {})
    body_len = len(out) - HEADER_SIZE
    if body_len > MAX_FRAME_BYTES:
        raise WireError(f"frame body of {body_len} bytes exceeds {MAX_FRAME_BYTES}")
    _HEADER.pack_into(out, 0, body_len, zlib.crc32(memoryview(out)[HEADER_SIZE:]))
    return bytes(out)


def _decode_binary_body(body) -> Any:
    if not _builtins_registered:
        _ensure_builtin_payloads()
    buf = body if isinstance(body, memoryview) else memoryview(body)
    end = len(buf)
    if end == 0 or buf[0] != _MAGIC:
        raise WireError("not a binary wire frame (bad magic byte)")
    try:
        value, offset = _decode_binary(buf, 1, end, [])
    except (struct.error, UnicodeDecodeError) as failure:
        raise WireError(f"corrupt binary frame: {failure}") from failure
    if offset != end:
        raise WireError(f"binary frame carries {end - offset} bytes of trailing garbage")
    return value


# ---------------------------------------------------------------------------
# Codec objects (one per framing)
# ---------------------------------------------------------------------------


class Codec:
    """One framing: encode/decode one message per length-prefixed frame."""

    name: str = "?"

    def encode_frame(self, message: Any) -> bytes:
        raise NotImplementedError

    def decode_body(self, body) -> Any:
        raise NotImplementedError

    async def read_body(self, reader) -> bytes:
        """Read one frame's CRC-checked body from an
        :class:`asyncio.StreamReader` (or raise ``asyncio.IncompleteReadError``
        when the peer closed) — for a receiver that may not need to decode it."""
        header = await reader.readexactly(HEADER_SIZE)
        length, crc = unpack_header(header)
        body = await reader.readexactly(length)
        check_crc(body, crc)
        return body

    async def read_frame(self, reader) -> Any:
        """Read and decode one frame (same failure modes as :meth:`read_body`)."""
        return self.decode_body(await self.read_body(reader))


class JsonCodec(Codec):
    name = "json"
    encode_frame = staticmethod(encode_frame)
    decode_body = staticmethod(decode_body)


class BinaryCodec(Codec):
    name = "binary"
    encode_frame = staticmethod(_encode_binary_frame)
    decode_body = staticmethod(_decode_binary_body)


_CODECS: dict[str, Codec] = {"json": JsonCodec(), "binary": BinaryCodec()}


def get_codec(framing: str) -> Codec:
    """Resolve one framing name to its codec (raising on unknown names)."""
    try:
        return _CODECS[framing]
    except KeyError:
        known = ", ".join(FRAMINGS)
        raise WireError(f"unknown framing {framing!r}; known: {known}") from None
