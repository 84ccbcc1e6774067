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
  directly on a :class:`memoryview` of the body, so it never copies it.

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

The peer half of the link lives here too, shared the same way: the
``hello`` / ``peer`` frames, the buffered auto-reconnecting outbound
:class:`FrameLink`, the :class:`FrameTable` of recently decoded bodies and
:func:`read_peer_frames`, the inbound reader that stamps every ``peer``
frame with the sender its connection's ``hello`` named.  The async
engine's tcp transport and the cluster's nodes both run on exactly this
code; :mod:`repro.cluster.protocol` adds the client/reply/status kinds.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import struct
import zlib
from collections.abc import Callable, Container, Hashable, Iterable, Mapping
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


class ChecksumError(WireError):
    """A frame body that does not match its header's CRC (the length was
    trusted, so the stream is still aligned on the next frame)."""


class ProtocolError(WireError):
    """A well-formed frame that breaks the link protocol (wrong shape or
    kind, a missing field, a ``peer`` frame before its ``hello``)."""


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

    Accepts any bytes-like object, :class:`memoryview` slices included.
    """
    actual = zlib.crc32(body)
    if actual != crc:
        raise ChecksumError(
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
    Accepts any bytes-like object, :class:`memoryview` slices included;
    undecodable bytes raise :class:`WireError` instead of leaking
    :class:`json.JSONDecodeError`.
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


#: A type byte and a one-byte varint, ready-made for every value below 128:
#: the short string, string reference and int cases of the binary encoder.
_SHORT_STR = [bytes((_B_STR, n)) for n in range(0x80)]
_SHORT_REF = [bytes((_B_REF, n)) for n in range(0x80)]
_SHORT_INT = [bytes((_B_INT, n)) for n in range(0x80)]

# Every binary writer takes ``(value, out, interned, probes)``: the value,
# the frame buffer, the frame's string intern table and its set-member
# probes (see :func:`_binary_set_order`).


def _write_str(value: str, out: bytearray, interned: dict[str, int], probes: dict[int, bytes]) -> None:
    index = interned.get(value)
    if index is None:
        interned[value] = len(interned)
        raw = value.encode()
        if len(raw) < 0x80:
            out += _SHORT_STR[len(raw)]
        else:
            out.append(_B_STR)
            _write_varint(out, len(raw))
        out += raw
    elif index < 0x80:
        out += _SHORT_REF[index]
    else:
        out.append(_B_REF)
        _write_varint(out, index)


def _write_int(value: int, out: bytearray, interned: dict[str, int], probes: dict[int, bytes]) -> None:
    zigzag = (value << 1) if value >= 0 else ((-value) << 1) - 1
    if zigzag < 0x80:
        out += _SHORT_INT[zigzag]
    else:
        out.append(_B_INT)
        _write_varint(out, zigzag)


def _write_none(value: None, out: bytearray, interned: dict[str, int], probes: dict[int, bytes]) -> None:
    out.append(_B_NONE)


def _write_bool(value: bool, out: bytearray, interned: dict[str, int], probes: dict[int, bytes]) -> None:
    out.append(_B_TRUE if value else _B_FALSE)


def _write_float(value: float, out: bytearray, interned: dict[str, int], probes: dict[int, bytes]) -> None:
    out.append(_B_FLOAT)
    out += _DOUBLE.pack(value)


def _write_bytes(value: bytes, out: bytearray, interned: dict[str, int], probes: dict[int, bytes]) -> None:
    out.append(_B_BYTES)
    _write_varint(out, len(value))
    out += value


def _sequence_writer(marker: int, ordered: bool = False) -> Callable[..., None]:
    """The writer of one container type: its count, then its items (a set's
    in :func:`_binary_set_order`)."""

    def write(value: Any, out: bytearray, interned: dict[str, int], probes: dict[int, bytes]) -> None:
        out.append(marker)
        _write_varint(out, len(value))
        writer_of = _BINARY_WRITERS.get
        for item in _binary_set_order(value, probes) if ordered else value:
            (writer_of(item.__class__) or _binary_writer(item))(item, out, interned, probes)

    return write


def _write_dict(value: dict, out: bytearray, interned: dict[str, int], probes: dict[int, bytes]) -> None:
    out.append(_B_DICT)
    _write_varint(out, len(value))
    writer_of = _BINARY_WRITERS.get
    for key, item in value.items():
        (writer_of(key.__class__) or _binary_writer(key))(key, out, interned, probes)
        (writer_of(item.__class__) or _binary_writer(item))(item, out, interned, probes)


def _dataclass_writer(name: str, fields: tuple[str, ...]) -> Callable[..., None]:
    """The writer of one wire-registered dataclass: its interned name, then
    its field values in order."""

    def write(value: Any, out: bytearray, interned: dict[str, int], probes: dict[int, bytes]) -> None:
        out.append(_B_DATACLASS)
        _write_str(name, out, interned, probes)
        writer_of = _BINARY_WRITERS.get
        for field in fields:
            item = getattr(value, field)
            (writer_of(item.__class__) or _binary_writer(item))(item, out, interned, probes)

    return write


#: Binary writer by exact class: the built-in types, plus each wire-registered
#: dataclass from its first encode on (its name and field tuple are checked
#: and cached then, as :data:`_JSON_PLANS` caches the JSON text).
_BINARY_WRITERS: dict[type, Callable[[Any, bytearray, dict[str, int], dict[int, bytes]], None]] = {
    type(None): _write_none,
    bool: _write_bool,
    int: _write_int,
    float: _write_float,
    str: _write_str,
    bytes: _write_bytes,
    list: _sequence_writer(_B_LIST),
    tuple: _sequence_writer(_B_TUPLE),
    frozenset: _sequence_writer(_B_FROZENSET, ordered=True),
    set: _sequence_writer(_B_SET, ordered=True),
    dict: _write_dict,
}

#: Built-in types whose subclasses are written as the base type, tested in
#: this order (the order of the ``isinstance`` chain the format was defined by).
_BINARY_BASES = (int, float, str, bytes, list, tuple, frozenset, set, dict)


def _binary_writer(value: Any) -> Callable[[Any, bytearray, dict[str, int], dict[int, bytes]], None]:
    """The slow lane: a subclass of a built-in type, or the first sight of a
    dataclass (whose writer is cached for every later frame)."""
    for base in _BINARY_BASES:
        if isinstance(value, base):
            return _BINARY_WRITERS[base]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        cls = value.__class__
        name = cls.__name__
        if _DATACLASSES.get(name) is not cls:
            raise WireError(
                f"dataclass {cls.__module__}.{name} is not wire-registered; "
                "call repro.engine.wire.register_wire_dataclass first"
            )
        writer = _BINARY_WRITERS[cls] = _dataclass_writer(name, _field_names(cls))
        return writer
    raise WireError(f"value of type {type(value).__name__} is not wire-encodable: {value!r}")


def _binary_set_order(items: Iterable[Any], probes: dict[int, bytes]) -> list:
    """Set members in a stable order so frames are deterministic.

    Each member is keyed by its *standalone* encoding (fresh intern table):
    interning state depends on traversal order, so keying by the in-stream
    encoding would make the order depend on itself.  Standalone encodings
    are pure functions of the value, hence hash-seed independent.  A short
    ``str`` or small ``int`` member's key is built directly.

    ``probes`` memoizes standalone encodings by object identity for the
    duration of one frame encode (every value is kept alive by the message
    graph, so ids are stable).  Without it, probing a member re-probes its
    nested sets' members recursively — exponential re-encoding in the
    set-nesting depth, which made GSbS proof frames (sets of signed values
    carrying sets) take *seconds* each to encode.
    """
    keyed = []
    for item in items:
        cls = item.__class__
        if cls is str:
            raw = item.encode()
            if len(raw) < 0x80:
                keyed.append((_SHORT_STR[len(raw)] + raw, item))
                continue
        elif cls is int and -0x40 <= item < 0x40:
            keyed.append((_SHORT_INT[(item << 1) if item >= 0 else ((-item) << 1) - 1], item))
            continue
        probe = probes.get(id(item))
        if probe is None:
            out = bytearray()
            _encode_binary(item, out, {}, probes)
            probe = probes[id(item)] = bytes(out)
        keyed.append((probe, item))
    keyed.sort(key=lambda pair: pair[0])
    return [item for _probe, item in keyed]


def _encode_binary(value: Any, out: bytearray, interned: dict[str, int], probes: dict[int, bytes]) -> None:
    (_BINARY_WRITERS.get(value.__class__) or _binary_writer(value))(value, out, interned, probes)


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


# ---------------------------------------------------------------------------
# Peer links (the async engine's tcp transport and the cluster's nodes)
# ---------------------------------------------------------------------------

#: Frame kinds of a peer link.  A frame is a dict whose ``"kind"`` key
#: discriminates; ``hello`` names the member a connection speaks for and
#: must come first, ``peer`` carries one protocol message and no sender.
K_HELLO = "hello"
K_PEER = "peer"


def hello_frame(node: Hashable, boot: str | None = None) -> dict:
    """First frame on a peer link: who is calling.

    ``boot`` is an incarnation token (a node answers an inbound hello with
    its own hello carrying one): two hellos with different tokens come from
    different OS processes behind the same endpoint.
    """
    frame = {"kind": K_HELLO, "node": node}
    if boot is not None:
        frame["boot"] = boot
    return frame


def peer_frame(payload: Any) -> dict:
    """One protocol message (the receiver stamps the sender).  Because the
    body names no sender or destination, a broadcast is encoded once and
    the same bytes go on every link."""
    return {"kind": K_PEER, "payload": payload}


def frame_kind(frame: Any) -> str:
    """The ``"kind"`` discriminator of a frame, validated loudly."""
    if not isinstance(frame, dict):
        raise ProtocolError(f"link frame must be a dict, got {type(frame).__name__}")
    kind = frame.get("kind")
    if not isinstance(kind, str):
        raise ProtocolError(f"link frame is missing a string 'kind': {frame!r}")
    return kind


def frame_field(frame: dict, key: str) -> Any:
    """A required frame field; absence means a malformed (torn) frame."""
    try:
        return frame[key]
    except KeyError:
        raise ProtocolError(f"{frame.get('kind', '?')!r} frame is missing {key!r}") from None


#: How many decoded peer frames a :class:`FrameTable` remembers.  A
#: reliable-broadcast instance is over within a few frames of its first
#: echo, so a short memory catches nearly every repeat: measured on a
#: 4-node counter workload (``cluster client --commands 100 --clients 2``,
#: acks naming their request by token), 0.59 of peer frames hit at 64
#: entries, 0.59 at 512, 0.17 at 8.
FRAME_TABLE_ENTRIES = 64

#: Bodies larger than this are decoded every time instead of remembered, so
#: the table holds at most ``FRAME_TABLE_ENTRIES * FRAME_TABLE_MAX_BODY`` bytes
#: whatever a Byzantine peer sends.
FRAME_TABLE_MAX_BODY = 1 << 20


class FrameTable:
    """CRC-checked ``peer`` frame body -> the frame it decodes to.

    Bracha echoes and readies arrive byte-for-byte identical from every
    peer, and a broadcast reaches every listener of one engine as the same
    bytes, so a repeat costs a dict lookup instead of a parse.  The key is
    the exact body, so a hit returns what decoding would have returned,
    every field included; the frame is shared between deliveries only if
    ``hash()`` accepts its payload — frozen dataclasses of frozensets and
    tuples are immutable all the way down, anything holding a list, dict or
    set is decoded afresh every time.  The oldest entry leaves when the
    table is full: a Byzantine peer can at worst evict entries, never change
    what a body decodes to.
    """

    def __init__(self) -> None:
        self._frames: dict[bytes, dict] = {}
        #: Lookups answered from the table (a node's ``status`` reports it).
        self.hits = 0

    def __len__(self) -> int:
        return len(self._frames)

    def get(self, body: bytes) -> dict | None:
        """The remembered frame of ``body``, or ``None``."""
        frame = self._frames.get(body)
        if frame is not None:
            self.hits += 1
        return frame

    def remember(self, body: bytes, frame: dict) -> None:
        """Remember what ``body`` decoded to, if it is safe and small enough
        to share."""
        if len(body) > FRAME_TABLE_MAX_BODY:
            return
        try:
            hash(frame["payload"])
        except TypeError:
            return
        if len(self._frames) >= FRAME_TABLE_ENTRIES:
            del self._frames[next(iter(self._frames))]
        self._frames[body] = frame


class FrameLink:
    """A buffered, auto-reconnecting outbound frame connection.

    ``send`` never blocks and never fails: frames are encoded immediately
    (so encoding errors surface at the call site) and appended to a byte
    buffer that a single writer task flushes in coalesced chunks whenever a
    connection is up, applying ``drain()`` backpressure.  While the peer is
    down the buffer simply grows; on reconnect the ``hello`` frame (if any)
    goes first, then the backlog.  ``on_frame``, when given, attaches a
    reader pumping inbound frames off the same connection (the cluster
    client needs this; peer links are one-directional).

    ``expect_hello=True`` makes the link incarnation-aware: after sending
    its own hello it waits for the peer's answering hello and compares the
    ``boot`` token with the previous connection's.  A *different* token
    means the peer process died and a fresh one took over its endpoint —
    the frames buffered for the dead incarnation are dropped instead of
    replayed, because they were addressed to state that no longer exists
    (an amnesiac restart cannot use them, and a large stale backlog would
    only flood it; the restarted replica counts against the ``f`` budget
    either way — see docs/operations.md).  Buffered traffic still survives
    transient disconnects to the *same* incarnation unchanged.
    """

    RETRY_INITIAL = 0.05
    RETRY_MAX = 1.0
    HELLO_TIMEOUT = 5.0

    def __init__(
        self,
        host: str,
        port: int,
        codec: Codec,
        *,
        hello: dict | None = None,
        on_frame: Callable[[Any], None] | None = None,
        expect_hello: bool = False,
    ) -> None:
        self.host = host
        self.port = port
        self.codec = codec
        self.hello = hello
        self.on_frame = on_frame
        self.expect_hello = expect_hello
        self.connected = False
        self.closed = False
        self._buffer = bytearray()
        self._wake = asyncio.Event()
        self._task: asyncio.Task | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._peer_boot: str | None = None

    def start(self) -> None:
        """Begin connecting (idempotent; requires a running event loop)."""
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(self._run())

    def send(self, frame: Any) -> None:
        """Queue one frame (encoded now, flushed by the writer task).

        After :meth:`close` the frame is silently dropped — teardown races
        (a queued self-delivery emitting one last send) get the same
        semantics as traffic to a crashed peer, not a crash of their own.
        """
        if not self.closed:
            self.send_encoded(self.codec.encode_frame(frame))

    def send_encoded(self, data: bytes) -> None:
        """Queue one frame the caller already encoded with this link's codec
        (a broadcast encodes once and queues the same bytes on every link)."""
        if self.closed:
            return
        self._buffer += data
        self._wake.set()

    @property
    def pending_bytes(self) -> int:
        """Bytes queued but not yet handed to the socket (drain visibility)."""
        return len(self._buffer)

    async def close(self) -> None:
        """Stop reconnecting and tear the connection down."""
        self.closed = True
        self.connected = False
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except (asyncio.CancelledError, Exception):
                pass  # teardown is best-effort
            self._task = None
        self._abandon_writer()

    def _abandon_writer(self) -> None:
        writer, self._writer = self._writer, None
        if writer is not None:
            try:
                writer.close()
            except Exception:  # pragma: no cover - platform-dependent teardown
                pass

    async def _run(self) -> None:
        delay = self.RETRY_INITIAL
        while not self.closed:
            try:
                reader, writer = await asyncio.open_connection(self.host, self.port)
            except OSError:
                await asyncio.sleep(delay)
                delay = min(delay * 2, self.RETRY_MAX)
                continue
            delay = self.RETRY_INITIAL
            self._writer = writer
            if self.hello is not None:
                writer.write(self.codec.encode_frame(self.hello))
            if self.expect_hello and not await self._confirm_incarnation(reader):
                self._abandon_writer()
                await asyncio.sleep(self.RETRY_INITIAL)
                continue
            self.connected = True
            pumps = [asyncio.ensure_future(self._flush_loop(writer))]
            pumps.append(asyncio.ensure_future(self._read_loop(reader)))
            try:
                await asyncio.wait(pumps, return_when=asyncio.FIRST_COMPLETED)
            finally:
                for task in pumps:
                    task.cancel()
                await asyncio.gather(*pumps, return_exceptions=True)
                self.connected = False
                self._abandon_writer()

    async def _confirm_incarnation(self, reader: asyncio.StreamReader) -> bool:
        """Read the peer's answering hello; drop stale backlog on a new boot.

        Bytes buffered *before* this handshake belong to whatever process
        previously held the endpoint; frames queued while the handshake is
        in flight are for the confirmed peer and are kept either way.
        """
        stale = len(self._buffer)
        try:
            frame = await asyncio.wait_for(self.codec.read_frame(reader), self.HELLO_TIMEOUT)
        except (TimeoutError, asyncio.IncompleteReadError, ConnectionError, OSError, WireError):
            return False
        if not isinstance(frame, dict) or frame.get("kind") != K_HELLO:
            return False
        boot = frame.get("boot")
        if self._peer_boot is not None and boot != self._peer_boot:
            del self._buffer[:stale]
        self._peer_boot = boot
        return True

    async def _flush_loop(self, writer: asyncio.StreamWriter) -> None:
        """Coalesce the queued frames into as few writes as possible."""
        while True:
            if not self._buffer:
                self._wake.clear()
                await self._wake.wait()
                continue
            chunk = bytes(self._buffer)
            self._buffer.clear()
            try:
                writer.write(chunk)
                await writer.drain()
            except (ConnectionError, OSError):
                # Keep the unacknowledged chunk for the next connection.
                self._buffer[:0] = chunk
                return
            except BaseException:
                # Cancellation included: when the read pump sees the peer
                # half-close first, _run cancels this task mid-drain() — the
                # chunk was taken out of the buffer but never acknowledged,
                # so without re-prepending it a whole coalesced batch of
                # frames would silently vanish across the reconnect.
                # Re-delivery of a partially-written chunk is possible
                # (frames are at-least-once across reconnects; the cores are
                # idempotent), loss is not.
                self._buffer[:0] = chunk
                raise

    async def _read_loop(self, reader: asyncio.StreamReader) -> None:
        """Pump inbound frames (or just watch for EOF on write-only links).

        A peer speaking garbage (or an ``on_frame`` that refuses a frame
        with a :class:`WireError`) gets its connection dropped and redialed
        rather than poisoning the dispatch path; anything else ``on_frame``
        raises ends the connection the same way.
        """
        try:
            if self.on_frame is None:
                while await reader.read(65536):
                    pass  # peers never talk back on write-only links
                return
            while True:
                self.on_frame(await self.codec.read_frame(reader))
        except (asyncio.IncompleteReadError, ConnectionError, OSError, WireError):
            return


async def read_peer_frames(
    reader: asyncio.StreamReader,
    codec: Codec,
    table: FrameTable,
    me: Hashable,
    members: Container,
    deliver: Callable[[Hashable, dict], None],
    controls: Mapping[str, Callable[[dict], None]] | None = None,
    on_reject: Callable[[str], None] | None = None,
) -> None:
    """Serve one inbound peer-link connection of ``me`` until the peer hangs up.

    Every frame takes five steps: its body is read and CRC-checked; a body
    ``table`` remembers skips the parse, anything else is decoded; the
    hello rule is applied — a connection speaks for the one member of
    ``members`` other than ``me`` its first ``hello`` names, for as long as
    it lives, and a ``peer`` frame before that hello is a violation; then
    ``deliver(sender, frame)`` gets the ``peer`` frame with the sender
    stamped from the connection, whatever the body claims.  A frame whose
    kind has a handler in ``controls`` (a node answers a ``hello`` and
    serves ``client`` and ``status`` frames) goes to it instead; any other
    kind is a violation.

    A violation raises :class:`WireError` unless ``on_reject`` is given:
    then it is reported as ``"crc"``, ``"decode"`` or ``"protocol"`` and the
    frame is skipped (the header's length is trusted, so the stream stays
    aligned) — the engine's choice under deliberate wire-fault injection.
    """
    sender = None
    while True:
        try:
            body = await codec.read_body(reader)
        except asyncio.IncompleteReadError:
            return  # the peer hung up
        except ChecksumError:
            if on_reject is None:
                raise
            on_reject("crc")
            continue
        frame = table.get(body)
        try:
            if frame is None:
                frame = codec.decode_body(body)
                kind = frame_kind(frame)
                if kind != K_PEER:
                    if kind == K_HELLO:
                        node = frame_field(frame, "node")
                        try:
                            member = node != me and node in members
                        except TypeError:  # an unhashable name names nobody
                            member = False
                        if not member:
                            raise ProtocolError(f"hello from {node!r}, which is not a peer of {me}")
                        if sender is not None and node != sender:
                            raise ProtocolError(f"connection of {sender!r} said hello again as {node!r}")
                        sender = node
                    handler = controls.get(kind) if controls else None
                    if handler is not None:
                        handler(frame)
                    elif kind != K_HELLO:
                        raise ProtocolError(f"unexpected frame kind {kind!r} on a peer link")
                    continue
                frame_field(frame, "payload")
                table.remember(body, frame)
            if sender is None:
                raise ProtocolError("peer frame on a connection that has not said hello")
        except WireError as failure:
            if on_reject is None:
                raise
            on_reject("protocol" if isinstance(failure, ProtocolError) else "decode")
            continue
        deliver(sender, frame)
