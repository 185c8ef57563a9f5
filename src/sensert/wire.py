"""MQTT 3.1.1 subset codec: bit-exact framing, topic validation and matching.

The subset is QoS 0 / clean-session only. Frames are the standard MQTT 3.1.1
fixed header (packet type in the high nibble of byte 0, remaining-length
varint) followed by the per-type variable header and payload. Strings are
16-bit big-endian length prefixed UTF-8. Decoding is incremental: a partial
frame is signalled by returning ``None`` (never an exception), so callers can
accumulate TCP segments in a growable buffer; :func:`read_packet` does that
for an asyncio stream and is the one receive loop of every MQTT hop.
"""

from __future__ import annotations

import asyncio
import struct
from dataclasses import dataclass
from typing import Generic, TypeVar, Union

PROTOCOL_NAME = "MQTT"
PROTOCOL_LEVEL = 4

# Sensor payloads are small; bounding the frame size bounds buffer memory.
MAX_REMAINING_LENGTH = 1 << 20

VARINT_MAX = 268_435_455


class MalformedPacket(ValueError):
    """Input bytes cannot be a valid subset frame."""


class EncodingError(ValueError):
    """Packet violates an invariant and cannot be encoded."""


class InvalidTopic(ValueError):
    """Topic name violates the topic-name rules."""


class InvalidFilter(ValueError):
    """Topic filter violates the filter rules; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# --- packet types -----------------------------------------------------------

T_CONNECT = 1
T_CONNACK = 2
T_PUBLISH = 3
T_SUBSCRIBE = 8
T_SUBACK = 9
T_UNSUBSCRIBE = 10
T_UNSUBACK = 11
T_PINGREQ = 12
T_PINGRESP = 13
T_DISCONNECT = 14


@dataclass(frozen=True)
class Connect:
    client_id: str
    keep_alive_s: int = 60
    clean_session: bool = True


@dataclass(frozen=True)
class Connack:
    return_code: int = 0


@dataclass(frozen=True)
class Publish:
    topic: str
    payload: bytes
    retain: bool = False


@dataclass(frozen=True)
class Subscribe:
    packet_id: int
    # Raw filter strings: semantic validation happens per entry at the broker
    # so a single bad filter can be rejected with 0x80 in the SUBACK.
    filters: tuple[str, ...]


@dataclass(frozen=True)
class Suback:
    packet_id: int
    granted: tuple[int, ...]


@dataclass(frozen=True)
class Unsubscribe:
    packet_id: int
    filters: tuple[str, ...]


@dataclass(frozen=True)
class Unsuback:
    packet_id: int


@dataclass(frozen=True)
class Pingreq:
    pass


@dataclass(frozen=True)
class Pingresp:
    pass


@dataclass(frozen=True)
class Disconnect:
    pass


Packet = Union[
    Connect,
    Connack,
    Publish,
    Subscribe,
    Suback,
    Unsubscribe,
    Unsuback,
    Pingreq,
    Pingresp,
    Disconnect,
]


# --- topics -----------------------------------------------------------------


def validate_topic(raw: str) -> tuple[str, ...]:
    """Validate a publish topic name; returns its levels.

    No wildcards, no NUL, valid UTF-8 of 1..65535 encoded bytes.
    """
    if not isinstance(raw, str):
        raise InvalidTopic("topic must be a string")
    try:
        encoded = len(raw) if raw.isascii() else len(raw.encode("utf-8"))
    except UnicodeEncodeError as exc:  # a lone surrogate
        raise InvalidTopic(f"topic is not valid UTF-8 (position {exc.start})") from None
    if encoded < 1:
        raise InvalidTopic("topic must not be empty")
    if encoded > 0xFFFF:
        raise InvalidTopic("topic exceeds 65535 encoded bytes")
    if "+" in raw or "#" in raw or "\x00" in raw:
        i, ch = next((i, ch) for i, ch in enumerate(raw) if ch in "+#\x00")
        if ch == "\x00":
            raise InvalidTopic(f"NUL not allowed in topic name (position {i})")
        raise InvalidTopic(f"wildcard {ch!r} not allowed in topic name (position {i})")
    return tuple(raw.split("/"))


def validate_filter(raw: str) -> tuple[str, ...]:
    """Validate a subscription filter; returns its levels.

    ``+`` must occupy a whole level; ``#`` only as the final level, alone.
    """
    if not isinstance(raw, str):
        raise InvalidFilter("filter must be a string", 0)
    try:
        encoded = len(raw) if raw.isascii() else len(raw.encode("utf-8"))
    except UnicodeEncodeError as exc:  # a lone surrogate
        raise InvalidFilter("filter is not valid UTF-8", exc.start) from None
    if encoded < 1:
        raise InvalidFilter("filter must not be empty", 0)
    if encoded > 0xFFFF:
        raise InvalidFilter("filter exceeds 65535 encoded bytes", 0)
    if "\x00" in raw:
        raise InvalidFilter("NUL not allowed in filter", raw.index("\x00"))
    levels = raw.split("/")
    pos = 0
    for i, level in enumerate(levels):
        if "#" in level:
            if level != "#":
                raise InvalidFilter("'#' must occupy a whole level", pos + level.index("#"))
            if i != len(levels) - 1:
                raise InvalidFilter("'#' must be the final level", pos)
        elif "+" in level and level != "+":
            raise InvalidFilter("'+' must occupy a whole level", pos + level.index("+"))
        pos += len(level) + 1
    return tuple(levels)


def topic_matches(filt: str | tuple[str, ...], topic: str | tuple[str, ...]) -> bool:
    """MQTT 3.1.1 filter matching.

    ``+`` matches exactly one level; ``#`` matches the remainder including
    zero levels at its own position (so ``a/#`` matches ``a``).
    """
    f = filt.split("/") if isinstance(filt, str) else filt
    t = topic.split("/") if isinstance(topic, str) else topic
    for i, level in enumerate(f):
        if level == "#":
            return True
        if i >= len(t):
            return False
        if level != "+" and level != t[i]:
            return False
    return len(f) == len(t)


V = TypeVar("V")


class TopicTree(Generic[V]):
    """Values indexed by topic filter, matched with :func:`topic_matches` semantics.

    Each node is a ``TopicTree``: ``children`` maps one filter level to the
    node below it, and ``values`` holds what was added under the filter that
    ends at this node. ``match`` walks the exact, ``+`` and ``#`` children of
    every live node level by level, so a lookup costs O(levels + matches)
    however many filters are stored. Values come back in tree order.
    """

    __slots__ = ("children", "values")

    def __init__(self) -> None:
        self.children: dict[str, TopicTree[V]] = {}
        self.values: list[V] = []

    def add(self, levels: tuple[str, ...], value: V) -> None:
        """Store value under a validated filter's levels."""
        node = self
        for level in levels:
            child = node.children.get(level)
            if child is None:
                child = node.children[level] = TopicTree()
            node = child
        node.values.append(value)

    def remove(self, levels: tuple[str, ...], value: V) -> None:
        """Remove one value stored under levels and prune nodes left empty.

        Raises ``KeyError`` if the value is not stored there.
        """
        path = [self]
        for level in levels:
            child = path[-1].children.get(level)
            if child is None:
                raise KeyError(levels)
            path.append(child)
        try:
            path[-1].values.remove(value)
        except ValueError:
            raise KeyError(levels) from None
        for depth in range(len(levels), 0, -1):
            if path[depth].children or path[depth].values:
                break
            del path[depth - 1].children[levels[depth - 1]]

    def match(self, topic_levels: tuple[str, ...]) -> list[V]:
        """Every value whose filter matches a validated topic name's levels."""
        out: list[V] = []
        nodes = [self]
        for level in topic_levels:
            below = []
            for node in nodes:
                children = node.children
                child = children.get("#")
                if child is not None:
                    out.extend(child.values)
                child = children.get(level)
                if child is not None:
                    below.append(child)
                child = children.get("+")
                if child is not None:
                    below.append(child)
            if not below:
                return out
            nodes = below
        for node in nodes:
            out.extend(node.values)
            child = node.children.get("#")
            if child is not None:
                out.extend(child.values)
        return out


# --- primitive encoders -----------------------------------------------------


def encode_remaining_length(n: int) -> bytes:
    """7-bits-per-byte little-endian varint with continuation high bit."""
    if not 0 <= n <= VARINT_MAX:
        raise EncodingError(f"remaining length {n} out of range 0..{VARINT_MAX}")
    out = bytearray()
    while True:
        byte = n % 128
        n //= 128
        if n:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_remaining_length(data: bytes, offset: int = 0) -> tuple[int, int] | None:
    """Decode the varint at ``offset``; returns (value, bytes consumed).

    Returns None when more bytes are needed; raises MalformedPacket on a
    varint longer than 4 bytes.
    """
    value = 0
    shift = 0
    for i in range(4):
        if offset + i >= len(data):
            return None
        byte = data[offset + i]
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, i + 1
        shift += 7
    raise MalformedPacket("remaining-length varint longer than 4 bytes")


def _encode_string(s: str, what: str = "string") -> bytes:
    if "\x00" in s:
        raise EncodingError(f"{what} contains NUL")
    try:
        raw = s.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise EncodingError(f"{what} is not encodable UTF-8: {exc}") from exc
    if len(raw) > 0xFFFF:
        raise EncodingError(f"{what} exceeds 65535 encoded bytes")
    return struct.pack(">H", len(raw)) + raw


class _Reader:
    """Cursor over one complete frame body; truncation here is malformed."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def remaining(self) -> int:
        return len(self.data) - self.pos

    def u8(self) -> int:
        if self.remaining() < 1:
            raise MalformedPacket("truncated body: expected u8")
        v = self.data[self.pos]
        self.pos += 1
        return v

    def u16(self) -> int:
        if self.remaining() < 2:
            raise MalformedPacket("truncated body: expected u16")
        v = struct.unpack_from(">H", self.data, self.pos)[0]
        self.pos += 2
        return v

    def string(self) -> str:
        n = self.u16()
        if self.remaining() < n:
            raise MalformedPacket("truncated body: string shorter than its length")
        raw = self.data[self.pos : self.pos + n]
        self.pos += n
        try:
            s = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedPacket(f"invalid UTF-8 string: {exc}") from exc
        if "\x00" in s:
            raise MalformedPacket("NUL in string")
        return s

    def rest(self) -> bytes:
        raw = self.data[self.pos :]
        self.pos = len(self.data)
        return bytes(raw)

    def expect_end(self) -> None:
        if self.remaining():
            raise MalformedPacket(f"{self.remaining()} trailing bytes in body")


# --- frame decode -----------------------------------------------------------


def decode_packet(data: bytes | bytearray | memoryview) -> tuple[Packet, int] | None:
    """Decode one frame from the front of ``data``.

    Returns (packet, bytes consumed) or None when the buffer holds only a
    partial frame. Raises MalformedPacket for anything that can never become
    a valid subset frame.
    """
    if len(data) < 1:
        return None
    head = bytes(data[:5])  # fixed header is at most 1 + 4 varint bytes
    byte0 = head[0]
    ptype = byte0 >> 4
    flags = byte0 & 0x0F
    if ptype in (0, 15):
        raise MalformedPacket(f"reserved packet type {ptype}")
    if ptype in (4, 5, 6, 7):
        raise MalformedPacket(f"packet type {ptype} requires QoS > 0, not in subset")

    varint = decode_remaining_length(head, 1)
    if varint is None:
        return None
    length, nvar = varint
    if length > MAX_REMAINING_LENGTH:
        raise MalformedPacket(f"remaining length {length} exceeds {MAX_REMAINING_LENGTH}")
    total = 1 + nvar + length
    if len(data) < total:
        return None
    body = _Reader(bytes(data[1 + nvar : total]))

    if ptype == T_PUBLISH:
        if flags & 0b1110:
            raise MalformedPacket("publish DUP/QoS flags must be 0 in subset")
        packet = _decode_publish(body, retain=bool(flags & 0x01))
    else:
        expected_flags = 0b0010 if ptype in (T_SUBSCRIBE, T_UNSUBSCRIBE) else 0
        if flags != expected_flags:
            raise MalformedPacket(f"invalid flags 0x{flags:X} for packet type {ptype}")
        if ptype == T_CONNECT:
            packet = _decode_connect(body)
        elif ptype == T_CONNACK:
            packet = _decode_connack(body)
        elif ptype == T_SUBSCRIBE:
            packet = _decode_subscribe(body)
        elif ptype == T_SUBACK:
            packet = _decode_suback(body)
        elif ptype == T_UNSUBSCRIBE:
            packet = _decode_unsubscribe(body)
        elif ptype == T_UNSUBACK:
            packet = Unsuback(packet_id=_nonzero_packet_id(body.u16()))
        elif ptype == T_PINGREQ:
            packet = Pingreq()
        elif ptype == T_PINGRESP:
            packet = Pingresp()
        else:
            packet = Disconnect()
    body.expect_end()
    return packet, total


async def read_packet(reader: asyncio.StreamReader, buf: bytearray) -> Packet | None:
    """The next frame from ``reader``, or None once the stream ends.

    ``buf`` keeps the bytes read past a frame for the next call, so one buffer
    follows one stream from start to end. MalformedPacket propagates.
    """
    while (result := decode_packet(buf)) is None:
        chunk = await reader.read(4096)
        if not chunk:
            return None
        buf += chunk
    packet, consumed = result
    del buf[:consumed]
    return packet


def _nonzero_packet_id(pid: int) -> int:
    if pid == 0:
        raise MalformedPacket("packet id must be nonzero")
    return pid


def _decode_connect(body: _Reader) -> Connect:
    name = body.string()
    if name != PROTOCOL_NAME:
        raise MalformedPacket(f"unexpected protocol name {name!r}")
    level = body.u8()
    if level != PROTOCOL_LEVEL:
        raise MalformedPacket(f"unsupported protocol level {level}")
    cflags = body.u8()
    if cflags & 0x01:
        raise MalformedPacket("connect reserved flag bit must be 0")
    if cflags & 0b11111100:
        raise MalformedPacket("will/username/password connect flags not in subset")
    keep_alive = body.u16()
    client_id = body.string()
    return Connect(client_id=client_id, keep_alive_s=keep_alive, clean_session=bool(cflags & 0x02))


def _decode_connack(body: _Reader) -> Connack:
    ack_flags = body.u8()
    if ack_flags != 0:
        raise MalformedPacket("connack session-present must be 0 in subset")
    return Connack(return_code=body.u8())


def _decode_publish(body: _Reader, retain: bool) -> Publish:
    topic = body.string()
    try:
        validate_topic(topic)
    except InvalidTopic as exc:
        raise MalformedPacket(f"invalid publish topic: {exc}") from exc
    return Publish(topic=topic, payload=body.rest(), retain=retain)


def _decode_subscribe(body: _Reader) -> Subscribe:
    pid = _nonzero_packet_id(body.u16())
    filters = []
    while body.remaining():
        filters.append(body.string())
        qos = body.u8()
        if qos != 0:
            raise MalformedPacket(f"requested QoS {qos} not in subset")
    if not filters:
        raise MalformedPacket("subscribe with no filters")
    return Subscribe(packet_id=pid, filters=tuple(filters))


def _decode_suback(body: _Reader) -> Suback:
    pid = _nonzero_packet_id(body.u16())
    granted = []
    while body.remaining():
        code = body.u8()
        if code not in (0x00, 0x80):
            raise MalformedPacket(f"suback return code 0x{code:02X} not in subset")
        granted.append(code)
    if not granted:
        raise MalformedPacket("suback with no return codes")
    return Suback(packet_id=pid, granted=tuple(granted))


def _decode_unsubscribe(body: _Reader) -> Unsubscribe:
    pid = _nonzero_packet_id(body.u16())
    filters = []
    while body.remaining():
        filters.append(body.string())
    if not filters:
        raise MalformedPacket("unsubscribe with no filters")
    return Unsubscribe(packet_id=pid, filters=tuple(filters))


# --- frame encode -----------------------------------------------------------


def _frame(ptype: int, flags: int, body: bytes) -> bytes:
    if len(body) > MAX_REMAINING_LENGTH:
        raise EncodingError(f"frame body {len(body)} exceeds {MAX_REMAINING_LENGTH} bytes")
    return bytes([ptype << 4 | flags]) + encode_remaining_length(len(body)) + body


def _check_u16(value: int, what: str) -> int:
    if not 0 <= value <= 0xFFFF:
        raise EncodingError(f"{what} {value} out of u16 range")
    return value


def encode_packet(p: Packet) -> bytes:
    """Encode to the canonical frame; decode_packet inverts it exactly."""
    if isinstance(p, Connect):
        cflags = 0x02 if p.clean_session else 0x00
        body = (
            _encode_string(PROTOCOL_NAME)
            + bytes([PROTOCOL_LEVEL, cflags])
            + struct.pack(">H", _check_u16(p.keep_alive_s, "keep_alive_s"))
            + _encode_string(p.client_id, "client_id")
        )
        return _frame(T_CONNECT, 0, body)
    if isinstance(p, Connack):
        if not 0 <= p.return_code <= 0xFF:
            raise EncodingError(f"return code {p.return_code} out of u8 range")
        return _frame(T_CONNACK, 0, bytes([0, p.return_code]))
    if isinstance(p, Publish):
        try:
            validate_topic(p.topic)
        except InvalidTopic as exc:
            raise EncodingError(f"invalid publish topic: {exc}") from exc
        body = _encode_string(p.topic, "topic") + bytes(p.payload)
        return _frame(T_PUBLISH, 0x01 if p.retain else 0x00, body)
    if isinstance(p, Subscribe):
        if not p.filters:
            raise EncodingError("subscribe needs at least one filter")
        body = struct.pack(">H", _nonzero_id_enc(p.packet_id))
        for f in p.filters:
            body += _encode_string(f, "filter") + b"\x00"
        return _frame(T_SUBSCRIBE, 0b0010, body)
    if isinstance(p, Suback):
        if not p.granted:
            raise EncodingError("suback needs at least one return code")
        for code in p.granted:
            if code not in (0x00, 0x80):
                raise EncodingError(f"suback return code 0x{code:02X} not in subset")
        return _frame(T_SUBACK, 0, struct.pack(">H", _nonzero_id_enc(p.packet_id)) + bytes(p.granted))
    if isinstance(p, Unsubscribe):
        if not p.filters:
            raise EncodingError("unsubscribe needs at least one filter")
        body = struct.pack(">H", _nonzero_id_enc(p.packet_id))
        for f in p.filters:
            body += _encode_string(f, "filter")
        return _frame(T_UNSUBSCRIBE, 0b0010, body)
    if isinstance(p, Unsuback):
        return _frame(T_UNSUBACK, 0, struct.pack(">H", _nonzero_id_enc(p.packet_id)))
    if isinstance(p, Pingreq):
        return _frame(T_PINGREQ, 0, b"")
    if isinstance(p, Pingresp):
        return _frame(T_PINGRESP, 0, b"")
    if isinstance(p, Disconnect):
        return _frame(T_DISCONNECT, 0, b"")
    raise EncodingError(f"not a packet: {p!r}")


def _nonzero_id_enc(pid: int) -> int:
    _check_u16(pid, "packet_id")
    if pid == 0:
        raise EncodingError("packet id must be nonzero")
    return pid
