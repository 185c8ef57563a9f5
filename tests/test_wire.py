"""Codec unit tests with hand-encoded MQTT 3.1.1 frames as the oracle."""

import asyncio

import pytest

from sensert import wire
from sensert.wire import (
    Connack,
    Connect,
    Disconnect,
    EncodingError,
    InvalidFilter,
    InvalidTopic,
    MalformedPacket,
    Pingreq,
    Pingresp,
    Publish,
    Suback,
    Subscribe,
    Unsuback,
    Unsubscribe,
)


# --- remaining length varint -------------------------------------------------

@pytest.mark.parametrize(
    "n,encoded",
    [
        (0, [0x00]),
        (1, [0x01]),
        (127, [0x7F]),
        (128, [0x80, 0x01]),
        (321, [0xC1, 0x02]),
        (16_383, [0xFF, 0x7F]),
        (16_384, [0x80, 0x80, 0x01]),
        (2_097_151, [0xFF, 0xFF, 0x7F]),
        (2_097_152, [0x80, 0x80, 0x80, 0x01]),
        (268_435_455, [0xFF, 0xFF, 0xFF, 0x7F]),
    ],
)
def test_remaining_length_roundtrip(n, encoded):
    raw = wire.encode_remaining_length(n)
    assert list(raw) == encoded
    assert wire.decode_remaining_length(raw) == (n, len(raw))


def test_remaining_length_out_of_range():
    with pytest.raises(EncodingError):
        wire.encode_remaining_length(268_435_456)
    with pytest.raises(EncodingError):
        wire.encode_remaining_length(-1)


def test_remaining_length_overlong_varint():
    with pytest.raises(MalformedPacket):
        wire.decode_remaining_length(bytes([0x80, 0x80, 0x80, 0x80, 0x01]))


def test_remaining_length_partial():
    assert wire.decode_remaining_length(bytes([0x80])) is None


# --- fixed two-byte packets --------------------------------------------------

def test_pingreq_fixed_frame():
    assert wire.decode_packet(bytes([0xC0, 0x00])) == (Pingreq(), 2)
    assert wire.encode_packet(Pingreq()) == bytes([0xC0, 0x00])


def test_pingresp_fixed_frame():
    assert wire.encode_packet(Pingresp()) == bytes([0xD0, 0x00])
    assert wire.decode_packet(bytes([0xD0, 0x00])) == (Pingresp(), 2)


def test_disconnect_fixed_frame():
    assert wire.encode_packet(Disconnect()) == bytes([0xE0, 0x00])


def test_connack_fixed_frame():
    assert wire.decode_packet(bytes([0x20, 0x02, 0x00, 0x00])) == (Connack(return_code=0), 4)
    assert wire.encode_packet(Connack(return_code=5)) == bytes([0x20, 0x02, 0x00, 0x05])


# --- publish -----------------------------------------------------------------

def test_publish_hand_encoded_frame():
    # Hand-encoded per MQTT 3.1.1: topic "a/b" is 2 length bytes + 3 chars,
    # payload "{}" is 2 bytes, so the remaining length is 7.
    frame = wire.encode_packet(Publish(topic="a/b", payload=b"{}"))
    expected = bytes([0x30, 0x07, 0x00, 0x03]) + b"a/b" + b"{}"
    assert frame == expected
    pkt, consumed = wire.decode_packet(frame)
    assert consumed == len(frame)
    assert pkt == Publish(topic="a/b", payload=b"{}", retain=False)


def test_publish_retain_flag():
    frame = wire.encode_packet(Publish(topic="t", payload=b"x", retain=True))
    assert frame[0] == 0x31
    pkt, _ = wire.decode_packet(frame)
    assert pkt.retain is True


def test_publish_rejects_wildcard_topic():
    with pytest.raises(EncodingError):
        wire.encode_packet(Publish(topic="a/+/b", payload=b""))
    bad = bytes([0x30, 0x05, 0x00, 0x03]) + b"a/#"
    with pytest.raises(MalformedPacket):
        wire.decode_packet(bad)


def test_publish_rejects_qos_flags():
    frame = bytearray(wire.encode_packet(Publish(topic="t", payload=b"")))
    frame[0] |= 0x02  # QoS 1
    with pytest.raises(MalformedPacket):
        wire.decode_packet(bytes(frame))


# --- connect -----------------------------------------------------------------

def test_connect_hand_encoded_frame():
    frame = wire.encode_packet(Connect(client_id="c1", keep_alive_s=60))
    expected = bytes([0x10, 0x0E, 0x00, 0x04]) + b"MQTT" + bytes([0x04, 0x02, 0x00, 0x3C, 0x00, 0x02]) + b"c1"
    assert frame == expected
    pkt, _ = wire.decode_packet(frame)
    assert pkt == Connect(client_id="c1", keep_alive_s=60, clean_session=True)


def test_connect_rejects_wrong_protocol():
    frame = bytearray(wire.encode_packet(Connect(client_id="x")))
    frame[6] = ord("X")  # corrupt protocol name
    with pytest.raises(MalformedPacket):
        wire.decode_packet(bytes(frame))


def test_connect_rejects_will_flags():
    frame = bytearray(wire.encode_packet(Connect(client_id="x")))
    frame[9] |= 0x04  # will flag
    with pytest.raises(MalformedPacket):
        wire.decode_packet(bytes(frame))


# --- subscribe family --------------------------------------------------------

def test_subscribe_roundtrip():
    p = Subscribe(packet_id=7, filters=("tele/+/SENSOR", "a/#"))
    frame = wire.encode_packet(p)
    assert wire.decode_packet(frame) == (p, len(frame))


def test_subscribe_rejects_nonzero_qos_request():
    frame = bytearray(wire.encode_packet(Subscribe(packet_id=1, filters=("a",))))
    frame[-1] = 0x01
    with pytest.raises(MalformedPacket):
        wire.decode_packet(bytes(frame))


def test_subscribe_zero_packet_id_rejected():
    with pytest.raises(EncodingError):
        wire.encode_packet(Subscribe(packet_id=0, filters=("a",)))


def test_suback_roundtrip():
    p = Suback(packet_id=7, granted=(0x00, 0x80, 0x00))
    frame = wire.encode_packet(p)
    assert wire.decode_packet(frame) == (p, len(frame))


def test_unsubscribe_unsuback_roundtrip():
    p = Unsubscribe(packet_id=3, filters=("a/b",))
    frame = wire.encode_packet(p)
    assert wire.decode_packet(frame) == (p, len(frame))
    q = Unsuback(packet_id=3)
    frame = wire.encode_packet(q)
    assert wire.decode_packet(frame) == (q, len(frame))


# --- malformed / partial inputs ---------------------------------------------

def test_reserved_packet_types_rejected():
    with pytest.raises(MalformedPacket):
        wire.decode_packet(bytes([0x00, 0x00]))
    with pytest.raises(MalformedPacket):
        wire.decode_packet(bytes([0xF0, 0x00]))


def test_qos_only_packet_types_rejected():
    for byte0 in (0x40, 0x50, 0x62, 0x70):
        with pytest.raises(MalformedPacket):
            wire.decode_packet(bytes([byte0, 0x00]))


def test_empty_and_partial_buffers_need_more_data():
    assert wire.decode_packet(b"") is None
    assert wire.decode_packet(bytes([0xC0])) is None
    frame = wire.encode_packet(Publish(topic="a/b", payload=b"hello"))
    for cut in range(1, len(frame)):
        assert wire.decode_packet(frame[:cut]) is None, f"prefix of {cut} bytes"


def test_oversized_remaining_length_rejected():
    header = bytes([0x30]) + wire.encode_remaining_length(wire.MAX_REMAINING_LENGTH + 1)
    with pytest.raises(MalformedPacket):
        wire.decode_packet(header)


def test_trailing_bytes_in_body_rejected():
    with pytest.raises(MalformedPacket):
        wire.decode_packet(bytes([0xC0, 0x01, 0x00]))


def test_invalid_utf8_rejected():
    frame = bytes([0x30, 0x05, 0x00, 0x03, 0xFF, 0xFE, 0x61])
    with pytest.raises(MalformedPacket):
        wire.decode_packet(frame)


def test_decode_consumes_only_first_frame():
    a = wire.encode_packet(Pingreq())
    b = wire.encode_packet(Publish(topic="x", payload=b"1"))
    pkt, consumed = wire.decode_packet(a + b)
    assert pkt == Pingreq()
    assert consumed == len(a)
    pkt2, consumed2 = wire.decode_packet((a + b)[consumed:])
    assert pkt2 == Publish(topic="x", payload=b"1")
    assert consumed2 == len(b)


# --- reading frames from a stream --------------------------------------------

class _Chunks:
    """A stream whose reads return the given chunks in order, then EOF."""

    def __init__(self, chunks):
        self._chunks = list(chunks)

    async def read(self, n):
        assert n > 0
        return self._chunks.pop(0) if self._chunks else b""


_STREAM = [
    Connack(return_code=0),
    Publish(topic="a/b", payload=b"x" * 300),  # two-byte remaining length
    Pingresp(),
    Suback(packet_id=7, granted=(0, 0x80)),
    Publish(topic="t", payload=b"", retain=True),
    Unsuback(packet_id=9),
]
_STREAM_BYTES = b"".join(wire.encode_packet(p) for p in _STREAM)


async def _read_all(chunks):
    reader, buf, got = _Chunks(chunks), bytearray(), []
    while (pkt := await wire.read_packet(reader, buf)) is not None:
        got.append(pkt)
    assert await wire.read_packet(reader, buf) is None  # EOF stays EOF
    return got


@pytest.mark.parametrize("size", [1, 2, 3, 5, 64, len(_STREAM_BYTES)])
def test_read_packet_in_order_for_any_chunk_size(size):
    """Size 1 splits every frame at every byte; larger sizes carry several
    frames, and the start of the next, in one chunk."""
    data = _STREAM_BYTES
    chunks = [data[i:i + size] for i in range(0, len(data), size)]
    assert asyncio.run(_read_all(chunks)) == _STREAM


def test_read_packet_split_at_every_offset():
    async def main():
        data = _STREAM_BYTES
        for cut in range(1, len(data)):
            assert await _read_all([data[:cut], data[cut:]]) == _STREAM, f"cut at {cut}"

    asyncio.run(main())


def test_read_packet_none_at_eof():
    assert asyncio.run(_read_all([])) == []
    # a stream that ends inside a frame ends like any other
    frame = wire.encode_packet(Pingresp())
    assert asyncio.run(_read_all([frame + frame[:1]])) == [Pingresp()]


def test_read_packet_malformed_propagates():
    async def main():
        reader, buf = _Chunks([wire.encode_packet(Pingresp()) + bytes([0xF0, 0x00])]), bytearray()
        assert await wire.read_packet(reader, buf) == Pingresp()
        with pytest.raises(MalformedPacket):
            await wire.read_packet(reader, buf)

    asyncio.run(main())


# --- topic validation --------------------------------------------------------

def test_validate_topic_levels():
    assert wire.validate_topic("tele/plug-17/SENSOR") == ("tele", "plug-17", "SENSOR")
    assert wire.validate_topic("/") == ("", "")


# The message names the first offending character and its position.
_TOPIC_ERRORS = {
    "": "topic must not be empty",
    "a/+/b": "wildcard '+' not allowed in topic name (position 2)",
    "a/#": "wildcard '#' not allowed in topic name (position 2)",
    "a\x00b": "NUL not allowed in topic name (position 1)",
    "ab/c\x00/+#": "NUL not allowed in topic name (position 4)",
    "é/#/\x00": "wildcard '#' not allowed in topic name (position 2)",
    "feed/ttn/\ud800": "topic is not valid UTF-8 (position 9)",
    "\udfff/#": "topic is not valid UTF-8 (position 0)",
}


@pytest.mark.parametrize("bad", list(_TOPIC_ERRORS))
def test_validate_topic_rejects(bad):
    with pytest.raises(InvalidTopic) as err:
        wire.validate_topic(bad)
    assert str(err.value) == _TOPIC_ERRORS[bad]


def test_validate_filter_accepts():
    assert wire.validate_filter("a/+/c") == ("a", "+", "c")
    assert wire.validate_filter("#") == ("#",)
    assert wire.validate_filter("a/#") == ("a", "#")


@pytest.mark.parametrize(
    "bad,pos",
    [
        ("a/#/c", 2),
        ("a/b+", 3),
        ("a/+b/c", 2),
        ("a#", 1),
        ("", 0),
        ("feed/\ud800/#", 5),
        ("a/+/\udc80", 4),
    ],
)
def test_validate_filter_rejects_with_position(bad, pos):
    with pytest.raises(InvalidFilter) as err:
        wire.validate_filter(bad)
    assert err.value.position == pos


# --- matching ----------------------------------------------------------------

@pytest.mark.parametrize(
    "filt,topic,expected",
    [
        ("tele/+/SENSOR", "tele/plug-17/SENSOR", True),
        ("a/#", "a", True),
        ("a/#", "a/b/c", True),
        ("#", "a/b", True),
        ("a/+", "a", False),
        ("+", "a/b", False),
        ("a/b", "a/b/c", False),
        ("a/b/c", "a/b", False),
        ("+/+", "a/b", True),
    ],
)
def test_topic_matches_cases(filt, topic, expected):
    assert wire.topic_matches(filt, topic) is expected
