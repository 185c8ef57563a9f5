"""Websocket framing: limits, and a wire-style fuzz of recv_text."""

import asyncio
import struct

from hypothesis import example, given, settings
from hypothesis import strategies as st

from sensert.ws import (
    MAX_FRAME_BYTES,
    OP_CLOSE,
    OP_PING,
    OP_PONG,
    OP_TEXT,
    ws_connect,
    ws_handshake_server,
)


def test_oversized_frame_header_closes_connection():
    """A header claiming 2**40 payload bytes must not be buffered."""

    async def main():
        async def forge(reader, writer):
            await ws_handshake_server(reader, writer)
            writer.write(bytes([0x80 | OP_TEXT, 127]) + struct.pack(">Q", 2 ** 40) + b"x" * 64)
            await writer.drain()
            await reader.read()  # until the client hangs up
            writer.close()

        server = await asyncio.start_server(forge, "127.0.0.1", 0)
        conn = await ws_connect(*server.sockets[0].getsockname()[:2])
        assert await asyncio.wait_for(conn.recv_text(), 1.0) is None
        assert conn.closed
        server.close()
        await server.wait_closed()

    asyncio.run(main())


def test_invalid_utf8_text_closes_connection():
    """RFC 6455 section 8.1: a text frame that is not UTF-8 fails the connection."""

    async def main():
        async def peer(reader, writer):
            await ws_handshake_server(reader, writer)
            writer.write(bytes([0x80 | OP_TEXT, 2]) + b"\xff\xfe")
            await writer.drain()
            await reader.read()  # until the client hangs up
            writer.close()

        server = await asyncio.start_server(peer, "127.0.0.1", 0)
        conn = await ws_connect(*server.sockets[0].getsockname()[:2])
        assert await asyncio.wait_for(conn.recv_text(), 1.0) is None
        assert conn.closed
        server.close()
        await server.wait_closed()

    asyncio.run(main())


# --- wire-style fuzz: what recv_text makes of any byte stream ---------------------------

def _frame(opcode: int, payload: bytes, key: bytes | None, width: int,
           claim: int | None = None) -> bytes:
    """One FIN frame with its length in the 7-, 16- or 64-bit form; `claim`
    overrides the stated length."""
    n = len(payload) if claim is None else claim
    mask_bit = 0x80 if key is not None else 0
    head = bytes([0x80 | opcode])
    if width == 7:
        head += bytes([mask_bit | n])
    elif width == 16:
        head += bytes([mask_bit | 126]) + struct.pack(">H", n)
    else:
        head += bytes([mask_bit | 127]) + struct.pack(">Q", n)
    if key is None:
        return head + payload
    return head + key + bytes(b ^ key[i % 4] for i, b in enumerate(payload))


@st.composite
def frames(draw, opcodes=st.sampled_from([OP_TEXT, OP_PING, OP_PONG])):
    opcode = draw(opcodes)
    payload = draw(st.text(max_size=80)).encode() if opcode == OP_TEXT else draw(
        st.binary(max_size=125))
    key = draw(st.none() | st.binary(min_size=4, max_size=4))
    widths = [7, 16, 64] if len(payload) < 126 else [16, 64]
    return opcode, payload, _frame(opcode, payload, key, draw(st.sampled_from(widths)))


@st.composite
def hostile_streams(draw):
    """Random bytes, or well-formed frames (text, ping, pong, close, any
    opcode, claims above MAX_FRAME_BYTES, floods of one frame) with bytes
    flipped, cut or added."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=600))
    parts = []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.integers(0, 4)) == 0:
            key = draw(st.none() | st.binary(min_size=4, max_size=4))
            claim = draw(st.integers(MAX_FRAME_BYTES + 1, 2 ** 64 - 1))  # needs the 64-bit form
            parts.append(_frame(draw(st.integers(0, 15)), b"x" * 8, key, 64, claim))
        else:
            opcodes = st.sampled_from([OP_TEXT, OP_PING, OP_PONG, OP_CLOSE]) | st.integers(0, 15)
            # a flood of one frame: enough pongs to outlast a peer that has gone
            parts.append(draw(frames(opcodes))[2] * draw(st.sampled_from([1, 1, 1, 300])))
    stream = bytearray(b"".join(parts))
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(stream)))
        how = draw(st.sampled_from(["flip", "cut", "insert"]))
        if how == "flip" and at < len(stream):
            stream[at] ^= draw(st.integers(1, 255))
        elif how == "cut":
            del stream[at:at + draw(st.integers(1, 16))]
        elif how == "insert":
            stream[at:at] = draw(st.binary(min_size=1, max_size=16))
    return bytes(stream)


async def _recv_all(stream: bytes, abrupt: bool) -> list:
    """What successive recv_text calls return when a server sends `stream`
    after the handshake, then half-closes (or, if `abrupt`, closes)."""
    handled = asyncio.Event()

    async def peer(reader, writer):
        try:
            await ws_handshake_server(reader, writer)
            writer.write(stream)
            await writer.drain()
            if not abrupt:
                writer.write_eof()
                await reader.read()  # until the client hangs up
        except (ConnectionError, OSError):
            pass
        finally:
            writer.close()
            handled.set()

    server = await asyncio.start_server(peer, "127.0.0.1", 0)
    conn = await ws_connect(*server.sockets[0].getsockname()[:2])
    results = []
    for _ in range(len(stream) // 2 + 1):  # every frame is at least two bytes
        results.append(await asyncio.wait_for(conn.recv_text(), 5.0))
        if results[-1] is None:
            break
    await conn.close()
    await asyncio.wait_for(handled.wait(), 5.0)
    server.close()
    await server.wait_closed()
    return results


@given(st.lists(frames(), max_size=8), st.booleans())
@settings(max_examples=60)
def test_recv_text_returns_each_text_frame_in_order(parts, abrupt):
    """Masked or not, in any length form, with pings and pongs between: the
    texts come back in order, then None at the end of the stream."""
    stream = b"".join(raw for _op, _payload, raw in parts)
    texts = [payload.decode() for op, payload, _raw in parts if op == OP_TEXT]
    if abrupt and any(op == OP_PING for op, _payload, _raw in parts):
        abrupt = False  # a pong to a closed peer may reset what is still unread
    assert asyncio.run(_recv_all(stream, abrupt)) == texts + [None]


@given(hostile_streams(), st.booleans())
@example(_frame(OP_PING, b"p" * 100, None, 7) * 300, True)  # pongs to a peer that has gone
@settings(max_examples=150)
def test_recv_text_never_raises_on_hostile_streams(stream, abrupt):
    """Each call returns a str or None and never raises; None comes last."""
    results = asyncio.run(_recv_all(stream, abrupt))
    assert all(isinstance(r, str) for r in results[:-1])
    assert results[-1] is None
