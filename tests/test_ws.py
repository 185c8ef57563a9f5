"""Websocket framing limits."""

import asyncio
import struct

from sensert.ws import OP_TEXT, ws_connect, ws_handshake_server


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
