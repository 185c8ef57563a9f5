"""Minimal RFC 6455 websocket support (text frames) over asyncio streams.

Just enough for the in-process gateway emulation: HTTP upgrade handshake,
text/ping/pong/close frames, client-side masking. Both endpoints in this
system are ours, so extensions and fragmentation are not implemented.
"""

from __future__ import annotations

import asyncio
import base64
import hashlib
import os
import struct
from contextlib import suppress

_GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

OP_TEXT = 0x1
OP_CLOSE = 0x8
OP_PING = 0x9
OP_PONG = 0xA

# Largest frame payload accepted; a bigger claim closes the connection.
MAX_FRAME_BYTES = 1 << 20


class WsError(ConnectionError):
    pass


def _accept_key(key: str) -> str:
    digest = hashlib.sha1((key + _GUID).encode("ascii")).digest()
    return base64.b64encode(digest).decode("ascii")


def _encode_frame(opcode: int, payload: bytes, mask: bool) -> bytes:
    head = bytearray([0x80 | opcode])
    n = len(payload)
    mask_bit = 0x80 if mask else 0x00
    if n < 126:
        head.append(mask_bit | n)
    elif n < 1 << 16:
        head.append(mask_bit | 126)
        head += struct.pack(">H", n)
    else:
        head.append(mask_bit | 127)
        head += struct.pack(">Q", n)
    if mask:
        key = os.urandom(4)
        head += key
        payload = bytes(b ^ key[i % 4] for i, b in enumerate(payload))
    return bytes(head) + payload


class WsConnection:
    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter,
                 client_side: bool):
        self._reader = reader
        self._writer = writer
        self._client_side = client_side
        self.closed = False

    def send_text_nowait(self, text: str) -> None:
        """Queue a text frame without awaiting backpressure."""
        if self.closed:
            raise WsError("websocket closed")
        self._writer.write(_encode_frame(OP_TEXT, text.encode("utf-8"),
                                         mask=self._client_side))

    async def _send(self, opcode: int, payload: bytes) -> None:
        if self.closed:
            raise WsError("websocket closed")
        self._writer.write(_encode_frame(opcode, payload, mask=self._client_side))
        try:
            await self._writer.drain()
        except (ConnectionError, OSError) as exc:
            self.closed = True
            raise WsError(str(exc)) from exc

    async def recv_text(self) -> str | None:
        """Next text payload, or None once the connection ends.

        A text frame that is not valid UTF-8 closes the connection
        (RFC 6455 section 8.1). Never raises: a malformed frame, an
        oversized claim or a pong that cannot be sent end the stream.
        """
        while True:
            frame = await self._recv_frame()
            if frame is None:
                return None
            opcode, payload = frame
            if opcode == OP_TEXT:
                try:
                    return payload.decode("utf-8")
                except UnicodeDecodeError:
                    await self.close()
                    return None
            if opcode == OP_PING:
                try:
                    await self._send(OP_PONG, payload)
                except WsError:  # the peer is gone; so is the stream
                    return None
            elif opcode == OP_CLOSE:
                self.closed = True
                return None
            # pong and anything else: ignore

    async def _recv_frame(self) -> tuple[int, bytes] | None:
        try:
            head = await self._reader.readexactly(2)
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            self.closed = True
            return None
        opcode = head[0] & 0x0F
        masked = bool(head[1] & 0x80)
        n = head[1] & 0x7F
        try:
            if n == 126:
                n = struct.unpack(">H", await self._reader.readexactly(2))[0]
            elif n == 127:
                n = struct.unpack(">Q", await self._reader.readexactly(8))[0]
            if n > MAX_FRAME_BYTES:
                raise WsError(f"frame of {n} bytes exceeds {MAX_FRAME_BYTES}")
            key = await self._reader.readexactly(4) if masked else None
            payload = await self._reader.readexactly(n) if n else b""
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            self.closed = True
            self._writer.close()
            return None
        if key is not None:
            payload = bytes(b ^ key[i % 4] for i, b in enumerate(payload))
        return opcode, payload

    async def close(self) -> None:
        if not self.closed:
            with suppress(WsError):
                await self._send(OP_CLOSE, b"")
            self.closed = True
        with suppress(Exception):
            self._writer.close()


async def _read_headers(reader: asyncio.StreamReader) -> dict[str, str]:
    """HTTP header lines up to the blank line, by lower-case name."""
    headers = {}
    while (line := await reader.readline()) not in (b"\r\n", b"\n", b""):
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    return headers


async def ws_connect(host: str, port: int, path: str = "/", timeout: float = 5.0) -> WsConnection:
    reader, writer = await asyncio.wait_for(asyncio.open_connection(host, port), timeout)
    key = base64.b64encode(os.urandom(16)).decode("ascii")
    request = (
        f"GET {path} HTTP/1.1\r\n"
        f"Host: {host}:{port}\r\n"
        "Upgrade: websocket\r\n"
        "Connection: Upgrade\r\n"
        f"Sec-WebSocket-Key: {key}\r\n"
        "Sec-WebSocket-Version: 13\r\n\r\n"
    )
    writer.write(request.encode("ascii"))
    await writer.drain()
    status = await asyncio.wait_for(reader.readline(), timeout)
    if b"101" not in status:
        writer.close()
        raise WsError(f"handshake rejected: {status!r}")
    headers = await asyncio.wait_for(_read_headers(reader), timeout)
    if headers.get("sec-websocket-accept") != _accept_key(key):
        writer.close()
        raise WsError("bad Sec-WebSocket-Accept")
    return WsConnection(reader, writer, client_side=True)


async def ws_handshake_server(reader: asyncio.StreamReader,
                              writer: asyncio.StreamWriter) -> WsConnection:
    request_line = await reader.readline()
    if not request_line.startswith(b"GET"):
        raise WsError(f"not a websocket upgrade: {request_line!r}")
    key = (await _read_headers(reader)).get("sec-websocket-key")
    if key is None:
        raise WsError("missing Sec-WebSocket-Key")
    response = (
        "HTTP/1.1 101 Switching Protocols\r\n"
        "Upgrade: websocket\r\n"
        "Connection: Upgrade\r\n"
        f"Sec-WebSocket-Accept: {_accept_key(key)}\r\n\r\n"
    )
    writer.write(response.encode("ascii"))
    await writer.drain()
    return WsConnection(reader, writer, client_side=False)
