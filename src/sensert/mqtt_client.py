"""Small asyncio MQTT-subset client used by bridges, simulators and verticles."""

from __future__ import annotations

import asyncio
import itertools
import logging
import uuid
from contextlib import suppress

from . import wire
from .pipe import BoundedQueue, QueueClosed

log = logging.getLogger(__name__)


class MqttError(ConnectionError):
    pass


class MqttClient:
    """QoS-0 clean-session client over plaintext TCP.

    Every incoming publish goes to one drop-newest inbound queue, ``inbound``,
    which a :class:`~sensert.pipe.Sink` or :meth:`next_message` drains.
    """

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter,
                 client_id: str, keep_alive_s: int):
        self._reader = reader
        self._writer = writer
        self._buf = bytearray()
        self.client_id = client_id
        self._keep_alive_s = keep_alive_s
        self.inbound: BoundedQueue[tuple[str, bytes, bool]] = BoundedQueue(65536, "drop_newest")
        self._pending: dict[int, asyncio.Future] = {}
        self._packet_ids = itertools.cycle(range(1, 0x10000))
        self._closed = asyncio.Event()
        self._tasks: list[asyncio.Task] = []

    @classmethod
    async def connect(cls, host: str, port: int, client_id: str | None = None,
                      keep_alive_s: int = 60, timeout: float = 5.0) -> "MqttClient":
        reader, writer = await asyncio.wait_for(asyncio.open_connection(host, port), timeout)
        client = cls(reader, writer, client_id or f"c-{uuid.uuid4().hex[:10]}", keep_alive_s)
        try:
            writer.write(wire.encode_packet(
                wire.Connect(client.client_id, keep_alive_s=keep_alive_s)))
            await writer.drain()
            pkt = await asyncio.wait_for(wire.read_packet(reader, client._buf), timeout)
            if pkt is None:
                raise MqttError("connection closed during handshake")
            if not isinstance(pkt, wire.Connack):
                raise MqttError(f"expected CONNACK, got {pkt!r}")
            if pkt.return_code != 0:
                raise MqttError(f"connection refused, return code {pkt.return_code}")
        except wire.MalformedPacket as exc:  # not an MQTT peer: retry like any failure
            writer.close()
            raise MqttError(f"malformed handshake reply: {exc}") from exc
        except BaseException:  # a timeout, EOF, refusal or cancellation: no socket left open
            writer.close()
            raise
        client._tasks.append(asyncio.create_task(client._read_loop()))
        if keep_alive_s > 0:
            client._tasks.append(asyncio.create_task(client._ping_loop()))
        return client

    @property
    def closed(self) -> bool:
        return self._closed.is_set()

    async def wait_closed(self) -> None:
        await self._closed.wait()

    def write(self, frames: bytes) -> None:
        """Queue encoded frames on the transport; MqttError once closed."""
        if self.closed:
            raise MqttError("client is closed")
        self._writer.write(frames)

    async def drain(self) -> None:
        """Wait for transport backpressure; a failed drain closes the client."""
        try:
            await self._writer.drain()
        except (ConnectionError, OSError) as exc:
            self._shutdown()
            raise MqttError(str(exc)) from exc

    async def publish(self, topic: str, payload: bytes, retain: bool = False) -> None:
        self.publish_nowait(topic, payload, retain)
        await self.drain()

    def publish_nowait(self, topic: str, payload: bytes, retain: bool = False) -> None:
        """Queue the frame on the transport without awaiting backpressure.

        No suspension point, so callers that must pair a send with local
        bookkeeping cannot be cancelled between the two.
        """
        self.write(wire.encode_packet(wire.Publish(topic, bytes(payload), retain)))

    async def subscribe(self, filters: list[str], timeout: float = 5.0) -> list[int]:
        pid = next(self._packet_ids)
        fut: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[pid] = fut
        self._writer.write(wire.encode_packet(wire.Subscribe(pid, tuple(filters))))
        await self._writer.drain()
        suback = await asyncio.wait_for(fut, timeout)
        return list(suback.granted)

    async def unsubscribe(self, filters: list[str], timeout: float = 5.0) -> None:
        pid = next(self._packet_ids)
        fut: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[pid] = fut
        self._writer.write(wire.encode_packet(wire.Unsubscribe(pid, tuple(filters))))
        await self._writer.drain()
        await asyncio.wait_for(fut, timeout)

    async def next_message(self, timeout: float | None = None) -> tuple[str, bytes, bool]:
        """(topic, payload, retain) of the next publish.

        Raises MqttError once the connection is closed and the queue drained.
        """
        try:
            return await asyncio.wait_for(self.inbound.get(), timeout)
        except QueueClosed:
            raise MqttError("connection closed") from None

    async def close(self) -> None:
        if not self.closed:
            with suppress(ConnectionError, OSError):
                self._writer.write(wire.encode_packet(wire.Disconnect()))
                await self._writer.drain()
        self._shutdown()
        me = asyncio.current_task()
        for t in self._tasks:
            if t is not me:
                t.cancel()
        await asyncio.gather(*(t for t in self._tasks if t is not me), return_exceptions=True)

    # --- internals ---------------------------------------------------------

    async def _read_loop(self) -> None:
        try:
            while (pkt := await wire.read_packet(self._reader, self._buf)) is not None:
                self._dispatch(pkt)
        except (ConnectionError, OSError):
            pass
        except wire.MalformedPacket as exc:
            log.warning("client %s: malformed frame from broker: %s", self.client_id, exc)
        finally:
            self._shutdown()

    def _dispatch(self, pkt: wire.Packet) -> None:
        if isinstance(pkt, wire.Publish):
            if not self.inbound.put((pkt.topic, pkt.payload, pkt.retain)):
                log.warning("client %s: inbound queue full, dropping", self.client_id)
        elif isinstance(pkt, (wire.Suback, wire.Unsuback)):
            fut = self._pending.pop(pkt.packet_id, None)
            if fut is not None and not fut.done():
                fut.set_result(pkt)
        elif isinstance(pkt, wire.Pingresp):
            pass
        else:
            log.debug("client %s: ignoring %r", self.client_id, pkt)

    async def _ping_loop(self) -> None:
        interval = max(self._keep_alive_s / 2, 0.5)
        try:
            while not self.closed:
                await asyncio.sleep(interval)
                self._writer.write(wire.encode_packet(wire.Pingreq()))
                await self._writer.drain()
        except (ConnectionError, OSError):
            self._shutdown()
        except asyncio.CancelledError:
            raise

    def _shutdown(self) -> None:
        if not self._closed.is_set():
            self._closed.set()
            for fut in self._pending.values():
                if not fut.done():
                    fut.set_exception(MqttError("connection closed"))
            self._pending.clear()
            self.inbound.close()
            with suppress(Exception):
                self._writer.close()


async def subscribed(client: MqttClient, filters: list[str]) -> MqttClient:
    """``client`` once the broker has acknowledged ``filters``; closed if not."""
    try:
        await client.subscribe(filters)
    except BaseException:
        await client.close()
        raise
    return client
