"""The pipeline's shared primitives: one drop-queue, one connection path, one clock.

Every hop that decouples a producer from a consumer is a
:class:`BoundedQueue`: simulated device buffers, broker sessions,
bridge-out forwarders, every MQTT client's inbound queue (a bridge's client
too, so bridge-in traffic is counted), and event-bus subscriptions. ``put``
never blocks: when the queue is full it drops by policy and counts the
drop, so at every moment

    offered = delivered + dropped + pending

``Stack.queues()`` is the one walk of every queue in the in-process stack,
by name; draining, the drops by queue and the end-to-end count (readings
emitted = filed + filer errors + dead-lettered + dropped on the filer path)
all read it.

Every outbound connection (bridges, the feed handler, the router, the
simulator's uplinks, the ZigBee translator) is a :class:`Link`, whose ``up``
is set only while the connection can carry traffic. Every writer from a queue
to a connection (broker sessions, bridge-out forwarders, DataMonitor clients,
the router's routes) is a :class:`Pump`, which drains or keeps each item.
Every other queue but the device buffers feeds in-process code through a
:class:`Sink`, which handles each item as it is taken and outlives a failure.
"""

from __future__ import annotations

import asyncio
import logging
import time
from collections import deque
from typing import Awaitable, Callable, Generic, Literal, TypeVar

log = logging.getLogger(__name__)

T = TypeVar("T")
C = TypeVar("C")  # a connection: anything with ``async close()``

Overflow = Literal["drop_oldest", "drop_newest"]

BACKOFF_BASE_S = 0.5
BACKOFF_CAP_S = 30.0


def now_ms() -> int:
    """Wall-clock epoch milliseconds."""
    return time.time_ns() // 1_000_000


def parse_addr(raw: str) -> tuple[str, int]:
    """``"host:port"`` as ``(host, port)``: ValueError without a host or a 0-65535 port."""
    host, _, port = str(raw).rpartition(":")
    if not host or not (port.isascii() and port.isdigit()) or int(port) > 65535:
        raise ValueError(f"expected host:port with a port from 0 to 65535, got {raw!r}")
    return host, int(port)


class QueueClosed(Exception):
    """``get()`` on a queue that is closed and drained."""


class BoundedQueue(Generic[T]):
    """FIFO of at most ``capacity`` items whose ``put`` never blocks.

    On overflow ``drop_oldest`` evicts the head to make room and
    ``drop_newest`` refuses the new item; either way ``dropped`` counts it.
    After :meth:`close`, puts are dropped and ``get()`` raises
    :class:`QueueClosed` once the queue is empty. ``None`` is not an item.
    """

    def __init__(self, capacity: int, overflow: Overflow = "drop_oldest"):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if overflow not in ("drop_oldest", "drop_newest"):
            raise ValueError(f"bad overflow policy {overflow!r}")
        self.capacity = capacity
        self.overflow = overflow
        self.offered = 0
        self.delivered = 0
        self.dropped = 0
        self.closed = False
        self._items: deque[T] = deque()
        self._wake = asyncio.Event()

    @property
    def pending(self) -> int:
        return len(self._items)

    def conserved(self) -> bool:
        return self.offered == self.delivered + self.dropped + len(self._items)

    def put(self, item: T) -> bool:
        """Enqueue without waiting; False if this put cost an item."""
        self.offered += 1
        full = len(self._items) >= self.capacity
        if self.closed or (full and self.overflow == "drop_newest"):
            self.dropped += 1
            return False
        if full:
            self._items.popleft()
            self.dropped += 1
        self._items.append(item)
        self._wake.set()
        return not full

    def peek(self) -> T | None:
        """The oldest item without taking it, or None when empty."""
        return self._items[0] if self._items else None

    def get_nowait(self) -> T | None:
        """The oldest item, or None when empty."""
        if not self._items:
            return None
        self.delivered += 1
        return self._items.popleft()

    async def get(self) -> T:
        """Wait for the oldest item. It is taken only after the last await,
        so a cancelled or timed-out ``get()`` loses nothing."""
        items = self._items
        while not items:
            if self.closed:
                raise QueueClosed
            self._wake.clear()
            await self._wake.wait()
        self.delivered += 1
        return items.popleft()

    def close(self) -> None:
        self.closed = True
        self._wake.set()


class Pump(Generic[T]):
    """One send path from a queue to a connection.

    :meth:`run` takes an item from ``queue``, writes ``encode(item)`` to
    ``out`` (anything with ``write(bytes)`` and ``async drain()``) and awaits
    ``out.drain()``, one write per item; ``sent`` counts the items drained.
    An item taken is drained or kept: when ``encode``, ``write`` or ``drain``
    raises, or the run is cancelled, the pump holds the item and the next
    ``run`` writes it first.
    """

    def __init__(self, queue: BoundedQueue[T], encode: Callable[[T], bytes]):
        self.queue = queue
        self.encode = encode
        self.sent = 0
        self._held: T | None = None  # taken from the queue, not yet drained

    async def run(self, out) -> None:
        """Send until the queue is closed and empty; write errors propagate."""
        get, encode, write, drain = self.queue.get, self.encode, out.write, out.drain
        try:
            while True:
                if self._held is None:
                    self._held = await get()
                write(encode(self._held))
                await drain()
                self._held = None
                self.sent += 1
        except QueueClosed:
            return


class Sink:
    """One receive path from queues to in-process code.

    :meth:`run` hands each item of ``queue`` to the synchronous ``handle`` as
    soon as it is taken, in order, until the queue is closed and drained: an
    empty queue means handled. An item whose ``handle`` raises is logged with
    its traceback and counted in ``failed`` (over every queue the sink runs).
    """

    def __init__(self, name: str):
        self.name = name
        self.failed = 0

    async def run(self, queue: BoundedQueue[T], handle: Callable[[T], None]) -> None:
        try:
            while True:
                item = await queue.get()
                try:
                    handle(item)
                except Exception:
                    self.failed += 1
                    log.exception("%s: handler failed on %.200r", self.name, item)
        except QueueClosed:
            return


class Link(Generic[C]):
    """One outbound connection, kept up by :meth:`run`.

    ``connect()`` does all a connection needs before it carries traffic
    (handshakes, subscriptions), so ``up`` is set exactly while ``conn``
    (None while down) is ready. Network failures are ``OSError`` (as
    ``MqttError`` and ``WsError`` are) and ``asyncio.TimeoutError``; any
    other exception propagates.
    """

    def __init__(self, connect: Callable[[], Awaitable[C]],
                 serve: Callable[[C], Awaitable[None]]):
        self._connect = connect
        self._serve = serve
        self.conn: C | None = None
        self.up = asyncio.Event()

    async def run(self) -> None:
        """Connect, ``serve(conn)`` until it ends, close, repeat. Failed
        connects wait 0.5 s, doubling up to 30 s; the first attempt and the
        one after a lost connection run at once. Cancelling closes ``conn``."""
        delay = BACKOFF_BASE_S
        while True:
            try:
                conn = await self._connect()
            except (OSError, asyncio.TimeoutError) as exc:
                log.info("connect failed (%r); retry in %.1fs", exc, delay)
                await asyncio.sleep(delay)
                delay = min(delay * 2, BACKOFF_CAP_S)
                continue
            delay = BACKOFF_BASE_S
            self.conn = conn
            self.up.set()
            try:
                await self._serve(conn)
            except (OSError, asyncio.TimeoutError) as exc:
                log.info("connection lost (%r); reconnecting", exc)
            finally:
                self.up.clear()
                self.conn = None
                await conn.close()
