"""The pipeline's shared primitives: one drop-queue, one reconnect policy, one clock.

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
simulator's uplinks, the ZigBee translator) is (re)established through
:func:`connect_with_backoff`.
"""

from __future__ import annotations

import asyncio
import logging
import time
from collections import deque
from typing import Awaitable, Callable, Generic, Literal, TypeVar

log = logging.getLogger(__name__)

T = TypeVar("T")

Overflow = Literal["drop_oldest", "drop_newest"]

BACKOFF_BASE_S = 0.5
BACKOFF_CAP_S = 30.0


def now_ms() -> int:
    """Wall-clock epoch milliseconds."""
    return time.time_ns() // 1_000_000


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


async def connect_with_backoff(connect: Callable[[], Awaitable[T]]) -> T:
    """Await ``connect()`` until it succeeds.

    The first attempt runs at once; after each failure wait 0.5 s, doubling
    per consecutive failure up to 30 s.
    """
    delay = BACKOFF_BASE_S
    while True:
        try:
            return await connect()
        except (ConnectionError, OSError, asyncio.TimeoutError) as exc:
            log.info("connect failed (%r); retry in %.1fs", exc, delay)
        await asyncio.sleep(delay)
        delay = min(delay * 2, BACKOFF_CAP_S)
