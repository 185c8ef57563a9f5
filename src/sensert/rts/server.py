"""Verticle deployment: isolated stream-processor tasks sharing one bus."""

from __future__ import annotations

import asyncio
import logging

from ..pipe import Link, Sink
from .bus import EventBus, Subscription

log = logging.getLogger(__name__)


class Verticle:
    """An independently deployable actor.

    Subclasses override :meth:`start` to create subscriptions (via
    ``self.subscribe``), spawn tasks (via ``self.spawn``) and start the Links
    in ``self.links``; all end on undeploy, links first, without touching any
    other verticle's queues. Queued items reach its code through its one
    :class:`~sensert.pipe.Sink` (``self.consume``): ``sink.failed`` counts
    every item that raised.
    """

    name = "verticle"

    def __init__(self):
        self.bus: EventBus | None = None
        self._tasks: list[asyncio.Task] = []
        self._subs: list[Subscription] = []
        self.links: list[Link] = []
        self.sink = Sink(self.name)

    async def start(self, bus: EventBus) -> None:
        self.bus = bus

    async def stop(self) -> None:
        await asyncio.gather(*(link.stop() for link in self.links))
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks.clear()
        if self.bus is not None:
            for sub in self._subs:
                self.bus.unsubscribe(sub)
        self._subs.clear()

    def subscribe(self, filter_raw: str, policy=None) -> Subscription:
        assert self.bus is not None, "verticle not started"
        sub = self.bus.subscribe(filter_raw, policy, owner=self.name)
        self._subs.append(sub)
        return sub

    def consume(self, filter_raw: str, handle, policy=None) -> None:
        """Subscribe and hand every envelope to ``handle`` through the sink."""
        self.spawn(self.sink.run(self.subscribe(filter_raw, policy).queue, handle))

    def spawn(self, coro) -> asyncio.Task:
        task = asyncio.create_task(coro)
        self._tasks.append(task)
        return task


class RealTimeServer:
    """Holds the bus and the set of deployed verticles."""

    def __init__(self, bus: EventBus | None = None):
        self.bus = bus or EventBus()
        self._verticles: list[Verticle] = []

    async def deploy(self, verticle: Verticle) -> Verticle:
        await verticle.start(self.bus)
        self._verticles.append(verticle)
        log.info("deployed verticle %s", verticle.name)
        return verticle

    async def undeploy(self, verticle: Verticle) -> None:
        if verticle in self._verticles:
            self._verticles.remove(verticle)
        await verticle.stop()
        log.info("undeployed verticle %s", verticle.name)

    async def stop(self) -> None:
        for verticle in list(reversed(self._verticles)):
            await verticle.stop()
        self._verticles.clear()

    @property
    def verticles(self) -> list[Verticle]:
        return list(self._verticles)
