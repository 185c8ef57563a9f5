"""DataMonitor: newline-delimited JSON push protocol for outside clients.

Client sends ``{"method": "subscribe", "filters": [...]}`` lines; the server
pushes ``{"address": ..., "published_at": N, "body": {...}}`` lines, one JSON
object per line, UTF-8. Each client filter maps to its own bus subscription,
so a stalled reader only ever fills (and drops from) its own queues.
"""

from __future__ import annotations

import asyncio
import json
import logging
from typing import Any

from .. import wire
from ..decoders import DeadLetter, NormalizedMessage
from .bus import DerivedEvent, Subscription
from .server import Verticle

log = logging.getLogger(__name__)


def body_to_jsonable(body: Any) -> Any:
    if isinstance(body, (NormalizedMessage, DerivedEvent, DeadLetter)):
        return body.to_jsonable()
    return body


def encode_body(body: Any) -> bytes:
    """A bus body as UTF-8 JSON: a NormalizedMessage's own cached bytes."""
    if isinstance(body, NormalizedMessage):
        return body.encoded
    return json.dumps(body_to_jsonable(body), ensure_ascii=False).encode("utf-8")


def filter_list(req: dict) -> list[str]:
    """A request's ``filters``, which must be a list of strings."""
    filters = req.get("filters", [])
    if not isinstance(filters, list) or not all(isinstance(f, str) for f in filters):
        raise ValueError("filters must be a list of strings")
    return filters


class DataMonitor(Verticle):
    name = "datamonitor"

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        super().__init__()
        self.host = host
        self.port = port
        self.address: tuple[str, int] | None = None
        self.clients_served = 0
        self._server: asyncio.AbstractServer | None = None
        self._conns: dict[asyncio.Task, asyncio.StreamWriter] = {}  # handler -> its client

    async def start(self, bus) -> None:
        await super().start(bus)
        self._server = await asyncio.start_server(self._handle, self.host, self.port,
                                                  limit=1 << 20)
        self.address = self._server.sockets[0].getsockname()[:2]
        log.info("datamonitor listening on %s:%d", *self.address)

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # the server's wait_closed does not wait for its connections: end each
        # one here, so its handler closes its socket before the loop is gone
        for writer in self._conns.values():
            writer.transport.abort()
        await asyncio.gather(*self._conns, return_exceptions=True)
        await super().stop()

    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self.clients_served += 1
        me = asyncio.current_task()
        self._conns[me] = writer
        subs: dict[str, Subscription] = {}
        pumps: dict[str, asyncio.Task] = {}

        async def pump(sub: Subscription) -> None:
            while True:
                env = await sub.get()
                # the envelope head, formatted as json.dumps would, then the body's bytes
                head = (f'{{"address": {json.dumps(env.address, ensure_ascii=False)}, '
                        f'"published_at": {env.published_at}, "seq": {env.seq}, '
                        f'"stale": false, "body": ')
                writer.write(b"".join((head.encode("utf-8"), encode_body(env.body), b"}\n")))
                await writer.drain()

        def reply(obj: dict) -> None:
            writer.write((json.dumps(obj) + "\n").encode("utf-8"))

        try:
            while True:
                raw = await reader.readline()
                if not raw:
                    return
                try:
                    req = json.loads(raw.decode("utf-8"))
                    if not isinstance(req, dict):
                        raise ValueError("request must be a JSON object")
                    method = req.get("method")
                    if method == "subscribe":
                        filters = filter_list(req)
                        for f in filters:  # all valid, or none subscribed
                            wire.validate_filter(f)
                        added = [f for f in dict.fromkeys(filters) if f not in subs]
                        for f in added:
                            subs[f] = self.bus.subscribe(f, owner=f"{self.name}-client")
                            pumps[f] = asyncio.create_task(pump(subs[f]))
                        reply({"ok": "subscribe", "filters": added})
                    elif method == "unsubscribe":
                        removed = [f for f in dict.fromkeys(filter_list(req)) if f in subs]
                        for f in removed:
                            pumps.pop(f).cancel()
                            self.bus.unsubscribe(subs.pop(f))
                        reply({"ok": "unsubscribe", "filters": removed})
                    else:
                        raise ValueError(f"unknown method {method!r}")
                except (ValueError, KeyError, TypeError) as exc:
                    reply({"error": str(exc)})
                await writer.drain()
        except (ConnectionError, OSError, asyncio.LimitOverrunError, ValueError):
            pass  # oversized/garbled request line: drop the connection quietly
        finally:
            # everything but the last line is synchronous: a second cancel
            # during the await below must not leave the socket open
            del self._conns[me]
            for task in pumps.values():
                task.cancel()
            for sub in subs.values():
                self.bus.unsubscribe(sub)
            try:
                writer.close()
            except Exception:
                pass
            await asyncio.gather(*pumps.values(), return_exceptions=True)


class MonitorClient:
    """Line-protocol client used by tests, the bench harness and the demo."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self._reader = reader
        self._writer = writer

    @classmethod
    async def connect(cls, host: str, port: int, timeout: float = 5.0) -> "MonitorClient":
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(host, port, limit=1 << 20), timeout)
        return cls(reader, writer)

    async def send(self, obj: dict) -> None:
        self._writer.write((json.dumps(obj) + "\n").encode("utf-8"))
        await self._writer.drain()

    async def subscribe(self, filters: list[str]) -> dict:
        await self.send({"method": "subscribe", "filters": filters})
        return await self.next(timeout=5.0)

    async def unsubscribe(self, filters: list[str]) -> dict:
        await self.send({"method": "unsubscribe", "filters": filters})
        return await self.next(timeout=5.0)

    async def next(self, timeout: float | None = None) -> dict:
        if timeout is None:
            raw = await self._reader.readline()
        else:
            raw = await asyncio.wait_for(self._reader.readline(), timeout)
        if not raw:
            raise ConnectionError("monitor connection closed")
        return json.loads(raw.decode("utf-8"))

    async def close(self) -> None:
        try:
            self._writer.close()
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass
