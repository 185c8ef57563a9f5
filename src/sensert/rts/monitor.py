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
                # the envelope head with its closing brace cut, then the body's bytes
                head = json.dumps({
                    "address": env.address,
                    "published_at": env.published_at,
                    "seq": env.seq,
                    "stale": env.stale,
                }, ensure_ascii=False)[:-1]
                writer.write(b"".join((head.encode("utf-8"), b', "body": ',
                                       encode_body(env.body), b"}\n")))
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
                        added = []
                        for f in req.get("filters", []):
                            if f in subs:
                                continue
                            sub = self.bus.subscribe(f, owner=f"{self.name}-client")
                            subs[f] = sub
                            pumps[f] = asyncio.create_task(pump(sub))
                            added.append(f)
                        reply({"ok": "subscribe", "filters": added})
                    elif method == "unsubscribe":
                        removed = []
                        for f in req.get("filters", []):
                            sub = subs.pop(f, None)
                            if sub is None:
                                continue
                            task = pumps.pop(f)
                            task.cancel()
                            self.bus.unsubscribe(sub)
                            removed.append(f)
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
