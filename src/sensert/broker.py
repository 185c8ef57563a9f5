"""QoS-0 publish/subscribe broker over TCP with broker-to-broker bridging.

One asyncio task per connection plus a synchronous routing core. The publish
path never blocks on any subscriber socket: every subscriber (client session
or bridge-out forwarder) owns a drop-oldest :class:`~sensert.pipe.BoundedQueue`
drained by its own :class:`~sensert.pipe.Pump`. Bridges connect out to a
remote broker and republish in, out, or both directions; bridge-in traffic
arrives through the bridge client's inbound queue. Loop prevention is by
ingress-link exclusion, so a message is never echoed back over the link it
arrived on. There is no retained-message store, so every routed PUBLISH goes
out with RETAIN 0 (MQTT 3.1.1, MQTT-3.3.1-9).
"""

from __future__ import annotations

import asyncio
import itertools
import json
import logging
import time
import uuid
from contextlib import suppress
from dataclasses import dataclass, field
from typing import Callable

from . import wire
from .mqtt_client import MqttClient, subscribed
from .pipe import BoundedQueue, Link, Pump, Sink, now_ms, parse_addr

log = logging.getLogger(__name__)

CONNECT_TIMEOUT_S = 10.0

# (came_over_bridge, topic, payload, epoch_ms) on every routed publish.
PublishObserver = Callable[[bool, str, bytes, int], None]


@dataclass
class BridgeRule:
    remote: str  # "host:port"
    direction: str  # "in" | "out" | "both"
    filter: str = "#"
    local_prefix: str | None = None

    def __post_init__(self):
        if self.direction not in ("in", "out", "both"):
            raise ValueError(f"bad bridge direction {self.direction!r}")
        wire.validate_filter(self.filter)
        if self.local_prefix:
            wire.validate_topic(self.local_prefix)
        self.remote_host, self.remote_port = parse_addr(self.remote)


@dataclass
class BrokerStats:
    msgs_in: int = 0
    drops: int = 0

    def snapshot(self) -> dict:
        return dict(self.__dict__)


def _publish_frame(item: tuple[str, bytes]) -> bytes:
    return wire.encode_packet(wire.Publish(*item))


class _Subscriber:
    """A routing target: a ClientSession or, used as is, a bridge's outbound
    forwarder. Queues (topic, payload) in one drop-oldest queue, which its
    pump writes as PUBLISH frames (``pump.sent`` counts them)."""

    def __init__(self, link_id: int, max_queue: int, stats: BrokerStats):
        self.link_id = link_id
        self.name = f"link:{link_id}"  # its queue's name in Broker.queues()
        # raw filter string -> pre-split levels (dict dedups by filter string)
        self.filters: dict[str, tuple[str, ...]] = {}
        self.queue: BoundedQueue[tuple[str, bytes]] = BoundedQueue(max_queue)
        self.pump = Pump(self.queue, _publish_frame)
        self._stats = stats

    def matches(self, topic_levels: tuple[str, ...]) -> bool:
        return any(wire.topic_matches(f, topic_levels) for f in self.filters.values())

    def deliver(self, topic: str, payload: bytes) -> None:
        if not self.queue.put((topic, payload)):
            self._stats.drops += 1


class ClientSession(_Subscriber):
    def __init__(self, link_id: int, client_id: str, writer: asyncio.StreamWriter | None,
                 keep_alive_s: int, max_queue: int, stats: BrokerStats):
        super().__init__(link_id, max_queue, stats)
        self.client_id = client_id
        self.name = f"session:{client_id}"
        self.writer = writer
        self.keep_alive_s = keep_alive_s
        self.last_seen = time.monotonic()
        self.writer_task: asyncio.Task | None = None

    async def run_writer(self) -> None:
        with suppress(ConnectionError, OSError):
            await self.pump.run(self.writer)

    def close(self) -> None:
        """Stop writing; frames still queued stay pending, not dropped."""
        self.queue.close()
        if self.writer_task is not None:
            self.writer_task.cancel()
        with suppress(Exception):
            self.writer.close()


class Broker:
    def __init__(self, name: str = "broker", max_session_queue: int = 1024,
                 publish_observer: PublishObserver | None = None):
        self.name = name
        self.stats = BrokerStats()
        self._max_session_queue = max_session_queue
        self._observer = publish_observer
        self._link_ids = itertools.count(1)
        self._subscribers: dict[int, _Subscriber] = {}
        self._by_client_id: dict[str, ClientSession] = {}
        self._server: asyncio.AbstractServer | None = None
        self._bridges: list[Bridge] = []
        self._tasks: list[asyncio.Task] = []
        self._anon = itertools.count(1)

    # --- lifecycle ----------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        self._server = await asyncio.start_server(self._handle_conn, host, port)
        sock = self._server.sockets[0]
        self.address = sock.getsockname()[:2]
        self._tasks.append(asyncio.create_task(self._keepalive_watchdog()))
        for bridge in self._bridges:
            bridge.start()
        log.info("broker %s listening on %s:%d", self.name, *self.address)
        return self.address

    async def stop(self) -> None:
        for bridge in self._bridges:
            await bridge.stop()
        for task in self._tasks:
            task.cancel()
        for sub in list(self._subscribers.values()):
            if isinstance(sub, ClientSession):
                self._drop_session(sub)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks.clear()

    def add_bridge(self, rule: BridgeRule) -> "Bridge":
        bridge = Bridge(self, rule)
        self._bridges.append(bridge)
        if self._server is not None:
            bridge.start()
        return bridge

    # --- routing core --------------------------------------------------------

    def route_publish(self, origin_link: int, topic: str, payload: bytes,
                      from_bridge: bool = False) -> int:
        """Deliver to every subscriber with a matching filter, at most once
        each, never back over the origin link. Returns sessions targeted."""
        self.stats.msgs_in += 1
        if self._observer is not None:
            self._observer(from_bridge, topic, payload, now_ms())
        topic_levels = tuple(topic.split("/"))
        count = 0
        for sub in list(self._subscribers.values()):
            if sub.link_id == origin_link:
                continue
            if sub.matches(topic_levels):
                sub.deliver(topic, payload)
                count += 1
        return count

    def handle_subscribe(self, sub: _Subscriber, packet: wire.Subscribe) -> wire.Suback:
        granted = []
        for raw in packet.filters:
            try:
                levels = wire.validate_filter(raw)
            except wire.InvalidFilter:
                granted.append(0x80)
                continue
            sub.filters[raw] = levels
            granted.append(0x00)
        return wire.Suback(packet_id=packet.packet_id, granted=tuple(granted))

    def register_subscriber(self, sub: _Subscriber) -> None:
        self._subscribers[sub.link_id] = sub

    def unregister_subscriber(self, sub: _Subscriber) -> None:
        self._subscribers.pop(sub.link_id, None)

    def new_link_id(self) -> int:
        return next(self._link_ids)

    @property
    def live_sessions(self) -> int:
        return len(self._by_client_id)

    def queues(self) -> list[tuple[str, BoundedQueue]]:
        """Every queue of this broker by name: each session's
        (``broker.<name>.session:<client_id>``), each bridge-out forwarder's and
        each connected bridge's client inbound queue (``bridge-out:<remote>``,
        ``bridge-in:<remote>``)."""
        prefix = f"broker.{self.name}."
        walk = [(prefix + s.name, s.queue) for s in self._subscribers.values()]
        walk += [(f"{prefix}bridge-in:{b.rule.remote}", b.link.conn.inbound)
                 for b in self._bridges if b.link.conn is not None]
        return walk

    def pending_frames(self) -> int:
        """Frames queued towards subscribers (sessions and bridges) but not yet
        written, plus bridged-in publishes not yet routed."""
        return sum(q.pending for _name, q in self.queues())

    # --- connection handling --------------------------------------------------

    async def _handle_conn(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        peer = writer.get_extra_info("peername")
        session: ClientSession | None = None
        buf = bytearray()
        try:
            connect = await asyncio.wait_for(wire.read_packet(reader, buf), CONNECT_TIMEOUT_S)
            if connect is None:
                raise ConnectionError("EOF before CONNECT")
            if not isinstance(connect, wire.Connect):
                raise wire.MalformedPacket(f"first packet must be CONNECT, got {type(connect).__name__}")
            client_id = connect.client_id or f"anon-{next(self._anon)}"
            session = ClientSession(
                self.new_link_id(), client_id, writer,
                keep_alive_s=connect.keep_alive_s,
                max_queue=self._max_session_queue, stats=self.stats)
            old = self._by_client_id.get(client_id)
            if old is not None:
                log.info("broker %s: session %s superseded", self.name, client_id)
                self._drop_session(old)
            self._by_client_id[client_id] = session
            self.register_subscriber(session)
            writer.write(wire.encode_packet(wire.Connack(return_code=0)))
            await writer.drain()
            session.writer_task = asyncio.create_task(session.run_writer())
            await self._session_loop(reader, session, buf)
        except (asyncio.TimeoutError, ConnectionError, OSError):
            pass
        except wire.MalformedPacket as exc:
            log.warning("broker %s: protocol violation from %s: %s", self.name, peer, exc)
        finally:
            if session is not None:
                self._drop_session(session)
            else:
                with suppress(Exception):
                    writer.close()

    async def _session_loop(self, reader, session: ClientSession, buf: bytearray) -> None:
        while (pkt := await wire.read_packet(reader, buf)) is not None:
            session.last_seen = time.monotonic()
            if isinstance(pkt, wire.Publish):
                self.route_publish(session.link_id, pkt.topic, pkt.payload)
            elif isinstance(pkt, wire.Subscribe):
                suback = self.handle_subscribe(session, pkt)
                session.writer.write(wire.encode_packet(suback))
                await session.writer.drain()
            elif isinstance(pkt, wire.Unsubscribe):
                for raw in pkt.filters:
                    session.filters.pop(raw, None)
                session.writer.write(wire.encode_packet(wire.Unsuback(pkt.packet_id)))
                await session.writer.drain()
            elif isinstance(pkt, wire.Pingreq):
                session.writer.write(wire.encode_packet(wire.Pingresp()))
                await session.writer.drain()
            elif isinstance(pkt, wire.Disconnect):
                return
            elif isinstance(pkt, wire.Connect):
                raise wire.MalformedPacket("duplicate CONNECT")
            # Connack/Suback/Unsuback/Pingresp from a client are ignored.

    def _drop_session(self, session: ClientSession) -> None:
        if self._by_client_id.get(session.client_id) is session:
            del self._by_client_id[session.client_id]
        self.unregister_subscriber(session)
        session.close()

    async def _keepalive_watchdog(self) -> None:
        while True:
            await asyncio.sleep(0.5)
            now = time.monotonic()
            for session in list(self._by_client_id.values()):
                if session.keep_alive_s > 0 and now - session.last_seen > 1.5 * session.keep_alive_s:
                    log.info("broker %s: keep-alive expired for %s", self.name, session.client_id)
                    self._drop_session(session)


class Bridge:
    """Maintains one client connection to the remote broker.

    Because both its in-subscription and out-forwarding share that single
    connection (one link id locally, one session remotely), ingress-link
    exclusion on either side prevents echo loops. ``link.up`` is set once
    the remote has acknowledged the in-filter. ``sink.failed`` counts
    bridged-in publishes whose routing raised.
    """

    def __init__(self, broker: Broker, rule: BridgeRule):
        self.broker = broker
        self.rule = rule
        self.link_id = broker.new_link_id()
        # one id per bridge, kept over its reconnects: brokers of one name
        # bridging to one remote must not supersede each other there
        self.client_id = f"bridge-{broker.name}-{uuid.uuid4().hex[:10]}"
        self.link: Link[MqttClient] = Link(self._open, self._serve)
        self.sink = Sink(f"bridge-in:{rule.remote}")
        # kept for the bridge's life, so its pump's publish in hand survives a reconnect
        self._out_sub: _Subscriber | None = None
        if rule.direction in ("out", "both"):
            self._out_sub = _Subscriber(self.link_id, broker._max_session_queue, broker.stats)
            self._out_sub.name = f"bridge-out:{rule.remote}"
            self._out_sub.filters[rule.filter] = wire.validate_filter(rule.filter)

    def start(self) -> None:
        if self._out_sub is not None:
            self.broker.register_subscriber(self._out_sub)
        self.link.start()

    async def stop(self) -> None:
        if self._out_sub is not None:
            self.broker.unregister_subscriber(self._out_sub)
        await self.link.stop()

    async def _open(self) -> MqttClient:
        client = await MqttClient.connect(
            self.rule.remote_host, self.rule.remote_port,
            client_id=self.client_id, keep_alive_s=30)
        if self.rule.direction == "out":
            return client
        return await subscribed(client, [self.rule.filter])

    async def _serve(self, client: MqttClient) -> None:
        """Route what the remote sends until the connection closes, forwarding
        the out-queue to it meanwhile. A failed forward closes the client,
        which ends the routing too."""
        out = self._out_sub
        forward = asyncio.create_task(out.pump.run(client)) if out is not None else None
        prefix = f"{self.rule.local_prefix}/" if self.rule.local_prefix else ""
        try:
            await self.sink.run(client.inbound, lambda item: self.broker.route_publish(
                self.link_id, prefix + item[0], item[1], from_bridge=True))
        finally:
            if forward is not None:
                forward.cancel()
                await asyncio.gather(forward, return_exceptions=True)


@dataclass
class BrokerConfig:
    listen: str = "127.0.0.1:1883"
    bridges: list[BridgeRule] = field(default_factory=list)

    def __post_init__(self):
        self.listen_host, self.listen_port = parse_addr(self.listen)

    @classmethod
    def from_json(cls, text: str) -> "BrokerConfig":
        raw = json.loads(text)
        bridges = [
            BridgeRule(
                remote=b["remote"],
                direction=b.get("direction", "in"),
                filter=b.get("filter", "#"),
                local_prefix=b.get("local_prefix"),
            )
            for b in raw.get("bridges", [])
        ]
        return cls(listen=raw.get("listen", "127.0.0.1:1883"), bridges=bridges)
