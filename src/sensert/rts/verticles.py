"""The stock verticles: ingestion, storage, analysis and routing."""

from __future__ import annotations

import json
import logging
import math
import os
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import partial
from pathlib import Path

from .. import wire
from ..decoders import NormalizedMessage, RawSensorMessage, default_registry
from ..mqtt_client import MqttClient, subscribed
from ..pipe import Link, Pump, now_ms, parse_addr
from .bus import BusEnvelope, DerivedEvent, SubscriptionPolicy
from .coffee import CoffeeConfig, CoffeeState, DEFAULT_CONFIG, coffee_step
from .monitor import encode_body
from .server import Verticle

log = logging.getLogger(__name__)

DAY_MS = 86_400_000  # a POSIX day: UTC days start at multiples of it


class FeedHandler(Verticle):
    """Broker -> bus: decode every arriving message and republish it (or dead-letter it)."""

    name = "feedhandler"

    def __init__(self, broker_host: str, broker_port: int):
        super().__init__()
        self.host = broker_host
        self.port = broker_port
        self.registry = default_registry()
        self.received = 0
        self.published = 0
        self.deadlettered = 0
        # up once subscribed to #; a closed client ends the sink's run, and the link reconnects
        self.link: Link[MqttClient] = Link(
            self._open, lambda client: self.sink.run(client.inbound, self._republish))

    def pending(self) -> int:
        client = self.link.conn
        return client.inbound.pending if client is not None else 0

    async def start(self, bus) -> None:
        await super().start(bus)
        self.spawn(self.link.run())

    async def _open(self) -> MqttClient:
        client = await MqttClient.connect(self.host, self.port,
                                          client_id=f"rts-{self.name}", keep_alive_s=30)
        return await subscribed(client, ["#"])

    def _republish(self, item: tuple[str, bytes, bool]) -> None:
        topic, payload, _retain = item
        self.received += 1
        raw = RawSensorMessage(topic=topic, payload=payload, received_at=now_ms())
        result = self.registry.normalize_or_deadletter(raw)
        if isinstance(result, NormalizedMessage):
            address = f"feed/{result.family}/{result.device_id}"
            self.bus.publish(address, result, publisher=self.name)
            self.published += 1
        else:
            self.bus.publish("feed/deadletter", result, publisher=self.name)
            self.deadlettered += 1


class MessageFiler(Verticle):
    """Bus -> disk: one JSON line per message, plus a latest.json snapshot.

    Layout: <data_root>/<device_id>/<YYYY>/<MM>/<DD>.jsonl with the UTC date
    taken from the reading timestamp. Each reading opens its day file, appends
    its line and closes it again, then, unless it is older than the stored
    one, writes latest.json the same way and replaces it, on plain str paths.
    The filer holds no file open between readings, so its fd use does not
    grow with the fleet. Its sink files each reading as it is taken, so once
    the queue is empty everything taken from it is on disk.

    ``errors`` counts readings whose line was not written; ``latest_errors``
    counts latest.json replacements that failed. Each failure publishes
    ``sys/filer/error`` naming the file. ``sink.failed`` counts readings whose
    filing raised anything else.
    """

    name = "messagefiler"

    def __init__(self, data_root: str | Path):
        super().__init__()
        self.data_root = Path(data_root)
        self._root = str(self.data_root)  # paths on the hot path are plain str
        self.lines_written = 0
        self.errors = 0
        self.latest_errors = 0
        self._latest_ts: dict[str, int] = {}

    async def start(self, bus) -> None:
        await super().start(bus)
        self.data_root.mkdir(parents=True, exist_ok=True)
        # readings only: feed/deadletter is counted where it is made, not here
        self.consume("feed/+/+", self._file, SubscriptionPolicy(queue_capacity=8192))

    def _file(self, env: BusEnvelope) -> None:
        msg = env.body
        if not isinstance(msg, NormalizedMessage):
            return
        path = self._day_path(msg)
        try:
            _write_file(path, os.O_APPEND, msg.encoded + b"\n")
        except OSError as exc:
            self.errors += 1
            self._report(msg, path, exc)
            return
        self.lines_written += 1
        self._write_latest(msg)

    def _day_path(self, msg: NormalizedMessage) -> str:
        day = datetime.fromtimestamp((msg.ts - msg.ts % DAY_MS) // 1000, tz=timezone.utc)
        return f"{self._root}/{msg.device_id}/{day.year:04d}/{day.month:02d}/{day.day:02d}.jsonl"

    def _write_latest(self, msg: NormalizedMessage) -> None:
        device_id = msg.device_id
        path = f"{self._root}/{device_id}/latest.json"
        known = self._latest_ts.get(device_id)
        if known is None:
            known = _stored_ts(path)
            if known is not None:
                self._latest_ts[device_id] = known
        if known is not None and msg.ts < known:
            return
        tmp = path + ".tmp"
        try:
            _write_file(tmp, os.O_TRUNC, msg.encoded)
            os.replace(tmp, path)
        except OSError as exc:
            self.latest_errors += 1
            self._report(msg, path, exc)
            return
        self._latest_ts[device_id] = msg.ts

    def _report(self, msg: NormalizedMessage, path: str, exc: OSError) -> None:
        self.bus.publish("sys/filer/error", DerivedEvent(
            event_type="filer-error", device_id=msg.device_id, ts=now_ms(),
            attributes={"reason": str(exc), "file": path},
            source_verticle=self.name), publisher=self.name)


def _write_file(path: str, flags: int, data: bytes) -> None:
    """Open ``path`` (``flags`` adds os.O_APPEND or os.O_TRUNC), write all of
    ``data`` and close it again. Missing directories are made only when the
    open says so, and the open is tried once more. os.write may write only
    part, so it is called until every byte is out. All or nothing: when a
    later call fails, the part already written is cut off the end of the file
    again, so a failed append leaves no torn line."""
    flags |= os.O_WRONLY | os.O_CREAT
    try:
        fd = os.open(path, flags, 0o666)
    except FileNotFoundError:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd = os.open(path, flags, 0o666)
    done = 0
    try:
        done = os.write(fd, data)
        while done < len(data):
            done += os.write(fd, memoryview(data)[done:])
    except OSError:
        if done:
            os.ftruncate(fd, os.fstat(fd).st_size - done)
        raise
    finally:
        os.close(fd)


def _stored_ts(path: str) -> int | None:
    """The int ts of a stored latest.json, or None when there is none."""
    try:
        with open(path, "rb") as f:
            stored = json.loads(f.read())
    except (ValueError, OSError):
        return None
    ts = stored.get("ts") if isinstance(stored, dict) else None
    return ts if isinstance(ts, int) and not isinstance(ts, bool) else None


@dataclass
class ThresholdRule:
    filter: str
    field: str
    op: str  # ">" or "<"
    value: float
    hysteresis: float = 0.0

    def __post_init__(self):
        wire.validate_filter(self.filter)  # InvalidFilter is a ValueError
        if self.op not in (">", "<"):
            raise ValueError(f"op must be > or <, got {self.op!r}")
        if not math.isfinite(self.value):
            raise ValueError(f"value must be finite, got {self.value!r}")
        if not (math.isfinite(self.hysteresis) and self.hysteresis >= 0):
            raise ValueError(f"hysteresis must be finite and >= 0, got {self.hysteresis!r}")

    @classmethod
    def from_jsonable(cls, raw: dict) -> "ThresholdRule":
        return cls(filter=raw["filter"], field=raw["field"], op=raw["op"],
                   value=float(raw["value"]), hysteresis=float(raw.get("hysteresis", 0.0)))

    def crossed(self, v: float) -> bool:
        return v > self.value if self.op == ">" else v < self.value

    def cleared(self, v: float) -> bool:
        if self.op == ">":
            return v <= self.value - self.hysteresis
        return v >= self.value + self.hysteresis


class ThresholdWatch(Verticle):
    """Edge-triggered threshold events with hysteresis on clearing.

    One subscription to the readings (``feed/+/+``) and one
    :class:`~sensert.wire.TopicTree` of rule indices, however many rules
    there are: each reading runs the rules whose filter matches its address,
    in rule order. A rule whose check raises is logged and counted in
    ``sink.failed``, and the next matched rule still runs.
    """

    name = "thresholdwatch"

    def __init__(self, rules: list[ThresholdRule]):
        super().__init__()
        self.rules = rules
        self.missing_field = 0
        self._active: dict[tuple[int, str], bool] = {}
        self._index: wire.TopicTree[int] = wire.TopicTree()
        for index, rule in enumerate(rules):
            self._index.add(wire.validate_filter(rule.filter), index)

    async def start(self, bus) -> None:
        await super().start(bus)
        self.consume("feed/+/+", self._watch, SubscriptionPolicy(queue_capacity=8192))

    def _watch(self, env: BusEnvelope) -> None:
        body = env.body
        if not isinstance(body, NormalizedMessage):
            return
        matched = self._index.match(tuple(env.address.split("/")))
        matched.sort()
        for index in matched:
            try:
                self._check(index, self.rules[index], body)
            except Exception:
                self.sink.failed += 1
                log.exception("%s: rule %d failed on %.200r", self.name, index, env)

    def _check(self, index: int, rule: ThresholdRule, body: NormalizedMessage) -> None:
        if rule.field not in body.cooked:
            self.missing_field += 1
            return
        try:
            value = float(body.cooked[rule.field])
        except (TypeError, ValueError):
            self.missing_field += 1
            return
        key = (index, body.device_id)
        active = self._active.get(key, False)
        if not active and rule.crossed(value):
            self._active[key] = True
            self._emit("threshold-crossed", rule, body, value)
        elif active and rule.cleared(value):
            self._active[key] = False
            self._emit("threshold-cleared", rule, body, value)

    def _emit(self, event_type: str, rule: ThresholdRule, msg: NormalizedMessage, value: float):
        self.bus.publish(
            f"event/threshold/{msg.device_id}",
            DerivedEvent(event_type=event_type, device_id=msg.device_id, ts=msg.ts,
                         attributes={"field": rule.field, "value": value,
                                     "op": rule.op, "threshold": rule.value},
                         source_verticle=self.name),
            publisher=self.name)


class RTCoffee(Verticle):
    """Per-device coffee detector driving the pure step function."""

    name = "rtcoffee"

    def __init__(self, config: CoffeeConfig = DEFAULT_CONFIG):
        super().__init__()
        self.config = config
        self._states: dict[str, CoffeeState] = {}
        self.events_emitted = 0

    async def start(self, bus) -> None:
        await super().start(bus)
        self.consume("feed/coffee/#", self._step)

    def _step(self, env: BusEnvelope) -> None:
        msg = env.body
        if not isinstance(msg, NormalizedMessage):
            return
        state = self._states.get(msg.device_id, CoffeeState())
        state, events = coffee_step(state, msg, self.config, source=self.name)
        self._states[msg.device_id] = state
        for event in events:
            self.bus.publish(f"event/coffee/{msg.device_id}", event, publisher=self.name)
            self.events_emitted += 1


@dataclass
class RouteRule:
    filter: str
    remote: str  # "host:port"
    topic_template: str = "normalized/{address}"

    def __post_init__(self):
        self.remote_host, self.remote_port = parse_addr(self.remote)
        try:  # every address is a bus topic, so a sample one stands for all
            wire.validate_topic(self.topic_template.format(address="feed/x/y"))
        except (KeyError, IndexError, AttributeError) as exc:
            raise ValueError(f"bad topic template {self.topic_template!r}: {exc!r}") from None

    def frame(self, env: BusEnvelope) -> bytes:
        """An envelope as the PUBLISH frame this route sends."""
        return wire.encode_packet(wire.Publish(
            self.topic_template.format(address=env.address), encode_body(env.body)))

    @classmethod
    def from_jsonable(cls, raw: dict) -> "RouteRule":
        return cls(filter=raw["filter"], remote=raw["remote"],
                   topic_template=raw.get("topic_template", "normalized/{address}"))


class MessageRouter(Verticle):
    """Bus -> remote broker: share matching envelopes with a peer system.

    Each route is a subscription, a :class:`~sensert.pipe.Pump` and a
    :class:`~sensert.pipe.Link`, kept for the router's life. Envelopes buffer
    in the subscription queue (10k, drop-oldest) while the remote is down and
    flush in order once it returns, the one in hand at the drop first.
    ``forwarded`` counts envelopes written and drained over all routes.
    """

    name = "messagerouter"

    def __init__(self, routes: list[RouteRule]):
        super().__init__()
        self.routes = routes
        self.pumps: list[Pump] = []  # one per route, in order
        self.links: list[Link[MqttClient]] = []

    @property
    def forwarded(self) -> int:
        return sum(pump.sent for pump in self.pumps)

    async def start(self, bus) -> None:
        await super().start(bus)
        for index, route in enumerate(self.routes):
            sub = self.subscribe(route.filter, SubscriptionPolicy(queue_capacity=10_000))
            self.pumps.append(Pump(sub.queue, route.frame))
            # one client id per route: two routes to one peer must not supersede each other
            connect = partial(MqttClient.connect, route.remote_host, route.remote_port,
                              client_id=f"rts-router-{id(self) & 0xFFFF}-{index}",
                              keep_alive_s=30)
            self.links.append(Link(connect, self.pumps[-1].run))
            self.spawn(self.links[-1].run())
