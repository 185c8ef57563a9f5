"""µs per call of each layer, from the workload's own readings.

The benchmark times calls into each module's public functions from its own
files; nothing is instrumented inside the program. Each replay feeds the
readings a traced session sent (topic, payload) through the layer's entry
point, in send order, and reports the median over a few passes of the mean
cost per call.
"""

from __future__ import annotations

import asyncio
import json
import time
from pathlib import Path

from sensert import wire
from sensert.broker import Broker, BrokerStats, ClientSession
from sensert.decoders import NormalizedMessage, RawSensorMessage, default_registry
from sensert.rts.bus import EventBus, SubscriptionPolicy
from sensert.rts.coffee import CoffeeState, coffee_step
from sensert.rts.monitor import body_to_jsonable
from sensert.rts.verticles import MessageFiler, ThresholdRule

PASSES = 5


def per_call_us(fn, items) -> float:
    """Median over PASSES of the mean µs per call of fn over items."""
    costs = []
    for _ in range(PASSES):
        t0 = time.perf_counter_ns()
        for item in items:
            fn(item)
        costs.append((time.perf_counter_ns() - t0) / len(items) / 1e3)
    return sorted(costs)[PASSES // 2]


def feed_address(msg: NormalizedMessage) -> str:
    return f"feed/{msg.family}/{msg.device_id}"


def live_bus(rules: list[ThresholdRule], capacity: int) -> EventBus:
    """A bus with the subscriptions the stack has for this workload."""
    bus = EventBus()
    policy = SubscriptionPolicy(queue_capacity=capacity)
    for flt in ["feed/#"] + [r.filter for r in rules] + ["feed/coffee/#", "feed/#", "event/#"]:
        bus.subscribe(flt, policy)
    return bus


def local_broker(n: int) -> Broker:
    """The local broker's sessions: the feedhandler on '#' and two idle uplinks."""
    broker = Broker(name="replay", max_session_queue=n + 1)
    for link, filters in ((1, {"#": ("#",)}), (2, {}), (3, {})):
        session = ClientSession(link, f"s{link}", writer=None, keep_alive_s=0,
                                max_queue=n + 1, stats=BrokerStats())
        session.filters.update(filters)
        broker.register_subscriber(session)
    return broker


async def filer_us(msgs: list[NormalizedMessage], data_root: Path) -> float:
    """A MessageFiler driven through a bus: µs per message until all are on disk."""
    bus = EventBus()
    filer = MessageFiler(data_root)
    await filer.start(bus)
    try:
        t0 = time.perf_counter_ns()
        for msg in msgs:
            bus.publish(feed_address(msg), msg)
        while filer.lines_written < len(msgs):
            await asyncio.sleep(0)
        return (time.perf_counter_ns() - t0) / len(msgs) / 1e3
    finally:
        await filer.stop()


async def replay_layers(samples: list[tuple[str, bytes]], rules: list[ThresholdRule],
                        scratch: Path) -> dict:
    now = time.time_ns() // 1_000_000
    publishes = [wire.Publish(topic, payload) for topic, payload in samples]
    frames = [wire.encode_packet(p) for p in publishes]
    raws = [RawSensorMessage(topic, payload, now) for topic, payload in samples]
    registry = default_registry()
    msgs = [m for m in map(registry.normalize_or_deadletter, raws)
            if isinstance(m, NormalizedMessage)]
    addresses = [feed_address(m) for m in msgs]

    broker = local_broker(len(samples) * PASSES)
    bus = live_bus(rules, len(msgs) * PASSES + 1)

    def bus_publish(msg):
        bus.publish(feed_address(msg), msg)

    def route(publish):
        broker.route_publish(0, publish.topic, publish.payload)

    def serialize(msg):
        json.dumps({"address": feed_address(msg), "published_at": now, "seq": 1,
                    "stale": False, "body": body_to_jsonable(msg)},
                   ensure_ascii=False).encode("utf-8")

    coffee = [m for m in msgs if m.family == "coffee"]
    states: dict[str, CoffeeState] = {}

    def step(msg):
        states[msg.device_id] = coffee_step(states.get(msg.device_id, CoffeeState()), msg)[0]

    return {
        "wire.decode_us": (per_call_us(wire.decode_packet, frames), "us"),
        "wire.encode_us": (per_call_us(wire.encode_packet, publishes), "us"),
        "wire.validate_topic_us": (per_call_us(wire.validate_topic, addresses), "us"),
        "broker.route_us": (per_call_us(route, publishes), "us"),
        "decoders.normalize_us": (per_call_us(registry.normalize_or_deadletter, raws), "us"),
        "rts.bus.publish_us": (per_call_us(bus_publish, msgs), "us"),
        "rts.verticles.filer.file_us": (await filer_us(msgs, scratch), "us"),
        "rts.coffee.step_us": (per_call_us(step, coffee) if coffee else 0.0, "us"),
        "rts.monitor.serialize_us": (per_call_us(serialize, msgs), "us"),
    }
