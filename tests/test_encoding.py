"""One encoding per reading: the filer, latest.json, router and DataMonitor
write the bytes `DecoderRegistry.normalize` made, and nothing encodes again."""

import asyncio
import json

from sensert.broker import Broker
from sensert.decoders import DeadLetter, NormalizedMessage
from sensert.mqtt_client import MqttClient
from sensert.rts import RealTimeServer
from sensert.rts.bus import DerivedEvent
from sensert.rts.monitor import DataMonitor, body_to_jsonable
from sensert.rts.verticles import FeedHandler, MessageFiler, MessageRouter, RouteRule

TS = 1_590_998_400_000  # 2020-06-01T08:00:00Z


def run(coro):
    return asyncio.run(coro)


# --- the construction each hop used before the encoding was shared ---------------------

def reference_record(msg: NormalizedMessage) -> bytes:
    return json.dumps(msg.to_jsonable(), ensure_ascii=False).encode("utf-8")


def reference_monitor_line(line: dict, body) -> bytes:
    return (json.dumps({
        "address": line["address"],
        "published_at": line["published_at"],
        "seq": line["seq"],
        "stale": line["stale"],
        "body": body_to_jsonable(body),
    }, ensure_ascii=False) + "\n").encode("utf-8")


async def raw_monitor(address, filters):
    """A DataMonitor connection read as raw lines, subscribed to filters."""
    reader, writer = await asyncio.open_connection(*address)
    writer.write((json.dumps({"method": "subscribe", "filters": filters}) + "\n").encode())
    await writer.drain()
    assert json.loads(await asyncio.wait_for(reader.readline(), 3))["ok"] == "subscribe"
    return reader, writer


async def wait_until(predicate, timeout=3.0):
    for _ in range(int(timeout / 0.01)):
        if predicate():
            return
        await asyncio.sleep(0.01)
    assert predicate()


def test_golden_bytes_for_every_hop(tmp_path):
    """Day line, latest.json, monitor line and router payload keep the bytes
    each hop made on its own; only the router's event and dead-letter
    payloads change, from escaped ASCII to UTF-8."""
    readings = [
        NormalizedMessage("küche-1", TS, "ttn", {"room": "Küche ☕", "co2": 700},
                          "{\"note\": \"é\"}".encode(), TS, 5),
        NormalizedMessage("küche-1", TS + 1000, "ttn", {"room": "Küche ☕", "co2": 710},
                          b"\xff\xfe raw", TS + 1000, None),
    ]
    assert "original_b64" in readings[1].to_jsonable()
    event = DerivedEvent("threshold-crossed", "küche-1", TS, {"field": "co2", "note": "→"},
                         "thresholdwatch")
    dead = DeadLetter("tele/größe/SENSOR", b"\xff", TS, "no decoder for 'größe'")
    bodies = [("feed/ttn/küche-1", readings[0]), ("feed/ttn/küche-1", readings[1]),
              ("event/threshold/küche-1", event), ("feed/deadletter", dead)]

    async def main():
        peer = Broker(name="peer")
        await peer.start("127.0.0.1", 0)
        routed = await MqttClient.connect(*peer.address)
        await routed.subscribe(["normalized/#"])
        rts = RealTimeServer()
        filer = MessageFiler(tmp_path)
        monitor = DataMonitor()
        await rts.deploy(filer)
        await rts.deploy(monitor)
        router = MessageRouter([RouteRule(filter="#", remote=f"127.0.0.1:{peer.address[1]}")])
        await rts.deploy(router)
        reader, writer = await raw_monitor(monitor.address, ["#"])
        await asyncio.wait_for(router.links[0].up.wait(), 10)

        for address, body in bodies:
            rts.bus.publish(address, body)
        lines = [await asyncio.wait_for(reader.readline(), 3) for _ in bodies]
        payloads = [(await routed.next_message(timeout=3))[:2] for _ in bodies]
        await wait_until(lambda: filer.lines_written == 2)

        day = tmp_path / "küche-1" / "2020" / "06" / "01.jsonl"
        assert day.read_bytes() == b"".join(reference_record(m) + b"\n" for m in readings)
        latest = (tmp_path / "küche-1" / "latest.json").read_bytes()
        assert latest == reference_record(readings[1])
        for raw, (address, body) in zip(lines, bodies):
            line = json.loads(raw)
            assert line["address"] == address
            assert raw == reference_monitor_line(line, body)
        assert payloads == [
            ("normalized/feed/ttn/küche-1", reference_record(readings[0])),
            ("normalized/feed/ttn/küche-1", reference_record(readings[1])),
            ("normalized/event/threshold/küche-1",
             json.dumps(event.to_jsonable(), ensure_ascii=False).encode("utf-8")),
            ("normalized/feed/deadletter",
             json.dumps(dead.to_jsonable(), ensure_ascii=False).encode("utf-8")),
        ]
        assert "→".encode() in payloads[2][1] and "größe".encode() in payloads[3][1]

        writer.close()
        await routed.close()
        await rts.stop()
        await peer.stop()

    run(main())


def test_each_reading_is_encoded_once(tmp_path, monkeypatch):
    """Through the FeedHandler to a filer, two monitor clients on feed/# and
    one router, each reading's record is built once."""
    calls = []
    to_jsonable = NormalizedMessage.to_jsonable

    def counting(self):
        calls.append((self.device_id, self.ts))
        return to_jsonable(self)

    monkeypatch.setattr(NormalizedMessage, "to_jsonable", counting)
    n = 20

    async def main():
        local = Broker(name="local")
        await local.start("127.0.0.1", 0)
        peer = Broker(name="peer")
        await peer.start("127.0.0.1", 0)
        routed = await MqttClient.connect(*peer.address)
        await routed.subscribe(["normalized/#"])
        rts = RealTimeServer()
        filer = MessageFiler(tmp_path)
        monitor = DataMonitor()
        await rts.deploy(FeedHandler(*local.address))
        await rts.deploy(filer)
        await rts.deploy(monitor)
        await rts.deploy(MessageRouter([
            RouteRule(filter="feed/#", remote=f"127.0.0.1:{peer.address[1]}")]))
        clients = [await raw_monitor(monitor.address, ["feed/#"]) for _ in range(2)]
        await asyncio.sleep(0.3)

        pub = await MqttClient.connect(*local.address)
        for i in range(n):
            await pub.publish("tele/p1/SENSOR", json.dumps(
                {"Time": TS + i * 1000, "ENERGY": {"Power": float(i)}}).encode())
        for reader, _writer in clients:
            for _ in range(n):
                await asyncio.wait_for(reader.readline(), 3)
        for _ in range(n):
            await routed.next_message(timeout=3)
        await wait_until(lambda: filer.lines_written == n)

        for _reader, writer in clients:
            writer.close()
        await pub.close()
        await routed.close()
        await rts.stop()
        await peer.stop()
        await local.stop()

    run(main())
    assert sorted(calls) == [("p1", TS + i * 1000) for i in range(n)]


def test_unencodable_value_is_deadlettered_and_stream_goes_on(tmp_path):
    """A lone surrogate in a reading's value is dead-lettered; the filer and a
    monitor client still get the next reading."""

    async def main():
        broker = Broker()
        await broker.start("127.0.0.1", 0)
        rts = RealTimeServer()
        dead_sub = rts.bus.subscribe("feed/deadletter")
        filer = MessageFiler(tmp_path)
        monitor = DataMonitor()
        await rts.deploy(FeedHandler(*broker.address))
        await rts.deploy(filer)
        await rts.deploy(monitor)
        reader, writer = await raw_monitor(monitor.address, ["feed/+/+"])
        await asyncio.sleep(0.3)

        pub = await MqttClient.connect(*broker.address)
        await pub.publish("v3/app/devices/lora-1/up", json.dumps({
            "end_device_ids": {"device_id": "lora-1"},
            "uplink_message": {"decoded_payload": {"note": "\ud800"}}}).encode())
        env = await asyncio.wait_for(dead_sub.get(), 3)
        assert "not encodable" in env.body.reason
        env.body.reason.encode("utf-8")  # the dead letter itself stays encodable

        await pub.publish("tele/p1/SENSOR", json.dumps(
            {"Time": "2020-06-01T10:00:00Z", "ENERGY": {"Power": 3.0}}).encode())
        line = json.loads(await asyncio.wait_for(reader.readline(), 3))
        assert (line["address"], line["body"]["cooked"]["power_w"]) == ("feed/smartplug/p1", 3.0)
        await wait_until(lambda: filer.lines_written == 1)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["p1"]

        writer.close()
        await pub.close()
        await rts.stop()
        await broker.stop()

    run(main())
