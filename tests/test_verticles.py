"""Verticle behaviour against live brokers and the bus."""

import asyncio
import json
import os
import subprocess
import sys

import pytest

from sensert.broker import Broker
from sensert.decoders import NormalizedMessage
from sensert.mqtt_client import MqttClient
from sensert.rts import RealTimeServer
from sensert.rts.monitor import DataMonitor, MonitorClient
from sensert.rts.verticles import (
    FeedHandler,
    MessageFiler,
    MessageRouter,
    RouteRule,
    RTCoffee,
    ThresholdRule,
    ThresholdWatch,
)


def run(coro):
    return asyncio.run(coro)


def plug_msg(device="d1", ts=1_600_000_000_000, **cooked):
    cooked = cooked or {"power_w": 1.0}
    return NormalizedMessage(device, ts, "smartplug", cooked, b"{}", ts)


# --- feedhandler -----------------------------------------------------------------

def test_feedhandler_decodes_and_addresses():
    async def main():
        broker = Broker()
        await broker.start("127.0.0.1", 0)
        rts = RealTimeServer()
        plug_sub = rts.bus.subscribe("feed/smartplug/plug-17")
        dead_sub = rts.bus.subscribe("feed/deadletter")
        fh = FeedHandler(*broker.address)
        await rts.deploy(fh)
        await asyncio.sleep(0.3)

        pub = await MqttClient.connect(*broker.address)
        await pub.publish("tele/plug-17/SENSOR", json.dumps(
            {"ENERGY": {"Power": 42.0}}).encode())
        env = await asyncio.wait_for(plug_sub.get(), 3)
        assert env.body.device_id == "plug-17"
        assert env.body.cooked["power_w"] == 42.0

        await pub.publish("mystery/topic", b"{}")
        env = await asyncio.wait_for(dead_sub.get(), 3)
        assert env.address == "feed/deadletter"
        assert fh.received == 2
        assert fh.published == 1
        assert fh.deadlettered == 1

        await pub.close()
        await rts.stop()
        await broker.stop()

    run(main())


def test_feedhandler_counting_1000():
    async def main():
        broker = Broker()
        await broker.start("127.0.0.1", 0)
        rts = RealTimeServer()
        sub = rts.bus.subscribe("feed/#", owner="counter")
        fh = FeedHandler(*broker.address)
        await rts.deploy(fh)
        await asyncio.sleep(0.3)

        pub = await MqttClient.connect(*broker.address)
        n = 1000
        for i in range(n):
            await pub.publish("tele/p/SENSOR", b'{"ENERGY": {"Power": 1}}')
        count = 0
        try:
            while count < n:
                await asyncio.wait_for(sub.get(), 2)
                count += 1
        except asyncio.TimeoutError:
            pass
        assert count == n
        assert fh.received == n
        assert fh.published + fh.deadlettered == n

        await pub.close()
        await rts.stop()
        await broker.stop()

    run(main())


def test_rts_stop_returns_when_the_feedhandler_connect_swallows_the_cancel(monkeypatch):
    """The stop's cancel lands in the feed handler's connect, which swallows
    it (as asyncio.wait_for can) and returns a client: the stop still returns."""
    real_connect = MqttClient.connect
    held, swallowed = asyncio.Event(), []

    async def connect(*args, **kwargs):
        client = await real_connect(*args, **kwargs)
        if kwargs.get("client_id") == "rts-feedhandler" and not swallowed:
            held.set()
            try:
                await asyncio.Event().wait()
            except asyncio.CancelledError:
                swallowed.append(True)
        return client

    monkeypatch.setattr(MqttClient, "connect", connect)

    async def main():
        broker = Broker()
        await broker.start("127.0.0.1", 0)
        rts = RealTimeServer()
        fh = FeedHandler(*broker.address)
        await rts.deploy(fh)
        await asyncio.wait_for(held.wait(), 5)
        await asyncio.wait_for(rts.stop(), 5)
        assert swallowed and not fh.link.up.is_set() and fh.link.conn is None
        for _ in range(100):  # the client made after the cancel was closed
            if broker.live_sessions == 0:
                break
            await asyncio.sleep(0.01)
        assert broker.live_sessions == 0
        await broker.stop()

    run(main())


def test_feedhandler_reconnects_after_broker_restart():
    async def main():
        broker = Broker()
        host, port = await broker.start("127.0.0.1", 0)
        rts = RealTimeServer()
        sub = rts.bus.subscribe("feed/#")
        fh = FeedHandler(host, port)
        await rts.deploy(fh)
        await asyncio.wait_for(fh.link.up.wait(), 10)
        await broker.stop()
        for _ in range(1000):  # up clears once the link sees the connection end
            if not fh.link.up.is_set():
                break
            await asyncio.sleep(0.01)
        assert not fh.link.up.is_set()
        broker2 = Broker()
        await broker2.start(host, port)
        await asyncio.wait_for(fh.link.up.wait(), 30)  # after the reconnect backoff

        pub = await MqttClient.connect(host, port)
        await pub.publish("tele/p/SENSOR", b'{"ENERGY": {"Power": 1}}')
        env = await asyncio.wait_for(sub.get(), 3)
        assert env.body.cooked["power_w"] == 1.0
        await pub.close()
        await rts.stop()
        await broker2.stop()

    run(main())


@pytest.mark.parametrize("bad_time", [-5, -10**15])
def test_non_positive_reading_time_is_deadlettered(tmp_path, bad_time):
    """A bad reading time must not kill the filer's or the watch's task."""

    async def main():
        broker = Broker()
        await broker.start("127.0.0.1", 0)
        rts = RealTimeServer()
        dead_sub = rts.bus.subscribe("feed/deadletter")
        events = rts.bus.subscribe("event/threshold/#")
        filer = MessageFiler(tmp_path)
        await rts.deploy(FeedHandler(*broker.address))
        await rts.deploy(filer)
        await rts.deploy(ThresholdWatch([ThresholdRule("feed/smartplug/#", "power_w", "<", 1.0)]))
        await asyncio.sleep(0.3)

        pub = await MqttClient.connect(*broker.address)
        await pub.publish("tele/p1/SENSOR", json.dumps(
            {"Time": bad_time, "ENERGY": {"Power": 0.0}}).encode())
        env = await asyncio.wait_for(dead_sub.get(), 3)
        assert "not positive" in env.body.reason

        await pub.publish("tele/p1/SENSOR", json.dumps(
            {"Time": "2020-06-01T10:00:00Z", "ENERGY": {"Power": 0.0}}).encode())
        env = await asyncio.wait_for(events.get(), 3)
        assert env.body.event_type == "threshold-crossed"
        for _ in range(100):
            if filer.lines_written:
                break
            await asyncio.sleep(0.01)
        assert filer.lines_written == 1
        assert (tmp_path / "p1" / "2020" / "06" / "01.jsonl").exists()

        await pub.close()
        await rts.stop()
        await broker.stop()

    run(main())


_RECEIVED_AT = {"Time": "2020-06-01T10:00:00Z", "received_at": "2020-06-01T10:00:00Z"}


_NORMALIZED = {"device_id": "n1", "ts": 1_590_998_400_000, "family": "smartplug",
               "cooked": {"power_w": 1.0}, "received_at": 1}


def _bad_level_cases():
    rows = {
        "plug-topic": ("tele/{device}/SENSOR", {"ENERGY": {"Power": 1.0}}),
        "ttn-device_id": ("v3/app/devices/x/up", {"end_device_ids": {"device_id": "{device}"}}),
        "zigbee-id": ("zigbee/x/state", {"id": "{device}", "state": {"presence": True}}),
    }
    for row, (topic, payload) in rows.items():
        # a topic level cannot hold `/`, a wildcard, NUL or a lone surrogate
        in_body = ["a/b", "a+b", "#", "a\x00b", "\ud800"] if row != "plug-topic" else []
        for device in [".", ".."] + in_body:
            body = json.dumps({**payload, **_RECEIVED_AT}).replace(
                "{device}", json.dumps(device)[1:-1])
            yield pytest.param(topic.format(device=device), body, f"device id {device!r}",
                               id=f"{row}-{device}")
    yield pytest.param("normalized/x", json.dumps({**_NORMALIZED, "device_id": 7}),
                       "device id 7", id="normalized-int-device_id")
    yield pytest.param("normalized/x", json.dumps({**_NORMALIZED, "family": "a+b"}),
                       "family 'a+b'", id="normalized-plus-family")


@pytest.mark.parametrize("topic,body,reason", _bad_level_cases())
def test_path_device_id_is_deadlettered(tmp_path, topic, body, reason):
    """A device id names a directory under the data root and, like the
    family, one bus-address level: an id or family that cannot be one level
    must be dead-lettered and must not end the stream."""

    async def main():
        root = tmp_path / "root"
        broker = Broker()
        await broker.start("127.0.0.1", 0)
        rts = RealTimeServer()
        dead_sub = rts.bus.subscribe("feed/deadletter")
        filer = MessageFiler(root)
        await rts.deploy(FeedHandler(*broker.address))
        await rts.deploy(filer)
        await asyncio.sleep(0.3)

        pub = await MqttClient.connect(*broker.address)
        await pub.publish(topic, body.encode())
        env = await asyncio.wait_for(dead_sub.get(), 3)
        assert reason in env.body.reason

        await pub.publish("tele/p1/SENSOR", json.dumps(
            {"Time": "2020-06-01T10:00:00Z", "ENERGY": {"Power": 0.0}}).encode())
        for _ in range(100):
            if filer.lines_written:
                break
            await asyncio.sleep(0.01)
        assert filer.lines_written == 1
        assert [p.name for p in tmp_path.iterdir()] == ["root"]
        assert [p.name for p in root.iterdir()] == ["p1"]

        await pub.close()
        await rts.stop()
        await broker.stop()

    run(main())


# --- messagefiler -----------------------------------------------------------------

def test_filer_paths_and_latest(tmp_path):
    async def main():
        rts = RealTimeServer()
        filer = MessageFiler(tmp_path)
        await rts.deploy(filer)
        # 2020-06-01T08:00:00Z
        ts1 = 1_590_998_400_000
        rts.bus.publish("feed/smartplug/d1", plug_msg(ts=ts1, power_w=1.0))
        rts.bus.publish("feed/smartplug/d1", plug_msg(ts=ts1 + 1000, power_w=2.0))
        await asyncio.sleep(0.2)

        day_file = tmp_path / "d1" / "2020" / "06" / "01.jsonl"
        assert day_file.exists()
        lines = day_file.read_text().strip().splitlines()
        assert len(lines) == 2
        latest = json.loads((tmp_path / "d1" / "latest.json").read_text())
        assert latest["ts"] == ts1 + 1000
        assert filer.lines_written == 2
        await rts.stop()

    run(main())


def test_filer_latest_keeps_maximal_ts(tmp_path):
    async def main():
        rts = RealTimeServer()
        await rts.deploy(MessageFiler(tmp_path))
        ts = 1_590_998_400_000
        rts.bus.publish("feed/smartplug/d1", plug_msg(ts=ts + 5000))
        rts.bus.publish("feed/smartplug/d1", plug_msg(ts=ts))  # older
        await asyncio.sleep(0.2)
        latest = json.loads((tmp_path / "d1" / "latest.json").read_text())
        assert latest["ts"] == ts + 5000
        await rts.stop()

    run(main())


@pytest.mark.parametrize("stored", ['{"ts": null}', "[]"])
def test_filer_treats_latest_without_int_ts_as_unknown(tmp_path, stored):
    """A bad latest.json is replaced, and the filer goes on to file others."""

    async def main():
        (tmp_path / "p1").mkdir()
        (tmp_path / "p1" / "latest.json").write_text(stored)
        rts = RealTimeServer()
        filer = MessageFiler(tmp_path)
        await rts.deploy(filer)
        ts = 1_590_998_400_000
        rts.bus.publish("feed/smartplug/p1", plug_msg("p1", ts=ts))
        rts.bus.publish("feed/smartplug/p2", plug_msg("p2", ts=ts + 1000))
        for _ in range(100):
            if filer.lines_written == 2:
                break
            await asyncio.sleep(0.01)
        assert filer.lines_written == 2
        assert json.loads((tmp_path / "p1" / "latest.json").read_text())["ts"] == ts
        assert json.loads((tmp_path / "p2" / "latest.json").read_text())["ts"] == ts + 1000
        await rts.stop()

    run(main())


def test_filer_utc_date_rollover(tmp_path):
    async def main():
        rts = RealTimeServer()
        filer = MessageFiler(tmp_path)
        await rts.deploy(filer)
        before_midnight = 1_590_969_599_000  # 2020-05-31T23:59:59Z
        after_midnight = before_midnight + 2000
        rts.bus.publish("feed/smartplug/d1", plug_msg(ts=before_midnight))
        rts.bus.publish("feed/smartplug/d1", plug_msg(ts=after_midnight))
        await asyncio.sleep(0.2)
        assert (tmp_path / "d1" / "2020" / "05" / "31.jsonl").exists()
        assert (tmp_path / "d1" / "2020" / "06" / "01.jsonl").exists()
        await rts.stop()

    run(main())


def test_filer_leaves_no_file_open(tmp_path, monkeypatch):
    """Thirty days of one device: each reading opens its day file once, every
    fd the filer opens is closed again, and thirty lines land in thirty day
    files; a reading back on an earlier day is appended to that day's file."""
    real_open, real_close = os.open, os.close
    day_opens = []
    open_fds: set[int] = set()

    def open_spy(path, flags, mode=0o777, **kwargs):
        fd = real_open(path, flags, mode, **kwargs)
        if str(path).startswith(str(tmp_path)):
            open_fds.add(fd)
            if str(path).endswith(".jsonl"):
                day_opens.append(path)
        return fd

    def close_spy(fd):
        real_close(fd)
        open_fds.discard(fd)

    monkeypatch.setattr(os, "open", open_spy)
    monkeypatch.setattr(os, "close", close_spy)

    async def main():
        rts = RealTimeServer()
        filer = MessageFiler(tmp_path)
        await rts.deploy(filer)
        day_ms = 86_400_000
        first = 1_590_998_400_000  # 2020-06-01T08:00:00Z
        for day in range(30):
            rts.bus.publish("feed/smartplug/d1", plug_msg(ts=first + day * day_ms))
        for _ in range(100):
            if filer.lines_written == 30:
                break
            await asyncio.sleep(0.01)
        assert len(day_opens) == 30
        assert open_fds == set()
        day_files = sorted((tmp_path / "d1").rglob("*.jsonl"))
        assert len(day_files) == 30
        assert sum(len(f.read_bytes().splitlines()) for f in day_files) == 30

        rts.bus.publish("feed/smartplug/d1", plug_msg(ts=first + 1))
        for _ in range(100):
            if filer.lines_written == 31:
                break
            await asyncio.sleep(0.01)
        assert len(day_opens) == 31
        assert open_fds == set()
        lines = (tmp_path / "d1" / "2020" / "06" / "01.jsonl").read_bytes().splitlines()
        assert [json.loads(line)["ts"] for line in lines] == [first, first + 1]
        await rts.stop()

    run(main())


_FILE_A_FLEET_UNDER_64_FDS = """
import asyncio, json, resource, sys
from sensert.decoders import NormalizedMessage
from sensert.rts import RealTimeServer
from sensert.rts.verticles import MessageFiler

async def main(root):
    rts = RealTimeServer()
    filer = MessageFiler(root)
    await rts.deploy(filer)
    for i in range(200):
        ts = 1_600_000_000_000 + i
        rts.bus.publish(f"feed/smartplug/plug-{i}", NormalizedMessage(
            f"plug-{i}", ts, "smartplug", {"power_w": 1.0}, b"{}", ts))
    for _ in range(500):
        if filer.lines_written + filer.errors == 200:
            break
        await asyncio.sleep(0.01)
    await rts.stop()
    return filer

resource.setrlimit(resource.RLIMIT_NOFILE, (64, resource.getrlimit(resource.RLIMIT_NOFILE)[1]))
filer = asyncio.run(main(sys.argv[1]))
print(json.dumps({"lines_written": filer.lines_written, "errors": filer.errors,
                  "latest_errors": filer.latest_errors}))
"""


def test_filer_files_more_devices_than_it_may_open_files(tmp_path):
    """One reading from each of 200 devices, filed in a child process whose
    soft RLIMIT_NOFILE is 64: every line and latest.json is written, because
    the filer keeps no file open between readings."""
    # the child imports sensert from where this process does
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    child = subprocess.run([sys.executable, "-c", _FILE_A_FLEET_UNDER_64_FDS, str(tmp_path)],
                           env=env, capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    counts = json.loads(child.stdout)
    assert counts == {"lines_written": 200, "errors": 0, "latest_errors": 0}
    assert len(list(tmp_path.rglob("*.jsonl"))) == 200


def test_filer_ignores_deadletters(tmp_path):
    async def main():
        rts = RealTimeServer()
        filer = MessageFiler(tmp_path)
        await rts.deploy(filer)
        from sensert.decoders import DeadLetter
        rts.bus.publish("feed/deadletter", DeadLetter("t", b"x", 1, "no decoder"))
        await asyncio.sleep(0.1)
        assert filer.lines_written == 0
        await rts.stop()

    run(main())


# --- thresholdwatch ------------------------------------------------------------------

def test_threshold_edge_semantics_hand_trace():
    """Readings 900, 1100, 1200, 950 with >1000 hysteresis 50: one crossed
    (at 1100), one cleared (at 950)."""

    async def main():
        rts = RealTimeServer()
        events = rts.bus.subscribe("event/threshold/#")
        watch = ThresholdWatch([ThresholdRule("feed/#", "co2", ">", 1000, 50)])
        await rts.deploy(watch)
        ts = 1_600_000_000_000
        for i, value in enumerate([900, 1100, 1200, 950]):
            rts.bus.publish("feed/ttn/co2-1", NormalizedMessage(
                "co2-1", ts + i, "ttn", {"co2": value}, b"{}", ts + i))
        await asyncio.sleep(0.2)
        got = []
        while (env := events.get_nowait()) is not None:
            got.append((env.body.event_type, env.body.attributes["value"]))
        assert got == [("threshold-crossed", 1100), ("threshold-cleared", 950)]
        await rts.stop()

    run(main())


def test_threshold_outage_rule():
    async def main():
        rts = RealTimeServer()
        events = rts.bus.subscribe("event/threshold/#")
        watch = ThresholdWatch([ThresholdRule("feed/smartplug/#", "power_w", "<", 1.0)])
        await rts.deploy(watch)
        for value in [35.0, 0.0, 0.0, 0.0]:
            rts.bus.publish("feed/smartplug/p1", plug_msg(power_w=value))
        await asyncio.sleep(0.2)
        got = [env.body.event_type for env in iter(events.get_nowait, None)]
        assert got == ["threshold-crossed"]  # once, not repeated
        await rts.stop()

    run(main())


def test_threshold_constant_below_no_events():
    async def main():
        rts = RealTimeServer()
        events = rts.bus.subscribe("event/threshold/#")
        await rts.deploy(ThresholdWatch([ThresholdRule("feed/#", "co2", ">", 1000)]))
        for _ in range(5):
            rts.bus.publish("feed/ttn/c", NormalizedMessage(
                "c", 1, "ttn", {"co2": 500}, b"{}", 1))
        await asyncio.sleep(0.1)
        assert events.get_nowait() is None
        await rts.stop()

    run(main())


def test_threshold_missing_field_counted_skipped():
    async def main():
        rts = RealTimeServer()
        watch = ThresholdWatch([ThresholdRule("feed/#", "absent_field", ">", 1)])
        await rts.deploy(watch)
        rts.bus.publish("feed/smartplug/p", plug_msg())
        await asyncio.sleep(0.1)
        assert watch.missing_field == 1
        await rts.stop()

    run(main())

    run(main())


def test_threshold_non_finite_value_counted_missing():
    """A TTN uplink whose co2 is "1e999" normalizes, but float() makes it inf:
    it is counted as missing and emits no event, so none carries Infinity."""
    from sensert.decoders import RawSensorMessage, default_registry

    def uplink(co2):
        payload = json.dumps({"end_device_ids": {"device_id": "c"},
                              "uplink_message": {"decoded_payload": {"co2": co2}}})
        return default_registry().normalize(RawSensorMessage(
            "v3/app/devices/c/up", payload.encode(), 1_600_000_000_000))

    async def main():
        rts = RealTimeServer()
        events = rts.bus.subscribe("event/threshold/#")
        watch = ThresholdWatch([ThresholdRule("feed/#", "co2", ">", 1000)])
        await rts.deploy(watch)
        rts.bus.publish("feed/ttn/c", uplink("1e999"))
        await asyncio.sleep(0.1)
        assert events.get_nowait() is None and watch.missing_field == 1
        rts.bus.publish("feed/ttn/c", uplink(1200))
        env = await asyncio.wait_for(events.get(), 3)
        assert env.body.event_type == "threshold-crossed"
        assert env.body.attributes["value"] == 1200.0
        await rts.stop()

    run(main())


def test_threshold_at_most_one_crossed_between_cleareds():
    async def main():
        rts = RealTimeServer()
        events = rts.bus.subscribe("event/threshold/#")
        await rts.deploy(ThresholdWatch([ThresholdRule("feed/#", "co2", ">", 1000, 50)]))
        import random as _r
        rng = _r.Random(3)
        ts = 1
        for _ in range(300):
            rts.bus.publish("feed/ttn/c", NormalizedMessage(
                "c", ts, "ttn", {"co2": rng.choice([800, 900, 1100, 1300, 940, 950])},
                b"{}", ts))
            ts += 1
        await asyncio.sleep(0.3)
        got = [env.body.event_type for env in iter(events.get_nowait, None)]
        for a, b in zip(got, got[1:]):
            assert a != b, "crossed/cleared must alternate"
        await rts.stop()

    run(main())


def co2_msg(device, co2, **cooked):
    return NormalizedMessage(device, 1, "ttn", {"co2": co2, **cooked}, b"{}", 1)


def threshold_events(sub):
    return [(env.body.device_id, env.body.attributes["threshold"])
            for env in iter(sub.get_nowait, None)]


def test_threshold_rules_share_one_subscription_and_one_task():
    """A thousand rules deploy as one bus subscription and one task, and a
    reading still reaches the one rule for its device."""

    async def main():
        rts = RealTimeServer()
        events = rts.bus.subscribe("event/threshold/#")
        subs, tasks = len(rts.bus.subscriptions()), len(asyncio.all_tasks())
        await rts.deploy(ThresholdWatch([
            ThresholdRule(f"feed/ttn/c{i}", "co2", ">", i) for i in range(1000)]))
        assert len(rts.bus.subscriptions()) == subs + 1
        assert len(asyncio.all_tasks()) == tasks + 1
        rts.bus.publish("feed/ttn/c999", co2_msg("c999", 1200))
        await asyncio.sleep(0.1)
        assert threshold_events(events) == [("c999", 999)]
        await rts.stop()

    run(main())


def test_threshold_rules_matching_one_reading_emit_in_rule_order():
    """Rule order, not filter shape, orders the events of one reading, also
    once the watch is waiting for readings."""

    async def main():
        rts = RealTimeServer()
        events = rts.bus.subscribe("event/threshold/#")
        await rts.deploy(ThresholdWatch([ThresholdRule("feed/ttn/c1", "co2", ">", 900),
                                         ThresholdRule("feed/+/c1", "co2", ">", 800),
                                         ThresholdRule("feed/#", "co2", ">", 1000)]))
        for co2 in (500, 1200):
            rts.bus.publish("feed/ttn/c1", co2_msg("c1", co2))
            await asyncio.sleep(0.05)
        assert threshold_events(events) == [("c1", 900), ("c1", 800), ("c1", 1000)]
        await rts.stop()

    run(main())


def test_a_rule_that_raises_leaves_the_reading_to_the_next_rule():
    """float(10**400) raises OverflowError in the first rule: it is counted
    in sink.failed and the second rule still sees the reading."""

    async def main():
        rts = RealTimeServer()
        events = rts.bus.subscribe("event/threshold/#")
        watch = ThresholdWatch([ThresholdRule("feed/#", "huge", ">", 1),
                                ThresholdRule("feed/#", "co2", ">", 1000)])
        await rts.deploy(watch)
        rts.bus.publish("feed/ttn/c1", co2_msg("c1", 1200, huge=10 ** 400))
        await asyncio.sleep(0.1)
        assert watch.sink.failed == 1
        assert threshold_events(events) == [("c1", 1000)]
        await rts.stop()

    run(main())


@pytest.mark.parametrize("flt, fired", [
    ("#", ["c1", "p1"]),
    ("feed/+/+", ["c1", "p1"]),
    ("feed/ttn/#", ["c1"]),
    ("+/ttn/c1", ["c1"]),
    ("feed/+/p1", ["p1"]),
    ("feed/deadletter/#", []),
])
def test_threshold_wildcard_filters_still_fire(flt, fired):
    async def main():
        rts = RealTimeServer()
        events = rts.bus.subscribe("event/threshold/#")
        await rts.deploy(ThresholdWatch([ThresholdRule(flt, "co2", ">", 1000)]))
        rts.bus.publish("feed/ttn/c1", co2_msg("c1", 1200))
        rts.bus.publish("feed/smartplug/p1", plug_msg("p1", co2=1200))
        await asyncio.sleep(0.1)
        assert [device for device, _ in threshold_events(events)] == fired
        await rts.stop()

    run(main())


@pytest.mark.parametrize("flt, value, hysteresis", [
    ("feed/#/x", 1000, 0), ("feed/ttn+", 1000, 0), ("", 1000, 0),
    ("feed/#", float("nan"), 0), ("feed/#", float("inf"), 0),
    ("feed/#", 1000, float("nan")), ("feed/#", 1000, float("inf")), ("feed/#", 1000, -1),
])
def test_threshold_rule_rejects_bad_filter_or_value_when_built(flt, value, hysteresis):
    with pytest.raises(ValueError):
        ThresholdRule(flt, "co2", ">", value, hysteresis)


# --- rtcoffee verticle -----------------------------------------------------------------

def test_rtcoffee_verticle_emits_on_bus():
    async def main():
        rts = RealTimeServer()
        events = rts.bus.subscribe("event/coffee/#")
        await rts.deploy(RTCoffee())
        ts = 1_600_000_000_000
        weights = [2.5] * 6 + [2.25] * 6
        for i, w in enumerate(weights):
            rts.bus.publish("feed/coffee/pot-1", NormalizedMessage(
                "pot-1", ts + i * 100, "coffee",
                {"weight_kg": w, "grinder_w": 0.0, "brewer_w": 0.0}, b"{}", ts + i * 100))
        await asyncio.sleep(0.2)
        got = [env.body.event_type for env in iter(events.get_nowait, None)]
        assert "pot-poured" in got
        await rts.stop()

    run(main())


# --- messagerouter -----------------------------------------------------------------------

def test_router_republishes_to_remote():
    async def main():
        remote = Broker(name="peer")
        await remote.start("127.0.0.1", 0)
        rts = RealTimeServer()
        router = MessageRouter([RouteRule(
            filter="feed/ttn/#", remote=f"127.0.0.1:{remote.address[1]}")])
        await rts.deploy(router)

        sub = await MqttClient.connect(*remote.address)
        await sub.subscribe(["normalized/#"])
        await asyncio.sleep(0.3)

        msg = NormalizedMessage("co2-1", 1, "ttn", {"co2": 700}, b"{}", 1)
        rts.bus.publish("feed/ttn/co2-1", msg)
        topic, payload, _ = await sub.next_message(timeout=3)
        assert topic == "normalized/feed/ttn/co2-1"
        decoded = json.loads(payload)
        assert decoded["device_id"] == "co2-1"
        assert decoded["cooked"]["co2"] == 700

        rts.bus.publish("feed/smartplug/x", plug_msg())  # not matched by route
        with pytest.raises(asyncio.TimeoutError):
            await sub.next_message(timeout=0.3)

        await sub.close()
        await rts.stop()
        await remote.stop()

    run(main())


def test_router_buffers_while_remote_down_then_flushes_in_order():
    async def main():
        probe = await asyncio.start_server(lambda r, w: None, "127.0.0.1", 0)
        port = probe.sockets[0].getsockname()[1]
        probe.close()
        await probe.wait_closed()

        rts = RealTimeServer()
        router = MessageRouter([RouteRule(filter="feed/#", remote=f"127.0.0.1:{port}")])
        await rts.deploy(router)
        for i in range(20):
            rts.bus.publish("feed/ttn/c", NormalizedMessage(
                "c", 1 + i, "ttn", {"n": i}, b"{}", 1 + i))
        await asyncio.sleep(0.7)  # remote still down, envelopes buffered
        assert router.forwarded == 0

        remote = Broker(name="late-peer")
        await remote.start("127.0.0.1", port)
        sub = await MqttClient.connect(*remote.address)
        await sub.subscribe(["#"])
        got = []
        for _ in range(20):
            _, payload, _ = await sub.next_message(timeout=5)
            got.append(json.loads(payload)["cooked"]["n"])
        assert got == list(range(20))

        await sub.close()
        await rts.stop()
        await remote.stop()

    run(main())


@pytest.mark.parametrize("remote, template", [
    ("1883", "normalized/{address}"),
    ("127.0.0.1:notaport", "normalized/{address}"),
    ("127.0.0.1:1883", "x/#/{address}"),  # a wildcard cannot be in a topic
    ("127.0.0.1:1883", "x/{device}"),  # unknown placeholder
    ("127.0.0.1:1883", "x/{0}"),
    ("127.0.0.1:1883", "x/{address.family}"),
    ("127.0.0.1:1883", "x/{address"),
])
def test_route_rule_rejects_bad_remote_or_template_when_built(remote, template):
    with pytest.raises(ValueError):
        RouteRule(filter="feed/#", remote=remote, topic_template=template)


def test_route_rule_accepts_address_templates():
    for template in ("{address}", "normalized/{address}", "site/{address}/raw"):
        rule = RouteRule(filter="feed/#", remote="peer:1884", topic_template=template)
        assert (rule.remote_host, rule.remote_port) == ("peer", 1884)


def test_two_routes_to_one_peer_keep_one_session_each():
    async def main():
        peer = Broker(name="peer")
        await peer.start("127.0.0.1", 0)
        remote = f"127.0.0.1:{peer.address[1]}"
        rts = RealTimeServer()
        router = MessageRouter([RouteRule(filter="feed/ttn/#", remote=remote),
                                RouteRule(filter="feed/smartplug/#", remote=remote)])
        sub = await MqttClient.connect(*peer.address)
        await sub.subscribe(["normalized/#"])
        await rts.deploy(router)
        await asyncio.sleep(0.3)

        n = 40
        for i in range(n):
            rts.bus.publish("feed/ttn/c", NormalizedMessage("c", 1 + i, "ttn", {"n": i}, b"{}", 1))
            rts.bus.publish("feed/smartplug/p", plug_msg("p", ts=1 + i, n=i))
        got = {"normalized/feed/ttn/c": [], "normalized/feed/smartplug/p": []}
        for _ in range(2 * n):
            topic, payload, _ = await sub.next_message(timeout=5)
            got[topic].append(json.loads(payload)["cooked"]["n"])
        assert got == {topic: list(range(n)) for topic in got}
        assert peer.live_sessions == 3  # both routes and the subscriber

        await sub.close()
        await rts.stop()
        await peer.stop()

    run(main())


# --- datamonitor ----------------------------------------------------------------------------

def test_datamonitor_subscribe_and_receive():
    async def main():
        rts = RealTimeServer()
        monitor = DataMonitor()
        await rts.deploy(monitor)
        client = await MonitorClient.connect(*monitor.address)
        ack = await client.subscribe(["event/coffee/#"])
        assert ack.get("ok") == "subscribe"

        await rts.deploy(RTCoffee())
        ts = 1_600_000_000_000
        for i, w in enumerate([2.5] * 6 + [2.25] * 6):
            rts.bus.publish("feed/coffee/pot-1", NormalizedMessage(
                "pot-1", ts + i * 100, "coffee",
                {"weight_kg": w, "grinder_w": 0.0, "brewer_w": 0.0}, b"{}", ts + i * 100))
        while True:
            line = await asyncio.wait_for(client.next(), 3)
            if line.get("body", {}).get("event_type") == "pot-poured":
                assert line["address"] == "event/coffee/pot-1"
                assert "published_at" in line
                break
        await client.close()
        await rts.stop()

    run(main())


def test_datamonitor_no_subscription_no_lines():
    async def main():
        rts = RealTimeServer()
        monitor = DataMonitor()
        await rts.deploy(monitor)
        client = await MonitorClient.connect(*monitor.address)
        rts.bus.publish("event/threshold/x", plug_msg())
        with pytest.raises(asyncio.TimeoutError):
            await client.next(timeout=0.3)
        await client.close()
        await rts.stop()

    run(main())


def test_datamonitor_two_clients_same_filter():
    async def main():
        rts = RealTimeServer()
        monitor = DataMonitor()
        await rts.deploy(monitor)
        a = await MonitorClient.connect(*monitor.address)
        b = await MonitorClient.connect(*monitor.address)
        await a.subscribe(["feed/#"])
        await b.subscribe(["feed/#"])
        rts.bus.publish("feed/smartplug/p", plug_msg())
        la = await a.next(timeout=3)
        lb = await b.next(timeout=3)
        assert la["body"]["device_id"] == lb["body"]["device_id"] == "d1"
        await a.close()
        await b.close()
        await rts.stop()

    run(main())


def test_datamonitor_malformed_request_keeps_connection():
    async def main():
        rts = RealTimeServer()
        monitor = DataMonitor()
        await rts.deploy(monitor)
        client = await MonitorClient.connect(*monitor.address)
        await client.send({"method": "dance"})
        err = await client.next(timeout=2)
        assert "error" in err
        # still alive: a valid subscribe works afterwards
        ack = await client.subscribe(["feed/#"])
        assert ack.get("ok") == "subscribe"
        await client.close()
        await rts.stop()

    run(main())


def test_datamonitor_bad_filters_subscribe_nothing():
    """A filters value that is not a list of strings, or that holds one
    invalid filter, is an error line and subscribes none of its filters."""
    async def main():
        rts = RealTimeServer()
        monitor = DataMonitor()
        await rts.deploy(monitor)
        client = await MonitorClient.connect(*monitor.address)
        for filters in ("feed/#", ["a/b", "a/#/b", "c"], ["a/b", 7]):
            assert "error" in await client.subscribe(filters)
            assert rts.bus.subscriptions() == []
        assert await client.subscribe(["a/b"]) == {"ok": "subscribe", "filters": ["a/b"]}
        assert "error" in await client.unsubscribe("a/b")
        assert [s.filter for s in rts.bus.subscriptions()] == ["a/b"]
        await client.close()
        await rts.stop()

    run(main())


def test_datamonitor_stop_closes_its_client_connections():
    async def main():
        rts = RealTimeServer()
        monitor = DataMonitor()
        await rts.deploy(monitor)
        client = await MonitorClient.connect(*monitor.address)
        await client.subscribe(["feed/#"])
        await rts.stop()
        with pytest.raises(ConnectionError):
            await client.next(timeout=2)
        assert rts.bus.subscriptions() == []
        await client.close()

    run(main())


def test_datamonitor_unsubscribe():
    async def main():
        rts = RealTimeServer()
        monitor = DataMonitor()
        await rts.deploy(monitor)
        client = await MonitorClient.connect(*monitor.address)
        await client.subscribe(["feed/#"])
        rts.bus.publish("feed/smartplug/p", plug_msg())
        assert (await client.next(timeout=2))["body"]["device_id"] == "d1"
        await client.unsubscribe(["feed/#"])
        rts.bus.publish("feed/smartplug/p", plug_msg())
        with pytest.raises(asyncio.TimeoutError):
            await client.next(timeout=0.3)
        await client.close()
        await rts.stop()

    run(main())
