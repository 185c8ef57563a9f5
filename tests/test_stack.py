"""Full-stack demo and CLI surface tests."""

import asyncio
import json
import socket
import subprocess
import sys

import pytest

from sensert import bench, stack
from sensert.bench import TapCollector, extract_msg_key, make_fleet
from sensert.cli import build_parser, main
from sensert.mqtt_client import MqttClient
from sensert.rts import verticles
from sensert.rts.verticles import RTCoffee, ThresholdWatch
from sensert.rts.bus import SubscriptionPolicy
from sensert.rts.monitor import DataMonitor
from sensert.simfleet import DeviceProfile
from sensert.stack import DemoResult, Stack, StackConfig, run_demo


def run(coro):
    return asyncio.run(coro)


def test_demo_coffee_matches_ground_truth():
    result = run(run_demo("coffee", seed=42))
    assert isinstance(result, DemoResult)
    assert result.detected == result.ground_truth
    assert result.ok
    assert result.drained
    assert result.conservation_ok


def test_demo_co2_scenario_one_crossing():
    result = run(run_demo("co2", seed=42))
    assert result.detected == ["threshold-crossed", "threshold-cleared"]
    assert result.ok


def test_demo_outage_scenario():
    result = run(run_demo("outage", seed=42))
    assert result.detected == ["threshold-crossed"]
    assert result.ok


def test_demo_writes_bench_csvs(tmp_path):
    result = run(run_demo("coffee", seed=42, out_dir=tmp_path))
    assert result.ok
    table2 = (tmp_path / "table2.csv").read_text().splitlines()
    assert table2[0].startswith("point,count,mean_ms")
    assert len(table2) == 5  # header + four tap points
    fig8b = (tmp_path / "fig8b.csv").read_text().splitlines()
    assert fig8b[0].startswith("category,")
    assert any(row.startswith("coffee,") for row in fig8b)


def test_demo_opens_one_monitor_connection(monkeypatch):
    monitors = []
    start = DataMonitor.start

    async def recording_start(self, bus):
        monitors.append(self)
        await start(self, bus)

    monkeypatch.setattr(DataMonitor, "start", recording_start)
    result = run(run_demo("outage", seed=42))
    assert result.ok
    assert [m.clients_served for m in monitors] == [1]


def test_stack_taps_only_its_own_hops():
    """With no monitor client, a traced stack stamps gateway, broker and
    event bus for every reading, and never the client point."""

    async def main_():
        taps = TapCollector()
        stack = Stack(StackConfig(), taps=taps)
        await stack.start()
        try:
            emitted = await stack.run_fleet(make_fleet(10), None, 2.0)
            assert await stack.drain()
        finally:
            await stack.stop()
        return taps, sum(emitted.counts().values())

    taps, emitted = run(main_())
    records = list(taps.records.values())
    assert emitted > 0 and len(records) == emitted
    for r in records:
        assert None not in (r.t_gateway, r.t_broker, r.t_eventbus), r
        assert r.t_client is None
        assert r.ordered


def test_stack_parses_each_tap_key_once(monkeypatch):
    """A Wi-Fi reading is stamped at gateway and broker from one parse."""
    parsed = []

    def counting(topic, payload):
        parsed.append(topic)
        return extract_msg_key(topic, payload)

    monkeypatch.setattr(bench, "extract_msg_key", counting)
    monkeypatch.setattr(stack, "extract_msg_key", counting)

    async def main_():
        taps = TapCollector()
        s = Stack(StackConfig(), taps=taps)
        await s.start()
        try:
            emitted = await s.run_fleet(
                [DeviceProfile(f"plug-{i}", "smartplug", period_s=0.2) for i in range(2)],
                None, 1.0)
            assert await s.drain()
        finally:
            await s.stop()
        return taps, sum(emitted.counts().values())

    taps, emitted = run(main_())
    assert emitted > 0 and len(parsed) == emitted
    for r in taps.records.values():
        assert None not in (r.t_gateway, r.t_broker, r.t_eventbus), r


def test_demo_unknown_scenario():
    with pytest.raises(ValueError):
        run(run_demo("nonsense"))


def test_demo_cli_port_conflict_exits_2():
    blocker = socket.socket()
    blocker.bind(("127.0.0.1", 0))
    blocker.listen(1)
    port = blocker.getsockname()[1]
    try:
        code = main(["--log-level", "ERROR", "demo", "--scenario", "outage",
                     "--local-port", str(port),
                     "--ttn-port", "0", "--zigbee-port", "0",
                     "--ws-port", "0", "--monitor-port", "0"])
        assert code == 2
    finally:
        blocker.close()


def test_demo_cli_runs_outage(capsys):
    code = main(["--log-level", "ERROR", "demo", "--scenario", "outage",
                 "--ephemeral", "--seed", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "MATCH" in out
    assert "threshold-crossed" in out


def test_cli_module_entrypoint_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "sensert", "--log-level", "ERROR",
         "demo", "--scenario", "outage", "--ephemeral"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "MATCH" in proc.stdout


def test_parser_covers_spec_surfaces(tmp_path):
    parser = build_parser()
    config = tmp_path / "x.json"
    config.write_text('{"listen": "127.0.0.1:1884"}')
    args = parser.parse_args(["broker", "--config", str(config), "--stats-interval", "10s"])
    assert args.stats_interval == 10.0
    assert args.config.listen_port == 1884
    args = parser.parse_args([
        "sim", "--brokers", "local=127.0.0.1:1883,ttn=127.0.0.1:1884,zigbee=127.0.0.1:1885",
        "--scenario", "coffee", "--duration", "300"])
    assert args.brokers["ttn"] == ("127.0.0.1", 1884)
    args = parser.parse_args([
        "rts", "--broker", "127.0.0.1:1883", "--data-root", "/tmp/x",
        "--monitor-listen", "127.0.0.1:9000"])
    assert args.monitor_listen == ("127.0.0.1", 9000)
    args = parser.parse_args(["bench", "--sweep", "10,20,45,100", "--duration", "120",
                              "--out", "/tmp/out"])
    assert args.sweep == "10,20,45,100"


def test_meta_cli_roundtrip(tmp_path, capsys):
    lines = [
        {"type": "container", "ts": 1, "container_id": "b", "kind": "building", "name": "B"},
        {"type": "container", "ts": 1, "container_id": "r1", "kind": "room", "parent_id": "b"},
        {"type": "device", "ts": 100, "device_id": "d1",
         "doc": {"location": {"x_m": 1, "y_m": 2, "floor": 0, "h_m": 0.8,
                              "container_id": "r1"}}},
    ]
    imp = tmp_path / "import.jsonl"
    imp.write_text("\n".join(json.dumps(x) for x in lines))
    root = tmp_path / "store"

    assert main(["meta", "--root", str(root), "import", str(imp)]) == 0
    capsys.readouterr()

    assert main(["meta", "--root", str(root), "asof", "d1", "200"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["ts"] == 100

    assert main(["meta", "--root", str(root), "ls", "b"]) == 0
    assert capsys.readouterr().out.strip() == "d1"

    assert main(["meta", "--root", str(root), "asof", "d1", "50"]) == 1


@pytest.mark.parametrize("argv", [["asof", "d1", "abc"], ["ls", "b", "--at", "abc"]])
def test_meta_cli_bad_time_is_a_usage_error(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(["meta", "--root", str(tmp_path / "store"), *argv])
    assert exc.value.code == 2
    assert "ISO-8601 time or epoch ms, got 'abc'" in capsys.readouterr().err


@pytest.mark.parametrize("argv, content", [
    (["broker", "--config"], {"listen": "127.0.0.1:99999"}),
    (["broker", "--config"], None),  # no such file
    (["rts", "--broker", "127.0.0.1:1", "--data-root", "unused", "--rules"],
     [{"filter": "feed/#", "field": "co2", "op": "=", "value": 1000}]),
    (["sim", "--brokers", "local=127.0.0.1:1", "--fleet"], [{"family": "smartplug"}]),
    (["demo", "--config"], "{not json"),
    (["rts", "--broker", "127.0.0.1:1", "--data-root", "unused", "--rules"],
     [{"filter": "feed/#/x", "field": "co2", "op": ">", "value": 1000}]),
    (["rts", "--broker", "127.0.0.1:1", "--data-root", "unused", "--rules"],
     [{"filter": "feed/#", "field": "co2", "op": ">", "value": "nan"}]),
])
def test_a_bad_config_file_is_a_usage_error(tmp_path, capsys, argv, content):
    """Invalid JSON, a missing key, a bad value or an unreadable file ends
    as an argparse error naming the flag, with exit code 2."""
    path = tmp_path / "config.json"
    if content is not None:
        path.write_text(content if isinstance(content, str) else json.dumps(content))
    with pytest.raises(SystemExit) as exc:
        main(["--log-level", "ERROR", *argv, str(path)])
    assert exc.value.code == 2
    assert f"error: argument {argv[-1]}: cannot load {path}: " in capsys.readouterr().err


def test_meta_cli_accepts_epoch_zero(tmp_path, capsys):
    root = str(tmp_path / "store")
    assert main(["meta", "--root", root, "asof", "d1", "1970-01-01T00:00:00Z"]) == 1
    assert capsys.readouterr().out.strip() == "no record"


def test_stalled_consumer_drops_are_named_and_the_count_closes(tmp_path):
    """The feed handler stops reading its broker socket until its session queue
    on the local broker overflows. The walk names those drops, and every
    reading published is filed or counted as dropped on the filer path."""

    async def main_():
        stack = Stack(StackConfig(data_root=tmp_path))
        await stack.start()
        name = "broker.local.session:rts-feedhandler"
        stalled = dict(stack.queues())[name]
        feed_socket = stack.feedhandler.link.conn._writer.transport
        feed_socket.pause_reading()
        pub = await MqttClient.connect(*stack.local.address, client_id="plugs")
        pad = "x" * 2048
        sent = 0
        while stalled.dropped < 100 and sent < 50_000:
            payload = json.dumps({"ENERGY": {"Power": 5.0}, "pad": pad, "n": sent})
            await pub.publish(f"tele/plug-{sent % 10}/SENSOR", payload.encode())
            sent += 1
            await asyncio.sleep(0)
        feed_socket.resume_reading()
        assert await stack.drain(timeout_s=30)

        assert stack.drops()[name] == stalled.dropped >= 100
        assert stack.reconcile(sent) == []
        assert stack.filer.lines_written == sent - stalled.dropped
        assert stack.reconcile(sent + 1) != []  # one reading unaccounted for is seen
        await pub.close()
        await stack.stop()

    run(main_())


def test_start_returns_only_once_the_feed_handler_is_subscribed(tmp_path, monkeypatch):
    """The feed handler's CONNECT takes 0.4 s. A reading sent as soon as
    start() returns must still be filed, not routed to nobody."""
    connect = MqttClient.connect.__func__

    async def slow_feedhandler_connect(cls, host, port, client_id=None, **kwargs):
        if client_id == "rts-feedhandler":
            await asyncio.sleep(0.4)
        return await connect(cls, host, port, client_id, **kwargs)

    monkeypatch.setattr(MqttClient, "connect", classmethod(slow_feedhandler_connect))

    async def main_():
        stack = Stack(StackConfig(data_root=tmp_path))
        await stack.start()
        stack.transports.publish("wifi_mqtt", "tele/plug-1/SENSOR", {"ENERGY": {"Power": 5.0}})
        assert await stack.drain()
        assert stack.filer.lines_written == 1
        assert stack.reconcile(1) == []
        await stack.stop()

    run(main_())


def test_dead_letters_stay_out_of_the_filer_queue(tmp_path, monkeypatch):
    """With a one-slot filer queue, dead letters neither fill it nor count
    twice: each is dead-lettered once and the count closes."""
    monkeypatch.setattr(verticles, "SubscriptionPolicy",
                        lambda queue_capacity: SubscriptionPolicy(queue_capacity=1))

    async def main_():
        stack = Stack(StackConfig(data_root=tmp_path))
        await stack.start()
        pub = await MqttClient.connect(*stack.local.address, client_id="garbled")
        for i in range(2):  # one batch, so the filer cannot take each in turn
            pub.publish_nowait(f"tele/plug-{i}/SENSOR", b"\xff not json")
        await pub.publish("tele/plug-2/SENSOR", b"\xff not json")
        assert await stack.drain()
        assert stack.feedhandler.deadlettered == 3
        assert stack.drops() == {}
        assert stack.reconcile(3) == []
        await pub.close()
        await stack.stop()

    run(main_())


def test_a_latest_json_failure_is_counted_apart_from_filing(tmp_path):
    """A reading whose line is written but whose latest.json cannot be
    replaced is filed, not failed: the count closes, the failure has its own
    counter and event, and the remembered latest ts does not advance."""
    (tmp_path / "plug-1" / "latest.json").mkdir(parents=True)

    def reading(second):
        return {"Time": f"2020-06-01T10:00:0{second}Z", "ENERGY": {"Power": 5.0}}

    async def main_():
        stack = Stack(StackConfig(data_root=tmp_path))
        await stack.start()
        errors = stack.rts.bus.subscribe("sys/filer/error")
        stack.transports.publish("wifi_mqtt", "tele/plug-1/SENSOR", reading(5))
        event = (await asyncio.wait_for(errors.get(), 5)).body
        assert await stack.drain()
        filer = stack.filer
        assert (filer.lines_written, filer.errors, filer.latest_errors) == (1, 0, 1)
        assert stack.filer_line_counts() == {"plug-1": 1}
        assert stack.reconcile(1) == []
        assert event.event_type == "filer-error"
        assert event.attributes["file"] == f"{tmp_path}/plug-1/latest.json"

        # had the failed replace advanced the latest ts, this older reading would be skipped
        (tmp_path / "plug-1" / "latest.json").rmdir()
        stack.transports.publish("wifi_mqtt", "tele/plug-1/SENSOR", reading(0))
        assert await stack.drain()
        latest = json.loads((tmp_path / "plug-1" / "latest.json").read_text())
        assert latest["ts"] == 1_591_005_600_000  # 2020-06-01T10:00:00Z
        assert (filer.lines_written, filer.errors, filer.latest_errors) == (2, 0, 1)
        assert stack.reconcile(2) == []
        await stack.stop()

    run(main_())


def test_stack_standalone_components(tmp_path):
    """Stack pieces can start with explicit ports and a provided data root."""

    async def main_():
        stack = Stack(StackConfig(data_root=tmp_path))
        await stack.start()
        assert stack.local.address[1] > 0
        assert (tmp_path).exists()
        assert stack.filer_line_counts() == {}
        await stack.stop()

    run(main_())


def collect(bus, filter_raw: str) -> tuple[list, asyncio.Task]:
    """The event types published on ``filter_raw``, read as they come, so
    the test's own queue is empty whenever the stack is."""
    sub, got = bus.subscribe(filter_raw), []

    async def read():
        while True:
            got.append((await sub.get()).body.event_type)

    return got, asyncio.create_task(read())


async def stop(stack: Stack, reader: asyncio.Task) -> None:
    reader.cancel()
    await asyncio.gather(reader, return_exceptions=True)
    await stack.stop()


def test_a_co2_reading_no_float_can_hold_costs_the_rule_one_reading(tmp_path):
    """A TTN uplink whose co2 is a 400-digit integer makes the default CO2
    rule raise (OverflowError). That reading is counted as failed, and the
    crossing reading after it is still seen."""
    def uplink(co2):
        return {"end_device_ids": {"device_id": "co2-1"},
                "uplink_message": {"decoded_payload": {"co2": co2}}}

    async def main_():
        stack = Stack(StackConfig(data_root=tmp_path))
        await stack.start()
        got, reader = collect(stack.rts.bus, "event/threshold/#")
        for co2 in (10 ** 400, 1200):
            stack.transports.publish("ttn_mqtt", "v3/app/devices/co2-1/up", uplink(co2))
        assert await stack.drain()
        (watch,) = [v for v in stack.rts.verticles if isinstance(v, ThresholdWatch)]
        assert watch.sink.failed == 1
        assert got == ["threshold-crossed"]
        assert stack.reconcile(2) == []  # both readings are filed
        await stop(stack, reader)

    run(main_())


def test_a_bad_coffee_record_costs_the_detector_one_reading(tmp_path):
    """A normalized passthrough record whose weight is "abc" makes the coffee
    step raise (ValueError); the detector still follows the trace after it."""
    ts = 1_600_000_000_000
    bad = {"device_id": "pot-1", "ts": ts, "family": "coffee", "received_at": ts,
           "cooked": {"weight_kg": "abc", "grinder_w": 0.0, "brewer_w": 0.0}}

    async def main_():
        stack = Stack(StackConfig(data_root=tmp_path))
        await stack.start()
        got, reader = collect(stack.rts.bus, "event/coffee/#")
        stack.transports.publish("wifi_mqtt", "normalized/feed/coffee/pot-1", bad)
        for i, weight in enumerate([2.5] * 6 + [2.25] * 6):
            stack.transports.publish("wifi_mqtt", "coffee/pot-1/reading", {
                "weight_kg": weight, "grinder_w": 0.0, "brewer_w": 0.0, "ts": ts + 1000 * i})
        assert await stack.drain()
        (coffee,) = [v for v in stack.rts.verticles if isinstance(v, RTCoffee)]
        assert coffee.sink.failed == 1
        assert "pot-poured" in got and coffee.events_emitted == len(got)
        await stop(stack, reader)

    run(main_())


def test_a_reading_whose_filing_raises_is_counted_and_the_filer_goes_on(tmp_path, monkeypatch):
    """The filer's handler raises on one reading: later readings are still
    filed, the stack drains, and the count closes with that failure named."""
    write_file = verticles._write_file

    def write_unless_plug_2(path, flags, data):
        if "/plug-2/" in path:
            raise RuntimeError("filing plug-2 fails")
        write_file(path, flags, data)

    monkeypatch.setattr(verticles, "_write_file", write_unless_plug_2)

    async def main_():
        stack = Stack(StackConfig(data_root=tmp_path))
        await stack.start()
        for i in range(5):
            stack.transports.publish("wifi_mqtt", f"tele/plug-{i}/SENSOR",
                                     {"ENERGY": {"Power": 5.0}})
        assert await stack.drain()
        filer = stack.filer
        assert (filer.lines_written, filer.errors, filer.sink.failed) == (4, 0, 1)
        assert stack.filer_line_counts() == {f"plug-{i}": 1 for i in (0, 1, 3, 4)}
        assert stack.reconcile(5) == []
        assert "failed on it 1" in stack.reconcile(6)[0]  # the failure is a named term
        await stack.stop()

    run(main_())
