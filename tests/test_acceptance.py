"""Acceptance criteria, one test per criterion, one printed line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines. The expensive stack runs (120 s experiment, sweep, ten demo runs) are
module-scoped fixtures shared between criteria.
"""

import asyncio
import itertools
import json
import random
import subprocess
import sys
import time

import pytest

from sensert import wire
from sensert.bench import run_experiment
from sensert.broker import Broker, BridgeRule
from sensert.decoders import NormalizedMessage
from sensert.metadata import DeviceMetadataRecord, MetadataStore, SpatialContainer
from sensert.mqtt_client import MqttClient
from sensert.rts import RealTimeServer
from sensert.rts.monitor import DataMonitor, MonitorClient
from sensert.stack import run_demo

GROUND_TRUTH = ["coffee-grinding", "new-pot",
                "pot-poured", "pot-poured", "pot-poured", "pot-poured",
                "pot-removed", "pot-empty"]


def report(criterion: int, ok: bool, text: str) -> None:
    print(f"[ACCEPTANCE {criterion}] {'PASS' if ok else 'FAIL'} — {text}")
    assert ok, f"criterion {criterion}: {text}"


def run(coro):
    return asyncio.run(coro)


# --- shared expensive runs ----------------------------------------------------------


@pytest.fixture(scope="module")
def experiment45(tmp_path_factory):
    data_root = tmp_path_factory.mktemp("exp45")
    result = run(run_experiment(45, 120.0, seed=42, data_root=data_root))
    return result, data_root


@pytest.fixture(scope="module")
def sweep_points():
    mean10 = run(run_experiment(10, 30.0, seed=42)).end_to_end().mean_ms
    mean100 = run(run_experiment(100, 30.0, seed=42)).end_to_end().mean_ms
    return mean10, mean100


@pytest.fixture(scope="module")
def demo_runs():
    t0 = time.monotonic()
    sequences = []
    results = []
    # one run through the actual CLI entry point
    proc = subprocess.run(
        [sys.executable, "-m", "sensert", "--log-level", "ERROR",
         "demo", "--scenario", "coffee", "--seed", "42", "--ephemeral"],
        capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    cli_line = next(line for line in proc.stdout.splitlines() if line.startswith("detected:"))
    sequences.append(json.loads(cli_line.partition(":")[2].strip().replace("'", '"')))
    # nine more seeded runs through the demo implementation
    for _ in range(9):
        result = run(run_demo("coffee", seed=42))
        results.append(result)
        sequences.append(list(result.detected))
    return sequences, results, time.monotonic() - t0


# --- criterion 1: wire conformance ----------------------------------------------------


def _random_packet(rng: random.Random) -> wire.Packet:
    def topic():
        return "/".join(rng.choice("abcd") * rng.randint(1, 3)
                        for _ in range(rng.randint(1, 4)))

    def filt():
        parts = [rng.choice(["a", "b", "+", "cd"]) for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.3:
            parts.append("#")
        return "/".join(parts)

    kind = rng.randrange(10)
    pid = rng.randint(1, 0xFFFF)
    if kind == 0:
        return wire.Connect(client_id=topic().replace("/", "-"),
                            keep_alive_s=rng.randint(0, 0xFFFF),
                            clean_session=rng.random() < 0.5)
    if kind == 1:
        return wire.Connack(return_code=rng.randint(0, 255))
    if kind == 2:
        return wire.Publish(topic=topic(), payload=rng.randbytes(rng.randint(0, 48)),
                            retain=rng.random() < 0.5)
    if kind == 3:
        return wire.Subscribe(packet_id=pid,
                              filters=tuple(filt() for _ in range(rng.randint(1, 4))))
    if kind == 4:
        return wire.Suback(packet_id=pid, granted=tuple(
            rng.choice([0x00, 0x80]) for _ in range(rng.randint(1, 4))))
    if kind == 5:
        return wire.Unsubscribe(packet_id=pid,
                                filters=tuple(filt() for _ in range(rng.randint(1, 4))))
    if kind == 6:
        return wire.Unsuback(packet_id=pid)
    return (wire.Pingreq(), wire.Pingresp(), wire.Disconnect())[kind - 7]


def _match_oracle(fparts, tparts):
    if not fparts:
        return not tparts
    if fparts[0] == "#":
        return True
    if not tparts:
        return False
    if fparts[0] == "+" or fparts[0] == tparts[0]:
        return _match_oracle(fparts[1:], tparts[1:])
    return False


def test_acceptance_1_wire_conformance():
    t0 = time.monotonic()
    rng = random.Random(0xACCE)

    for i in range(10_000):
        packet = _random_packet(rng)
        frame = wire.encode_packet(packet)
        decoded, consumed = wire.decode_packet(frame)
        assert decoded == packet and consumed == len(frame), f"packet {i}: {packet}"
        assert wire.encode_packet(decoded) == frame, f"re-encode {i} not byte-exact"

    pairs = 0
    for depth_f in range(1, 5):
        for fl in itertools.product(["a", "b", "+", "#"], repeat=depth_f):
            try:
                wire.validate_filter("/".join(fl))
            except wire.InvalidFilter:
                continue
            for depth_t in range(1, 5):
                for tl in itertools.product(["a", "b"], repeat=depth_t):
                    got = wire.topic_matches("/".join(fl), "/".join(tl))
                    assert got == _match_oracle(list(fl), list(tl)), (fl, tl)
                    pairs += 1

    crashes = 0
    for _ in range(1_000_000):
        raw = rng.randbytes(rng.randint(0, 64))
        try:
            wire.decode_packet(raw)
        except wire.MalformedPacket:
            pass
        except Exception:  # anything else is a crash
            crashes += 1
    elapsed = time.monotonic() - t0
    report(1, crashes == 0 and elapsed < 120,
           f"10k round-trips byte-exact, {pairs} matching pairs vs oracle, "
           f"1e6 fuzz frames, {crashes} crashes, {elapsed:.1f}s (< 120s)")


# --- criterion 2: bridging correctness ---------------------------------------------------


def test_acceptance_2_bridging():
    t0 = time.monotonic()

    async def main():
        ttn = Broker(name="ttn")
        await ttn.start("127.0.0.1", 0)
        zigbee = Broker(name="zigbee")
        await zigbee.start("127.0.0.1", 0)
        local = Broker(name="local", max_session_queue=4096)
        await local.start("127.0.0.1", 0)
        b1 = local.add_bridge(BridgeRule(
            remote=f"127.0.0.1:{ttn.address[1]}", direction="in", filter="v3/+/devices/#"))
        b2 = local.add_bridge(BridgeRule(
            remote=f"127.0.0.1:{zigbee.address[1]}", direction="in", filter="zigbee/#"))
        await asyncio.wait_for(b1.link.up.wait(), 10)
        await asyncio.wait_for(b2.link.up.wait(), 10)

        local_sub = await MqttClient.connect(*local.address, client_id="local-count")
        await local_sub.subscribe(["#"])
        ttn_count = await MqttClient.connect(*ttn.address, client_id="ttn-count")
        await ttn_count.subscribe(["#"])
        zig_count = await MqttClient.connect(*zigbee.address, client_id="zig-count")
        await zig_count.subscribe(["#"])

        pub_ttn = await MqttClient.connect(*ttn.address, client_id="pub-ttn")
        pub_zig = await MqttClient.connect(*zigbee.address, client_id="pub-zig")
        n = 1000
        for i in range(n):
            await pub_ttn.publish(f"v3/app/devices/d{i % 7}/up", b"%d" % i)
            await pub_zig.publish(f"zigbee/m{i % 5}/state", b"%d" % i)
            await asyncio.sleep(0)  # QoS 0: stay within subscriber queue capacity

        local_seen: dict[tuple, int] = {}
        for _ in range(2 * n):
            topic, payload, _ = await local_sub.next_message(timeout=10)
            key = (topic, bytes(payload))
            local_seen[key] = local_seen.get(key, 0) + 1
        extra = 0
        try:
            await local_sub.next_message(timeout=0.5)
            extra += 1
        except asyncio.TimeoutError:
            pass

        # exactly once: 2000 distinct (topic, payload) pairs, each seen once
        assert len(local_seen) == 2 * n
        assert all(v == 1 for v in local_seen.values())
        assert extra == 0

        # zero echoes back to the origin brokers: counters see the originals only
        async def count_all(client):
            seen = 0
            try:
                while True:
                    await client.next_message(timeout=0.5)
                    seen += 1
            except asyncio.TimeoutError:
                return seen

        assert await count_all(ttn_count) == n
        assert await count_all(zig_count) == n

        for c in (local_sub, ttn_count, zig_count, pub_ttn, pub_zig):
            await c.close()
        for b in (local, ttn, zigbee):
            await b.stop()

    run(main())
    elapsed = time.monotonic() - t0
    report(2, elapsed < 60,
           f"1000 msgs per remote appear exactly once on local, zero echoes, "
           f"{elapsed:.1f}s (< 60s)")


# --- criterion 3: coffee end-to-end -------------------------------------------------------


def test_acceptance_3_coffee_end_to_end(demo_runs):
    sequences, results, elapsed = demo_runs
    all_equal = all(seq == sequences[0] for seq in sequences)
    matches_truth = sequences[0] == GROUND_TRUTH
    report(3, all_equal and matches_truth and len(sequences) == 10 and elapsed < 180,
           f"10 seeded demo runs, sequence {sequences[0]}, identical={all_equal}, "
           f"matches ground truth={matches_truth}, {elapsed:.1f}s (< 180s)")


# --- criterion 4: latency properties ------------------------------------------------------


def test_acceptance_4a_tap_ordering(experiment45):
    result, _ = experiment45
    complete = result.taps.complete_records()
    ordered = sum(1 for r in complete if r.ordered)
    report(4, bool(complete) and ordered == len(complete),
           f"(a) tap ordering gateway<=broker<=eventbus<=client on "
           f"{ordered}/{len(complete)} complete records")


def test_acceptance_4b_end_to_end_mean(experiment45):
    result, _ = experiment45
    mean = result.end_to_end().mean_ms
    report(4, mean < 50.0, f"(b) end-to-end mean {mean:.2f} ms < 50 ms (N=45, 120 s)")


def test_acceptance_4c_deepdish_offset(experiment45):
    result, _ = experiment45
    per_category = result.per_category_stats()
    offset = per_category["deepdish"].mean_ms - per_category["smartplug"].mean_ms
    report(4, 150.0 <= offset <= 250.0,
           f"(c) deepdish mean exceeds smartplug mean by {offset:.1f} ms (200 +/- 50)")


def test_acceptance_4d_scaling_flatness(sweep_points, experiment45):
    mean10, mean100 = sweep_points
    mean45 = experiment45[0].end_to_end().mean_ms
    report(4, mean100 <= 2 * mean10,
           f"(d) sweep means N=10:{mean10:.2f} N=45:{mean45:.2f} N=100:{mean100:.2f} ms; "
           f"mean(100) <= 2 x mean(10)")


# --- criterion 5: non-blocking contract ---------------------------------------------------


def test_acceptance_5_non_blocking():
    async def main():
        import gc

        rts = RealTimeServer()
        monitor = DataMonitor()
        await rts.deploy(monitor)

        healthy = await MonitorClient.connect(*monitor.address)
        await healthy.subscribe(["feed/#"])
        received = []

        async def consume():
            while True:
                line = await healthy.next()
                received.append(line["seq"])

        consumer = asyncio.create_task(consume())

        def msg(i):
            return NormalizedMessage("bench", 1_600_000_000_000 + i, "smartplug",
                                     {"power_w": 1.0}, b"{}", 1_600_000_000_000 + i)

        async def measure(n=5000):
            durations = []
            for i in range(n):
                t0 = time.perf_counter_ns()
                rts.bus.publish("feed/smartplug/bench", msg(i), publisher="bench")
                durations.append(time.perf_counter_ns() - t0)
                if i % 20 == 0:
                    await asyncio.sleep(0)
            durations.sort()
            return durations[int(0.99 * n)]

        gc.disable()
        try:
            await measure(500)  # warmup
            p99_base = await measure()
            baseline_total = len([s for s in received])

            # stalled client: subscribes, then never reads its socket
            import socket as socketlib
            stalled = socketlib.create_connection(monitor.address)
            stalled.sendall(b'{"method": "subscribe", "filters": ["feed/#"]}\n')
            await asyncio.sleep(0.3)

            p99_stalled = await measure()
        finally:
            gc.enable()

        # drain the healthy client's tail
        for _ in range(200):
            if len(received) >= 11_000:
                break
            await asyncio.sleep(0.05)
        stalled.close()
        consumer.cancel()
        await asyncio.gather(consumer, return_exceptions=True)
        total = len(received)
        await healthy.close()
        await rts.stop()
        return p99_base, p99_stalled, total, baseline_total

    p99_base, p99_stalled, total, _ = run(main())
    # 500 warmup + 5000 + 5000 measured publishes, all to the healthy client
    report(5, p99_stalled < 2 * p99_base and total == 10_500,
           f"p99 publish {p99_base}ns -> {p99_stalled}ns with stalled client "
           f"(< 2x), healthy client received {total}/10500 envelopes")


# --- criterion 6: conservation audit ------------------------------------------------------


def test_acceptance_6_conservation(demo_runs):
    _, results, _ = demo_runs
    ok = True
    for result in results:
        for row in result.audit:
            if not row["conserved"]:
                ok = False
        feed = result.feed
        if feed["received"] != feed["published"] + feed["deadlettered"]:
            ok = False
    subs = sum(len(r.audit) for r in results)
    report(6, ok and subs > 0,
           f"published = delivered + drops + stale-drops over {subs} subscriptions "
           f"across {len(results)} demo runs; feedhandler in = out + deadletters")


# --- criterion 7: metadata time travel ----------------------------------------------------


def test_acceptance_7_metadata_time_travel():
    rng = random.Random(0x7A)
    t0 = time.monotonic()

    # 10^4 randomized device histories checked against a linear-scan oracle
    checked = 0
    for _ in range(10_000):
        store = MetadataStore()
        store.add_container(SpatialContainer("b", "building", "B"), ts=1)
        store.add_container(SpatialContainer("r", "room", "R", parent_id="b"), ts=1)
        ts_values = sorted(rng.sample(range(2, 5000), rng.randint(1, 8)))
        for ts in ts_values:
            store.upsert_device(DeviceMetadataRecord(
                "d", ts, {"location": {"x_m": 0, "y_m": 0, "floor": 0, "h_m": 0,
                                       "container_id": "r"}}))
        for _ in range(3):
            q = rng.randint(0, 5500)
            want = max((ts for ts in ts_values if ts <= q), default=None)
            got = store.get_asof("d", q)
            assert (got.ts if got else None) == want
            checked += 1

    # devices_in vs descendant-set oracle, and reparent stability
    def loc(c):
        return {"location": {"x_m": 0, "y_m": 0, "floor": 0, "h_m": 0, "container_id": c}}

    moved_ok = True
    for _ in range(50):
        store = MetadataStore()
        store.add_container(SpatialContainer("b", "building", "B"), ts=1)
        rooms = [f"r{i}" for i in range(4)]
        store.add_container(SpatialContainer("f0", "floor", "F0", parent_id="b"), ts=1)
        store.add_container(SpatialContainer("f1", "floor", "F1", parent_id="b"), ts=1)
        for i, room in enumerate(rooms):
            store.add_container(SpatialContainer(room, "room", room,
                                                 parent_id=f"f{i % 2}"), ts=1)
        t = 1
        for d in range(8):
            t += 1
            store.upsert_device(DeviceMetadataRecord(f"d{d}", t, loc(rng.choice(rooms))))
        before = {c: store.devices_in(c, 100) for c in ["b", "f0", "f1"] + rooms}
        store.reparent(rooms[0], "f1", ts=200)  # rooms[0] was under f0 or f1
        after = {c: store.devices_in(c, 100) for c in ["b", "f0", "f1"] + rooms}
        if before != after:
            moved_ok = False
        for c in ["b", "f0", "f1"] + rooms:
            q = rng.randint(1, 300)
            want = sorted(
                d for d in store.device_ids()
                if (r := store.get_asof(d, q)) is not None
                and r.location().container_id in store.descendants(c, q))
            assert store.devices_in(c, q) == want
            checked += 1

    elapsed = time.monotonic() - t0
    report(7, moved_ok,
           f"10^4 histories + hierarchy queries agree with linear-scan oracles "
           f"({checked} checks), reparent never affects pre-reparent queries, "
           f"{elapsed:.1f}s")


# --- criterion 8: storage replay ----------------------------------------------------------


def test_acceptance_8_storage_replay(experiment45):
    result, data_root = experiment45
    counts_match = result.filer_counts == result.emission_counts
    latest_ok = True
    for device_dir in data_root.iterdir():
        if not device_dir.is_dir():
            continue
        max_ts = -1
        for day_file in device_dir.rglob("*.jsonl"):
            for line in day_file.read_text().splitlines():
                if line.strip():
                    max_ts = max(max_ts, json.loads(line)["ts"])
        latest = json.loads((device_dir / "latest.json").read_text())
        if latest["ts"] != max_ts:
            latest_ok = False
    report(8, counts_match and latest_ok,
           f"JSONL line counts equal emission-log counts for "
           f"{len(result.emission_counts)} devices "
           f"({sum(result.emission_counts.values())} messages); "
           f"latest.json holds maximal ts: {latest_ok}")
