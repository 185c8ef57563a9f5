"""Simulator: payload shapes, emission schedules, scenarios, transports."""

import asyncio
import json
import random

import pytest

from sensert import simfleet
from sensert.broker import Broker
from sensert.decoders import NormalizedMessage, default_registry
from sensert.mqtt_client import MqttClient
from sensert.rts.coffee import replay
from sensert.simfleet import (
    CoffeePotState,
    DeviceProfile,
    DeconzWsServer,
    FleetRunner,
    ScenarioEntry,
    ScenarioScript,
    Transports,
    ZigbeeTranslator,
    build_payload,
    co2_excursion_scenario,
    coffee_scenario,
    default_state,
    emit_reading,
    load_fleet,
    power_outage_scenario,
    save_fleet,
    stable_seed,
)
from sensert.ws import OP_TEXT, ws_connect, ws_handshake_server


def run(coro):
    return asyncio.run(coro)


# --- payload shapes close the loop with the decoders -------------------------------

@pytest.mark.parametrize("family", [
    "smartplug", "lora_co2", "lora_temp", "lora_occupancy",
    "zigbee_motion", "zigbee_door", "deepdish", "coffee",
])
def test_every_family_payload_decodes(family):
    profile = DeviceProfile(f"{family}-dev", family)
    raw = emit_reading(profile, t_ms=1_600_000_000_000)
    registry = default_registry()
    out = registry.normalize(raw)
    assert isinstance(out, NormalizedMessage)
    assert out.device_id == f"{family}-dev"
    assert out.sim_t0 == 1_600_000_000_000


def test_smartplug_shape():
    raw = emit_reading(DeviceProfile("p1", "smartplug"), t_ms=1_600_000_000_000)
    assert raw.topic == "tele/p1/SENSOR"
    payload = json.loads(raw.payload)
    assert "ENERGY" in payload and "Power" in payload["ENERGY"]
    assert payload["sim_t0"] == 1_600_000_000_000


def test_ttn_shape():
    raw = emit_reading(DeviceProfile("co2-7", "lora_co2"), t_ms=1)
    assert raw.topic == "v3/app/devices/co2-7/up"
    payload = json.loads(raw.payload)
    assert payload["end_device_ids"]["device_id"] == "co2-7"
    assert "co2" in payload["uplink_message"]["decoded_payload"]


def test_zigbee_shape():
    raw = emit_reading(DeviceProfile("m1", "zigbee_motion"), t_ms=1)
    payload = json.loads(raw.payload)
    assert payload["e"] == "changed"
    assert payload["r"] == "sensors"
    assert "presence" in payload["state"]


def test_coffee_shape_and_noise():
    rng = random.Random(1)
    state = CoffeePotState(pot_present=True, coffee_kg=2.0)
    topic, payload = build_payload(DeviceProfile("pot-1", "coffee"), state, 1, rng, 1)
    assert topic == "coffee/pot-1/reading"
    assert abs(payload["weight_kg"] - 2.5) < 0.05  # 0.5 pot + 2.0 coffee + noise
    assert payload["ts"] == payload["sim_t0"] == 1


def test_deepdish_default_extra_delay():
    assert DeviceProfile("cam", "deepdish").extra_delay_s == pytest.approx(0.2)
    assert DeviceProfile("cam", "deepdish", extra_delay_s=0.1).extra_delay_s == 0.1


def test_profile_validation():
    with pytest.raises(ValueError):
        DeviceProfile("x", "nonsense")
    with pytest.raises(ValueError):
        DeviceProfile("x", "coffee", period_s=0)


def test_fleet_file_roundtrip(tmp_path):
    fleet = [DeviceProfile("a", "smartplug"), DeviceProfile("b", "lora_co2", period_s=2.0)]
    path = tmp_path / "fleet.json"
    save_fleet(path, fleet)
    assert load_fleet(path) == fleet


def test_stable_seed_is_deterministic():
    assert stable_seed(42, "pot-1") == stable_seed(42, "pot-1")
    assert stable_seed(42, "pot-1") != stable_seed(43, "pot-1")


# --- scenario scripts ----------------------------------------------------------------

def test_scenario_offsets_must_be_sorted():
    with pytest.raises(ValueError):
        ScenarioScript("bad", [], [ScenarioEntry(2.0, "d", {}), ScenarioEntry(1.0, "d", {})], 5.0)


def test_coffee_scenario_ground_truth_consistent_with_detector():
    """Replaying the emitted series through the reference detector yields
    exactly the scenario's attached ground-truth events."""
    scenario = coffee_scenario()
    profile = scenario.profiles[0]
    rng = random.Random(stable_seed(42, profile.device_id, "noise"))
    state = CoffeePotState()
    registry = default_registry()

    readings = []
    entry_idx = 0
    tick = 0
    t = 0.0
    while t <= scenario.duration_s:
        tick += 1
        t = tick * profile.period_s
        while entry_idx < len(scenario.entries) and scenario.entries[entry_idx].t_offset_s <= t:
            for key, value in scenario.entries[entry_idx].fields.items():
                setattr(state, key, value)
            entry_idx += 1
        t_ms = 1_600_000_000_000 + int(t * 1000)
        raw = emit_reading(profile, t_ms=t_ms, state=state, rng=rng, tick=tick)
        readings.append(registry.normalize(raw))

    events = [e.event_type for e in replay(readings) if e.event_type in scenario.watch_events]
    assert events == scenario.ground_truth


def test_coffee_scenario_full_pot_plateau_and_pours():
    scenario = coffee_scenario()
    # full pot: 0.5 kg pot + 2.0 kg coffee
    ramp_targets = [e.fields.get("coffee_kg") for e in scenario.entries if "coffee_kg" in e.fields]
    assert max(v for v in ramp_targets if v is not None) == 2.0
    # each scripted pour steps down by one 0.25 kg cup
    pours = [v for v in ramp_targets if v in (1.75, 1.5, 1.25, 1.0)]
    assert pours == [1.75, 1.5, 1.25, 1.0]
    # grinder phase exceeds the 40 W detection threshold
    grind = [e.fields["grinder_w"] for e in scenario.entries if e.fields.get("grinder_w")]
    assert max(grind) > 40.0


def test_other_scenarios_shape():
    co2 = co2_excursion_scenario()
    assert co2.ground_truth == ["threshold-crossed", "threshold-cleared"]
    assert co2.rules[0]["value"] == 1000
    outage = power_outage_scenario()
    assert outage.ground_truth == ["threshold-crossed"]


# --- fleet runner against a live broker -------------------------------------------------

async def _collect(broker, filters):
    client = await MqttClient.connect(*broker.address, client_id="collector")
    await client.subscribe(filters)
    return client


def test_run_fleet_emission_counts():
    async def main():
        local = Broker(name="local")
        await local.start("127.0.0.1", 0)
        transports = Transports(local=local.address)
        await transports.start()
        profiles = [
            DeviceProfile("p1", "smartplug", period_s=0.1),
            DeviceProfile("p2", "smartplug", period_s=0.25),
        ]
        runner = FleetRunner(profiles, transports, seed=1)
        log = await runner.run(duration_s=1.0)
        counts = log.counts()
        assert abs(counts["p1"] - 10) <= 1
        assert abs(counts["p2"] - 4) <= 1
        assert all(q.dropped == 0 for q in runner.buffers.values())
        await transports.stop()
        await local.stop()

    run(main())


def test_run_fleet_empty_profile_list():
    async def main():
        local = Broker(name="local")
        await local.start("127.0.0.1", 0)
        transports = Transports(local=local.address)
        await transports.start()
        log = await FleetRunner([], transports, seed=1).run(duration_s=0.3)
        assert len(log) == 0
        await transports.stop()
        await local.stop()

    run(main())


def test_scenario_single_override_marks_one_emission():
    async def main():
        local = Broker(name="local")
        await local.start("127.0.0.1", 0)
        transports = Transports(local=local.address)
        await transports.start()
        scenario = ScenarioScript(
            "one", [DeviceProfile("p1", "smartplug", period_s=0.1)],
            [ScenarioEntry(0.5, "p1", {"power_w": 99.0})], duration_s=1.0)
        runner = FleetRunner([], transports, scenario=scenario, seed=1)
        log = await runner.run(duration_s=1.2)
        overridden = [r for r in log.records if r.overridden]
        assert len(overridden) == 1
        await transports.stop()
        await local.stop()

    run(main())


def test_messages_actually_reach_broker():
    async def main():
        local = Broker(name="local")
        await local.start("127.0.0.1", 0)
        sub = await _collect(local, ["tele/#"])
        transports = Transports(local=local.address)
        await transports.start()
        runner = FleetRunner([DeviceProfile("p1", "smartplug", period_s=0.1)],
                             transports, seed=1)
        log = await runner.run(duration_s=0.55)
        received = 0
        try:
            while True:
                await sub.next_message(timeout=0.3)
                received += 1
        except asyncio.TimeoutError:
            pass
        assert received == len(log)
        await sub.close()
        await transports.stop()
        await local.stop()

    run(main())


def test_transport_down_buffers_then_drops():
    async def main():
        # no broker at all: the wifi transport never comes up
        transports = Transports(local=("127.0.0.1", 1))
        runner = FleetRunner([DeviceProfile("p1", "smartplug", period_s=0.01)],
                             transports, seed=1)
        log = await runner.run(duration_s=1.5)
        assert len(log) == 0  # nothing was actually sent
        buffer = runner.buffers["p1"]
        assert buffer.pending == 100  # buffer capped
        assert buffer.dropped > 0
        assert buffer.offered == buffer.delivered + buffer.dropped + buffer.pending
        return None

    run(main())


# --- deconz websocket chain ---------------------------------------------------------------

def test_deconz_ws_to_translator_to_broker():
    async def main():
        zigbee = Broker(name="zigbee")
        await zigbee.start("127.0.0.1", 0)
        taps = []
        server = DeconzWsServer(on_push=lambda topic, payload, t: taps.append(topic))
        await server.start()
        translator = ZigbeeTranslator(*server.address, *zigbee.address)
        await translator.start()

        sub = await _collect(zigbee, ["zigbee/#"])
        await asyncio.wait_for(translator.link.up.wait(), 10)
        server.push_event({"e": "changed", "r": "sensors", "id": "m1",
                           "state": {"presence": True}, "sim_t0": 123})
        topic, payload, _ = await sub.next_message(timeout=3)
        assert topic == "zigbee/m1/state"
        assert json.loads(payload)["state"]["presence"] is True
        assert taps == ["zigbee/m1/state"]

        await sub.close()
        await translator.stop()
        await server.stop()
        await zigbee.stop()

    run(main())


def test_deconz_uplink_fails_fast_without_a_translator():
    """With no websocket client connected, ZigBee readings stay in the device
    buffer instead of being logged as emitted and lost."""

    async def main():
        taps = []
        server = DeconzWsServer(on_push=lambda topic, payload, t: taps.append(topic))
        await server.start()
        transports = Transports(local=("127.0.0.1", 1), deconz=server)
        runner = FleetRunner([DeviceProfile("z1", "zigbee_motion", period_s=0.05)],
                             transports, seed=1)
        log = await runner.run(duration_s=0.3)
        assert len(log) == 0 and server.pushed == 0 and taps == []
        buffer = runner.buffers["z1"]
        assert buffer.pending == buffer.offered > 0
        await server.stop()

    run(main())


def test_deconz_server_closes_connection_the_peer_closed(monkeypatch):
    """When the translator hangs up first, the gateway closes its side too."""
    accepted = []

    async def recording_handshake(reader, writer):
        conn = await ws_handshake_server(reader, writer)
        accepted.append(writer)
        return conn

    monkeypatch.setattr(simfleet, "ws_handshake_server", recording_handshake)

    async def main():
        server = DeconzWsServer()
        await server.start()
        client = await ws_connect(*server.address)
        for _ in range(100):
            if accepted:
                break
            await asyncio.sleep(0.01)
        await client.close()
        for _ in range(100):
            if accepted[0].transport.is_closing():
                break
            await asyncio.sleep(0.01)
        assert accepted[0].transport.is_closing()
        await server.stop()

    run(main())


@pytest.mark.parametrize("bad", [b"[1, 2]", b'"text"', b"\xff\xfe{}", b'{"id": "a+b"}'],
                         ids=["json-array", "json-string", "invalid-utf8", "wildcard-id"])
def test_bad_gateway_frame_does_not_end_zigbee_stream(bad):
    async def main():
        zigbee = Broker(name="zigbee")
        await zigbee.start("127.0.0.1", 0)
        sub = await _collect(zigbee, ["zigbee/#"])
        connections = 0

        async def gateway(reader, writer):
            # the first connection sends the bad frame before a valid event
            nonlocal connections
            connections += 1
            await ws_handshake_server(reader, writer)
            good = json.dumps({"id": "m1", "state": {"presence": True}}).encode()
            for text in ([bad] if connections == 1 else []) + [good]:
                writer.write(bytes([0x80 | OP_TEXT, len(text)]) + text)
            await writer.drain()
            await reader.read()  # until the translator hangs up
            writer.close()

        server = await asyncio.start_server(gateway, "127.0.0.1", 0)
        translator = ZigbeeTranslator(*server.sockets[0].getsockname()[:2], *zigbee.address)
        await translator.start()
        topic, payload, _ = await sub.next_message(timeout=5)
        assert (topic, json.loads(payload)["id"]) == ("zigbee/m1/state", "m1")
        assert translator.forwarded == 1

        await sub.close()
        await translator.stop()
        server.close()
        await server.wait_closed()
        await zigbee.stop()

    run(main())


def test_full_zigbee_device_through_fleet():
    async def main():
        local = Broker(name="local")
        await local.start("127.0.0.1", 0)
        zigbee = Broker(name="zigbee")
        await zigbee.start("127.0.0.1", 0)
        server = DeconzWsServer()
        await server.start()
        translator = ZigbeeTranslator(*server.address, *zigbee.address)
        await translator.start()
        await asyncio.sleep(0.3)

        sub = await _collect(zigbee, ["zigbee/#"])
        transports = Transports(local=local.address, deconz=server)
        await transports.start()
        runner = FleetRunner([DeviceProfile("m1", "zigbee_motion", period_s=0.1)],
                             transports, seed=1)
        log = await runner.run(duration_s=0.55)
        assert len(log) >= 4
        received = 0
        try:
            while True:
                await sub.next_message(timeout=0.3)
                received += 1
        except asyncio.TimeoutError:
            pass
        assert received == len(log)

        await sub.close()
        await transports.stop()
        await translator.stop()
        await server.stop()
        await zigbee.stop()
        await local.stop()

    run(main())


def test_default_state_per_family():
    rng = random.Random(0)
    assert isinstance(default_state(DeviceProfile("c", "coffee"), rng), CoffeePotState)
    assert "co2" in default_state(DeviceProfile("c", "lora_co2"), rng)
