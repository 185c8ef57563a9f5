"""Format-faithful simulator of the physical and network layers.

Device profiles emit timestamped payloads in each family's native JSON shape
over the matching transport: Tasmota-style smart plugs and the coffee node
over the local (Wi-Fi) broker, LoRa sensors as TTN v3 uplinks over the ttn
broker, and ZigBee sensors as gateway websocket events that a read/write
translator republishes on the zigbee broker. Every payload embeds ``sim_t0``
(epoch ms at reading generation) so the latency harness can measure from the
moment of generation without any clock skew.

Payload schemas for third-party sensors are representative fixtures, shaped
after the vendor formats they stand in for; the decoders in this package are
the contract they are validated against.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import logging
import random
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable, NamedTuple

from .decoders import RawSensorMessage
from .mqtt_client import MqttClient
from .pipe import BoundedQueue, Link, now_ms
from .ws import WsConnection, ws_connect, ws_handshake_server

log = logging.getLogger(__name__)

TRANSPORTS = ("wifi_mqtt", "ttn_mqtt", "deconz_ws")

FAMILY_TRANSPORT = {
    "smartplug": "wifi_mqtt",
    "lora_co2": "ttn_mqtt",
    "lora_temp": "ttn_mqtt",
    "lora_occupancy": "ttn_mqtt",
    "zigbee_motion": "deconz_ws",
    "zigbee_door": "deconz_ws",
    "deepdish": "wifi_mqtt",
    "coffee": "wifi_mqtt",
}
FAMILIES = tuple(FAMILY_TRANSPORT)

# Models the people-counter's on-device inference time.
DEEPDISH_DELAY_S = 0.2

DEVICE_BUFFER_CAP = 100
WEIGHT_NOISE_SIGMA_KG = 0.01


def stable_seed(*parts: Any) -> int:
    """Process-independent RNG seed (str hashing is salted per process)."""
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass
class DeviceProfile:
    device_id: str
    family: str
    period_s: float = 1.0
    transport: str | None = None
    jitter_s: float = 0.0
    extra_delay_s: float = 0.0
    app_id: str = "app"

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.transport is None:
            self.transport = FAMILY_TRANSPORT[self.family]
        if self.transport not in TRANSPORTS:
            raise ValueError(f"unknown transport {self.transport!r}")
        if self.period_s <= 0:
            raise ValueError("period_s must be positive")
        if self.jitter_s < 0 or self.extra_delay_s < 0:
            raise ValueError("jitter_s and extra_delay_s must be non-negative")
        if self.family == "deepdish" and self.extra_delay_s == 0.0:
            self.extra_delay_s = DEEPDISH_DELAY_S

    def to_jsonable(self) -> dict:
        return asdict(self)

    @classmethod
    def from_jsonable(cls, raw: dict) -> "DeviceProfile":
        return cls(
            device_id=raw["device_id"],
            family=raw["family"],
            period_s=float(raw.get("period_s", 1.0)),
            transport=raw.get("transport"),
            jitter_s=float(raw.get("jitter_s", 0.0)),
            extra_delay_s=float(raw.get("extra_delay_s", 0.0)),
            app_id=raw.get("app_id", "app"),
        )


def load_fleet(path: str | Path) -> list[DeviceProfile]:
    return [DeviceProfile.from_jsonable(x) for x in json.loads(Path(path).read_text())]


def save_fleet(path: str | Path, profiles: list[DeviceProfile]) -> None:
    Path(path).write_text(json.dumps([p.to_jsonable() for p in profiles], indent=2))


@dataclass
class CoffeePotState:
    """Simulation-side ground truth for the coffee sensor node."""

    pot_present: bool = True
    coffee_kg: float = 0.0
    grinder_w: float = 0.0
    brewer_w: float = 0.0

    def reported_weight(self, rng: random.Random, sigma: float = WEIGHT_NOISE_SIGMA_KG) -> float:
        true_weight = (0.5 + self.coffee_kg) if self.pot_present else 0.0
        return max(0.0, true_weight + rng.gauss(0.0, sigma))


def default_state(profile: DeviceProfile, rng: random.Random) -> Any:
    if profile.family == "coffee":
        return CoffeePotState()
    if profile.family == "smartplug":
        return {"power_w": round(rng.uniform(20.0, 60.0), 1)}
    if profile.family == "lora_co2":
        return {"co2": 600, "temperature": 21.5, "humidity": 40}
    if profile.family == "lora_temp":
        return {"temperature": round(rng.uniform(18.0, 24.0), 1)}
    if profile.family == "lora_occupancy":
        return {"occupancy": 1, "temperature": 21.0, "humidity": 40, "light": 300, "motion": 0}
    if profile.family == "zigbee_motion":
        return {"presence": False}
    if profile.family == "zigbee_door":
        return {"open": False}
    if profile.family == "deepdish":
        return {"count": rng.randint(0, 12)}
    raise ValueError(profile.family)


def _iso_utc(t_ms: int) -> str:
    return datetime.fromtimestamp(t_ms / 1000.0, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%S")


def build_payload(profile: DeviceProfile, state: Any, t_ms: int,
                  rng: random.Random, tick: int) -> tuple[str, dict]:
    """(topic, payload) in the family's native shape, sim_t0 embedded."""
    device = profile.device_id
    family = profile.family
    if family == "smartplug":
        topic = f"tele/{device}/SENSOR"
        payload = {
            "Time": _iso_utc(t_ms),
            "ENERGY": {"Power": state["power_w"], "Total": round(tick * 0.001, 3)},
            "sim_t0": t_ms,
        }
    elif family in ("lora_co2", "lora_temp", "lora_occupancy"):
        topic = f"v3/{profile.app_id}/devices/{device}/up"
        payload = {
            "end_device_ids": {"device_id": device},
            "uplink_message": {"decoded_payload": dict(state)},
            "sim_t0": t_ms,
        }
    elif family == "zigbee_motion":
        if tick % 5 == 0:
            state["presence"] = not state["presence"]
        topic = f"zigbee/{device}/state"
        payload = {"e": "changed", "r": "sensors", "id": device,
                   "state": {"presence": state["presence"]}, "sim_t0": t_ms}
    elif family == "zigbee_door":
        if tick % 8 == 0:
            state["open"] = not state["open"]
        topic = f"zigbee/{device}/state"
        payload = {"e": "changed", "r": "sensors", "id": device,
                   "state": {"open": state["open"]}, "sim_t0": t_ms}
    elif family == "deepdish":
        topic = f"deepdish/{device}/count"
        payload = {"count": state["count"], "sim_t0": t_ms}
    elif family == "coffee":
        topic = f"coffee/{device}/reading"
        payload = {
            "weight_kg": round(state.reported_weight(rng), 4),
            "grinder_w": state.grinder_w,
            "brewer_w": state.brewer_w,
            "ts": t_ms,
            "sim_t0": t_ms,
        }
    else:
        raise ValueError(family)
    return topic, payload


def emit_reading(profile: DeviceProfile, t_ms: int | None = None,
                 state: Any = None, rng: random.Random | None = None,
                 tick: int = 1) -> RawSensorMessage:
    """One reading as it would hit the first hop; mainly for tests and docs."""
    rng = rng or random.Random(0)
    t_ms = t_ms if t_ms is not None else now_ms()
    state = state if state is not None else default_state(profile, rng)
    topic, payload = build_payload(profile, state, t_ms, rng, tick)
    return RawSensorMessage(topic=topic, payload=json.dumps(payload).encode(), received_at=t_ms)


# --- scenarios -----------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioEntry:
    t_offset_s: float
    device_id: str
    fields: dict[str, Any]


@dataclass
class ScenarioScript:
    name: str
    profiles: list[DeviceProfile]
    entries: list[ScenarioEntry]
    duration_s: float
    ground_truth: list[str] = field(default_factory=list)
    watch_events: tuple[str, ...] = ()
    rules: list[dict] = field(default_factory=list)

    def __post_init__(self):
        offsets = [e.t_offset_s for e in self.entries]
        if offsets != sorted(offsets):
            raise ValueError("scenario offsets must be non-decreasing")


def coffee_scenario(period_s: float = 0.1) -> ScenarioScript:
    """Canonical compressed day at the coffee pot.

    Grind, brew a full pot (0.5 kg pot + 2 kg coffee), four quarter-kilo
    pours, pot removed, empty pot returned. The attached ground-truth event
    list is what the reference detector must produce from the emitted trace.
    """
    device = "pot-1"
    entries: list[ScenarioEntry] = []

    def at(t, **fields):
        entries.append(ScenarioEntry(t, device, dict(fields)))

    at(0.0, pot_present=True, coffee_kg=0.0, grinder_w=0.0, brewer_w=0.0)
    at(1.0, grinder_w=150.0)
    at(2.0, grinder_w=0.0)
    at(2.5, brewer_w=900.0)
    ramp_steps = 25
    for k in range(1, ramp_steps + 1):
        at(2.5 + 2.5 * k / ramp_steps, coffee_kg=round(2.0 * k / ramp_steps, 4))
    at(5.2, brewer_w=0.0)
    at(5.8, coffee_kg=1.75)
    at(6.8, coffee_kg=1.5)
    at(7.8, coffee_kg=1.25)
    at(8.8, coffee_kg=1.0)
    at(9.8, pot_present=False)
    at(10.8, pot_present=True, coffee_kg=0.0)

    return ScenarioScript(
        name="coffee",
        profiles=[DeviceProfile(device, "coffee", period_s=period_s)],
        entries=entries,
        duration_s=12.5,
        ground_truth=["coffee-grinding", "new-pot",
                      "pot-poured", "pot-poured", "pot-poured", "pot-poured",
                      "pot-removed", "pot-empty"],
        watch_events=("coffee-grinding", "new-pot", "pot-poured", "pot-removed", "pot-empty"),
    )


def co2_excursion_scenario(period_s: float = 0.2) -> ScenarioScript:
    """CO2 rises past 1000 ppm then recovers: one crossed, one cleared."""
    device = "co2-1"
    entries = [
        ScenarioEntry(0.0, device, {"co2": 900}),
        ScenarioEntry(1.0, device, {"co2": 1100}),
        ScenarioEntry(2.0, device, {"co2": 1200}),
        ScenarioEntry(3.0, device, {"co2": 950}),
    ]
    return ScenarioScript(
        name="co2",
        profiles=[DeviceProfile(device, "lora_co2", period_s=period_s)],
        entries=entries,
        duration_s=4.5,
        ground_truth=["threshold-crossed", "threshold-cleared"],
        watch_events=("threshold-crossed", "threshold-cleared"),
        rules=[{"filter": "feed/ttn/#", "field": "co2", "op": ">",
                "value": 1000, "hysteresis": 50}],
    )


def power_outage_scenario(period_s: float = 0.2) -> ScenarioScript:
    """A smart plug's power reading collapses to zero: one outage event."""
    device = "plug-crit"
    entries = [
        ScenarioEntry(0.0, device, {"power_w": 35.0}),
        ScenarioEntry(1.5, device, {"power_w": 0.0}),
    ]
    return ScenarioScript(
        name="outage",
        profiles=[DeviceProfile(device, "smartplug", period_s=period_s)],
        entries=entries,
        duration_s=3.0,
        ground_truth=["threshold-crossed"],
        watch_events=("threshold-crossed", "threshold-cleared"),
        rules=[{"filter": "feed/smartplug/#", "field": "power_w", "op": "<",
                "value": 1.0, "hysteresis": 5.0}],
    )


SCENARIOS: dict[str, Callable[[], ScenarioScript]] = {
    "coffee": coffee_scenario,
    "co2": co2_excursion_scenario,
    "outage": power_outage_scenario,
}


# --- deCONZ gateway emulation -----------------------------------------------------


class DeconzWsServer:
    """Gateway emulation: pushes sensor events to websocket subscribers."""

    def __init__(self, on_push: Callable[[str, bytes, int], None] | None = None):
        # on_push(topic_hint, payload, t_ms) is the first-hop tap.
        self._on_push = on_push
        self._clients: list[WsConnection] = []
        self._handlers: set[asyncio.Task] = set()
        self._server: asyncio.AbstractServer | None = None
        self.address: tuple[str, int] | None = None
        self.pushed = 0

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        self._server = await asyncio.start_server(self._handle, host, port)
        self.address = self._server.sockets[0].getsockname()[:2]
        return self.address

    async def stop(self) -> None:
        for conn in list(self._clients):
            await conn.close()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # the server does not wait for its connections: end each handler here
        for task in self._handlers:
            task.cancel()
        await asyncio.gather(*self._handlers, return_exceptions=True)

    async def _handle(self, reader, writer) -> None:
        me = asyncio.current_task()
        self._handlers.add(me)
        me.add_done_callback(self._handlers.discard)
        try:
            conn = await ws_handshake_server(reader, writer)
        except Exception as exc:
            log.warning("deconz-ws: handshake failed: %s", exc)
            writer.close()
            return
        self._clients.append(conn)
        try:
            while await conn.recv_text() is not None:
                pass  # clients only listen; drain pings/ignore input
        finally:
            if conn in self._clients:
                self._clients.remove(conn)
            await conn.close()  # the peer may have closed first: close our side too

    def push_event(self, event: dict) -> None:
        """Send to every websocket client; TransportDown while none is connected."""
        if not self._clients:
            raise TransportDown("deconz: no websocket client")
        text = json.dumps(event)
        if self._on_push is not None:
            device = str(event.get("id", ""))
            self._on_push(f"zigbee/{device}/state", text.encode(), now_ms())
        self.pushed += 1
        for conn in list(self._clients):
            try:
                conn.send_text_nowait(text)
            except Exception:
                if conn in self._clients:
                    self._clients.remove(conn)


class _GatewaySession(NamedTuple):
    """The translator's connection: the gateway websocket and the broker client."""

    ws: WsConnection
    client: MqttClient

    async def close(self) -> None:
        await self.ws.close()
        await self.client.close()


class ZigbeeTranslator:
    """Read/write bridge: gateway websocket events onto the zigbee broker over ``link``."""

    def __init__(self, ws_host: str, ws_port: int, broker_host: str, broker_port: int):
        self.ws_addr = (ws_host, ws_port)
        self.broker_addr = (broker_host, broker_port)
        self.forwarded = 0
        self.link: Link[_GatewaySession] = Link(self._open, self._serve)

    async def _open(self) -> _GatewaySession:
        ws = await ws_connect(*self.ws_addr)
        try:
            client = await MqttClient.connect(*self.broker_addr, client_id="zigbee-translator")
        except BaseException:
            await ws.close()
            raise
        return _GatewaySession(ws, client)

    async def _serve(self, session: _GatewaySession) -> None:
        while (text := await session.ws.recv_text()) is not None:
            try:
                event = json.loads(text)
            except ValueError:
                continue
            if not isinstance(event, dict):
                continue
            try:
                await session.client.publish(f"zigbee/{event.get('id', 'unknown')}/state",
                                             text.encode())
            except ValueError:  # the id makes no valid topic name
                continue
            self.forwarded += 1


# --- transports -------------------------------------------------------------------


class TransportDown(ConnectionError):
    pass


def _uplink(host: str, port: int, name: str) -> Link[MqttClient]:
    return Link(lambda: MqttClient.connect(host, port, client_id=f"sim-{name}"),
                MqttClient.wait_closed)


class Transports:
    """The three uplink channels keyed by DeviceProfile.transport; the MQTT ones are Links."""

    def __init__(self, local: tuple[str, int], ttn: tuple[str, int] | None = None,
                 deconz: DeconzWsServer | None = None):
        self._mqtt = {"wifi_mqtt": _uplink(*local, name="wifi")}
        if ttn:
            self._mqtt["ttn_mqtt"] = _uplink(*ttn, name="ttn")
        self._deconz = deconz
        self.uplinks = list(self._mqtt.values())

    async def start(self) -> None:
        for link in self.uplinks:
            link.start()

    async def stop(self) -> None:
        await asyncio.gather(*(link.stop() for link in self.uplinks))

    def publish(self, transport: str, topic: str, payload: dict) -> None:
        """Synchronous send: pairs atomically with the caller's emission log."""
        if transport in ("wifi_mqtt", "ttn_mqtt"):
            link = self._mqtt.get(transport)
            if link is None or link.conn is None:  # a device buffers while its link is down
                raise TransportDown(f"{transport} down or not configured")
            try:
                link.conn.publish_nowait(topic, json.dumps(payload).encode())
            except OSError as exc:  # an MqttError: the connection closed under us
                raise TransportDown(transport) from exc
        elif transport == "deconz_ws":
            if self._deconz is None:
                raise TransportDown("deconz transport not configured")
            self._deconz.push_event(payload)
        else:
            raise ValueError(f"unknown transport {transport!r}")


# --- fleet runner -------------------------------------------------------------------


@dataclass(frozen=True)
class EmissionRecord:
    device_id: str
    sim_t0: int
    topic: str
    overridden: bool = False


class EmissionLog:
    def __init__(self):
        self.records: list[EmissionRecord] = []

    def append(self, record: EmissionRecord) -> None:
        self.records.append(record)

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for r in self.records:
            out[r.device_id] = out.get(r.device_id, 0) + 1
        return out

    def __len__(self) -> int:
        return len(self.records)


class FleetRunner:
    """Drives one timer task per device against the given transports."""

    def __init__(self, profiles: list[DeviceProfile], transports: Transports,
                 scenario: ScenarioScript | None = None, seed: int = 0):
        self.profiles = list(profiles)
        if scenario is not None:
            known = {p.device_id for p in self.profiles}
            self.profiles.extend(p for p in scenario.profiles if p.device_id not in known)
        self.transports = transports
        self.scenario = scenario
        self.seed = seed
        self.log = EmissionLog()
        self._states: dict[str, Any] = {}
        self._override_pending: set[str] = set()
        # per device, readings not yet sent: drop-oldest while the uplink is down
        self.buffers: dict[str, BoundedQueue[tuple[str, dict, int, bool]]] = {}

    def _state_for(self, profile: DeviceProfile, rng: random.Random) -> Any:
        if profile.device_id not in self._states:
            self._states[profile.device_id] = default_state(profile, rng)
        return self._states[profile.device_id]

    def apply_override(self, device_id: str, fields: dict[str, Any]) -> None:
        state = self._states.get(device_id)
        if state is None:
            profile = next((p for p in self.profiles if p.device_id == device_id), None)
            if profile is None:
                log.warning("scenario targets unknown device %s", device_id)
                return
            state = self._state_for(profile, random.Random(stable_seed(self.seed, device_id)))
        if isinstance(state, CoffeePotState):
            for key, value in fields.items():
                if hasattr(state, key):
                    setattr(state, key, value)
                else:
                    log.warning("coffee override has no field %s", key)
        else:
            state.update(fields)
        self._override_pending.add(device_id)

    async def run(self, duration_s: float) -> EmissionLog:
        start = asyncio.get_running_loop().time()
        # seed per-device states deterministically before any task runs
        for profile in self.profiles:
            self._state_for(profile, random.Random(stable_seed(self.seed, profile.device_id)))
        for entry in (self.scenario.entries if self.scenario else []):
            if entry.t_offset_s == 0.0:
                self.apply_override(entry.device_id, entry.fields)
        self._override_pending.clear()

        tasks = [asyncio.create_task(self._device_loop(p, start, duration_s))
                 for p in self.profiles]
        if self.scenario is not None:
            tasks.append(asyncio.create_task(self._scenario_loop(start)))
        try:
            await asyncio.sleep(max(0.0, start + duration_s - asyncio.get_running_loop().time()))
        finally:
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
        return self.log

    async def _scenario_loop(self, start: float) -> None:
        loop = asyncio.get_running_loop()
        for entry in self.scenario.entries:
            if entry.t_offset_s == 0.0:
                continue  # applied before start
            await asyncio.sleep(max(0.0, start + entry.t_offset_s - loop.time()))
            self.apply_override(entry.device_id, entry.fields)

    async def _device_loop(self, profile: DeviceProfile, start: float, duration_s: float) -> None:
        loop = asyncio.get_running_loop()
        rng = random.Random(stable_seed(self.seed, profile.device_id, "noise"))
        buffer = self.buffers[profile.device_id] = BoundedQueue(DEVICE_BUFFER_CAP)
        tick = 0
        while True:
            tick += 1
            target = start + tick * profile.period_s
            if profile.jitter_s:
                target += rng.uniform(-profile.jitter_s, profile.jitter_s)
            if target - start > duration_s:
                return
            await asyncio.sleep(max(0.0, target - loop.time()))
            t_ms = now_ms()
            state = self._states[profile.device_id]
            topic, payload = build_payload(profile, state, t_ms, rng, tick)
            overridden = profile.device_id in self._override_pending
            if overridden:
                self._override_pending.discard(profile.device_id)
            if profile.extra_delay_s:
                await asyncio.sleep(profile.extra_delay_s)
            buffer.put((topic, payload, t_ms, overridden))
            self._drain(profile, buffer)

    def _drain(self, profile: DeviceProfile, buffer: BoundedQueue) -> None:
        while (head := buffer.peek()) is not None:
            topic, payload, t_ms, overridden = head
            try:
                self.transports.publish(profile.transport, topic, payload)
            except TransportDown:
                return
            buffer.get_nowait()
            self.log.append(EmissionRecord(profile.device_id, t_ms, topic, overridden))
