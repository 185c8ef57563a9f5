"""In-process assembly of the whole pipeline, for the demo, bench and tests.

Topology: three brokers (ttn and zigbee feeding the local one over In
bridges), the gateway websocket emulation with its read/write translator,
the real-time server with all stock verticles, and optionally the latency
taps at the three hops the stack owns: gateway, broker and event bus. The
fourth point, the client, is stamped by the monitor client of the run
(``bench.run_experiment``). Every subsystem also runs standalone through the
CLI; this module only wires the same pieces into one process.
"""

from __future__ import annotations

import asyncio
import logging
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from .bench import TapCollector, extract_msg_key, run_experiment, write_experiment_csvs
from .broker import Broker, BridgeRule
from .decoders import NormalizedMessage
from .pipe import BoundedQueue
from .rts import EventBus, RealTimeServer
from .rts.monitor import DataMonitor
from .rts.verticles import (
    FeedHandler,
    MessageFiler,
    RTCoffee,
    ThresholdRule,
    ThresholdWatch,
)
from .simfleet import (
    DeconzWsServer,
    DeviceProfile,
    EmissionLog,
    FleetRunner,
    ScenarioScript,
    SCENARIOS,
    Transports,
    ZigbeeTranslator,
)

log = logging.getLogger(__name__)


DEFAULT_RULES = [
    ThresholdRule(filter="feed/ttn/#", field="co2", op=">", value=1000, hysteresis=50),
    ThresholdRule(filter="feed/smartplug/#", field="power_w", op="<", value=1.0, hysteresis=5.0),
]


@dataclass
class StackConfig:
    host: str = "127.0.0.1"
    local_port: int = 0
    ttn_port: int = 0
    zigbee_port: int = 0
    ws_port: int = 0
    monitor_port: int = 0
    data_root: Path | None = None  # None -> fresh temporary directory
    rules: list[ThresholdRule] = field(default_factory=lambda: list(DEFAULT_RULES))
    seed: int = 42

    @classmethod
    def from_json(cls, text: str) -> "StackConfig":
        import json

        raw = json.loads(text)
        config = cls(
            host=raw.get("host", "127.0.0.1"),
            local_port=int(raw.get("local_port", 0)),
            ttn_port=int(raw.get("ttn_port", 0)),
            zigbee_port=int(raw.get("zigbee_port", 0)),
            ws_port=int(raw.get("ws_port", 0)),
            monitor_port=int(raw.get("monitor_port", 0)),
            data_root=Path(raw["data_root"]) if raw.get("data_root") else None,
            seed=int(raw.get("seed", 42)),
        )
        if "rules" in raw:
            config.rules = [ThresholdRule.from_jsonable(r) for r in raw["rules"]]
        return config


class Stack:
    def __init__(self, config: StackConfig | None = None, taps: TapCollector | None = None):
        self.config = config or StackConfig()
        self.taps = taps
        self.local: Broker | None = None
        self.ttn: Broker | None = None
        self.zigbee: Broker | None = None
        self.deconz: DeconzWsServer | None = None
        self.translator: ZigbeeTranslator | None = None
        self.rts: RealTimeServer | None = None
        self.feedhandler: FeedHandler | None = None
        self.filer: MessageFiler | None = None
        self.monitor: DataMonitor | None = None
        self.transports: Transports | None = None
        self.data_root: Path | None = None
        self._tmpdir: tempfile.TemporaryDirectory | None = None
        self._device_buffers: dict[str, BoundedQueue] = {}  # of the last run_fleet

    # --- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Start every component and return once every outbound link is up
        (``asyncio.TimeoutError`` after 10 s). Up means ready: the bridges and
        the feed handler are subscribed, the translator and both uplinks are
        connected, so a reading sent as soon as this returns is filed."""
        cfg = self.config
        taps = self.taps
        if cfg.data_root is None:
            self._tmpdir = tempfile.TemporaryDirectory(prefix="sensert-")
            self.data_root = Path(self._tmpdir.name)
        else:
            self.data_root = Path(cfg.data_root)

        def gateway_observer(from_bridge: bool, topic: str, payload: bytes, t: int) -> None:
            if taps is not None and not from_bridge:
                taps.ingest_raw("gateway", topic, payload, t)

        def local_observer(from_bridge: bool, topic: str, payload: bytes, t: int) -> None:
            if taps is None or (key := extract_msg_key(topic, payload)) is None:
                return
            if not from_bridge:
                # Wi-Fi devices: the aggregating broker is also their first hop
                taps.tap("gateway", *key, t)
            taps.tap("broker", *key, t)

        self.ttn = Broker(name="ttn", publish_observer=gateway_observer)
        await self.ttn.start(cfg.host, cfg.ttn_port)
        self.zigbee = Broker(name="zigbee")
        await self.zigbee.start(cfg.host, cfg.zigbee_port)
        self.local = Broker(name="local", publish_observer=local_observer)
        await self.local.start(cfg.host, cfg.local_port)
        self.local.add_bridge(BridgeRule(
            remote=f"{self.ttn.address[0]}:{self.ttn.address[1]}",
            direction="in", filter="v3/+/devices/#"))
        self.local.add_bridge(BridgeRule(
            remote=f"{self.zigbee.address[0]}:{self.zigbee.address[1]}",
            direction="in", filter="zigbee/#"))

        def deconz_tap(topic: str, payload: bytes, t: int) -> None:
            if taps is not None:
                taps.ingest_raw("gateway", topic, payload, t)

        self.deconz = DeconzWsServer(on_push=deconz_tap)
        await self.deconz.start(cfg.host, cfg.ws_port)
        self.translator = ZigbeeTranslator(*self.deconz.address, *self.zigbee.address)
        self.translator.link.start()

        def bus_observer(env) -> None:
            body = env.body
            if taps is not None and isinstance(body, NormalizedMessage) and body.sim_t0:
                taps.tap("eventbus", body.device_id, body.sim_t0, env.published_at)

        self.rts = RealTimeServer(EventBus(publish_observer=bus_observer))
        self.feedhandler = FeedHandler(*self.local.address)
        self.filer = MessageFiler(self.data_root)
        self.monitor = DataMonitor(cfg.host, cfg.monitor_port)
        await self.rts.deploy(self.feedhandler)
        await self.rts.deploy(self.filer)
        await self.rts.deploy(ThresholdWatch(list(cfg.rules)))
        await self.rts.deploy(RTCoffee())
        await self.rts.deploy(self.monitor)

        self.transports = Transports(local=self.local.address, ttn=self.ttn.address,
                                     deconz=self.deconz)
        await self.transports.start()
        links = [b.link for b in self.local._bridges] + self.transports.uplinks
        links += [self.feedhandler.link, self.translator.link]
        await asyncio.wait_for(asyncio.gather(*(link.up.wait() for link in links)), 10)

    async def run_fleet(self, profiles: list[DeviceProfile],
                        scenario: ScenarioScript | None,
                        duration_s: float) -> EmissionLog:
        runner = FleetRunner(profiles, self.transports, scenario=scenario,
                             seed=self.config.seed)
        self._device_buffers = runner.buffers
        return await runner.run(duration_s)

    async def drain(self, timeout_s: float = 5.0) -> bool:
        """Wait until the pipeline is quiescent; True if fully drained."""
        deadline = asyncio.get_running_loop().time() + timeout_s
        stable = 0
        while asyncio.get_running_loop().time() < deadline:
            pending = sum(q.pending for _name, q in self.queues())
            stable = stable + 1 if pending == 0 else 0
            if stable >= 3:
                await asyncio.sleep(0.3)  # tail for monitor socket flushes
                return True
            await asyncio.sleep(0.05)
        return False

    async def stop(self) -> None:
        if self.transports is not None:
            await self.transports.stop()
        if self.translator is not None:
            await self.translator.link.stop()
        if self.deconz is not None:
            await self.deconz.stop()
        if self.rts is not None:
            await self.rts.stop()
        for broker in (self.local, self.ttn, self.zigbee):
            if broker is not None:
                await broker.stop()
        if self._tmpdir is not None:
            self._tmpdir.cleanup()

    # --- introspection ----------------------------------------------------------

    def queues(self) -> list[tuple[str, BoundedQueue]]:
        """Every queue of the stack by name: the three brokers' sessions,
        bridge-in and bridge-out queues (``broker.<broker>.…``),
        ``feedhandler.inbound``, every bus subscription (``bus.<owner>:<filter>``)
        and the last ``run_fleet``'s device buffers (``device:<id>``)."""
        walk = [pair for broker in (self.local, self.ttn, self.zigbee)
                for pair in broker.queues()]
        if self.feedhandler.link.conn is not None:
            walk.append(("feedhandler.inbound", self.feedhandler.link.conn.inbound))
        walk += [(f"bus.{s.owner}:{s.filter}", s.queue) for s in self.rts.bus.subscriptions()]
        walk += [(f"device:{d}", q) for d, q in self._device_buffers.items()]
        return walk

    def drops(self) -> dict[str, int]:
        """Items dropped so far, by the name of each queue that dropped any."""
        return {name: q.dropped for name, q in self.queues() if q.dropped}

    def reconcile(self, emitted: int) -> list[str]:
        """What fails to add up once the stack has drained; empty when all does.

        Every queue must be conserved, the feed handler must account for what
        it received (published + dead-lettered + failed), and every reading
        emitted must be filed, failed by the filer, dead-lettered, dropped on
        the filer path or failed there. That path is every broker queue, every
        MQTT inbound queue and the filer's subscription queue; the other
        subscriptions branch off it. Its failures are the handler failures of
        the local broker's bridges, the feed handler and the filer.
        """
        walk = self.queues()
        problems = [f"{name} not conserved" for name, q in walk if not q.conserved()]
        fh, filer = self.feedhandler, self.filer
        if fh.received != fh.published + fh.deadlettered + fh.sink.failed:
            problems.append(f"feedhandler received {fh.received} != published "
                            f"{fh.published} + deadlettered {fh.deadlettered} + failed "
                            f"{fh.sink.failed}")
        lost = sum(q.dropped for name, q in walk
                   if name.startswith(("broker.", "feedhandler.")))
        lost += sum(s.queue.dropped for s in self.rts.bus.subscriptions()
                    if s.owner == filer.name)
        sinks = [b.sink for b in self.local._bridges] + [fh.sink, filer.sink]
        failed = sum(sink.failed for sink in sinks)
        if emitted != filer.lines_written + filer.errors + fh.deadlettered + lost + failed:
            problems.append(f"emitted {emitted} != filed {filer.lines_written} + filer errors "
                            f"{filer.errors} + deadlettered {fh.deadlettered} + dropped on "
                            f"the filer path {lost} + failed on it {failed}")
        return problems

    def audit(self) -> list[dict]:
        return self.rts.bus.audit()

    def feed_counters(self) -> dict[str, int]:
        fh = self.feedhandler
        return {"received": fh.received, "published": fh.published,
                "deadlettered": fh.deadlettered, "failed": fh.sink.failed}

    def filer_line_counts(self) -> dict[str, int]:
        """Lines on disk per device, independent of in-memory counters."""
        counts: dict[str, int] = {}
        if self.data_root is None:
            return counts
        for device_dir in self.data_root.iterdir():
            if not device_dir.is_dir():
                continue
            total = 0
            for day_file in device_dir.rglob("*.jsonl"):
                with day_file.open(encoding="utf-8") as handle:
                    total += sum(1 for line in handle if line.strip())
            counts[device_dir.name] = total
        return counts


# --- demo ------------------------------------------------------------------------------


@dataclass
class DemoResult:
    scenario: str
    detected: list[str]
    ground_truth: list[str]
    events: list[dict]
    audit: list[dict]
    feed: dict[str, int]
    conservation_ok: bool
    drained: bool
    out_dir: Path | None

    @property
    def ok(self) -> bool:
        return self.detected == self.ground_truth and self.conservation_ok


async def run_demo(scenario_name: str = "coffee", seed: int = 42,
                   config: StackConfig | None = None,
                   out_dir: str | Path | None = None) -> DemoResult:
    """Three brokers + RTS + scripted scenario in one process."""
    if scenario_name not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario_name!r}; have {sorted(SCENARIOS)}")
    scenario = SCENARIOS[scenario_name]()
    result = await run_experiment(0, scenario.duration_s, seed=seed,
                                  scenario=scenario, config=config)
    if out_dir is not None:
        write_experiment_csvs(result, out_dir)
    return DemoResult(
        scenario=scenario.name,
        detected=[e["event_type"] for e in result.events
                  if e["event_type"] in scenario.watch_events],
        ground_truth=list(scenario.ground_truth), events=result.events,
        audit=result.audit, feed=result.feed_counters,
        conservation_ok=result.conserved(), drained=result.drained,
        out_dir=Path(out_dir) if out_dir else None)
