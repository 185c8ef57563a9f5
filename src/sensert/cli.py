"""Single entry point: broker, sim, rts, meta, bench and demo subcommands."""

from __future__ import annotations

import argparse
import asyncio
import errno
import json
import logging
import sys
from pathlib import Path

from . import __version__
from .broker import Broker, BrokerConfig
from .decoders import parse_time_ms
from .metadata import DeviceMetadataRecord, MetadataStore, SpatialContainer
from .pipe import now_ms, parse_addr
from .rts import RealTimeServer
from .rts.monitor import DataMonitor
from .rts.verticles import FeedHandler, MessageFiler, RTCoffee, ThresholdRule, ThresholdWatch
from .simfleet import (
    DeconzWsServer,
    FleetRunner,
    SCENARIOS,
    Transports,
    ZigbeeTranslator,
    load_fleet,
)
from .stack import StackConfig, run_demo

log = logging.getLogger("sensert")


def _addr(raw: str) -> tuple[str, int]:
    try:
        return parse_addr(raw)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _loaded(load):
    """An argparse type that reads a file with ``load(path)``; any failure is a usage error."""
    def parse(raw: str):
        try:
            return load(Path(raw))
        except (OSError, ValueError, LookupError, TypeError, AttributeError) as exc:
            raise argparse.ArgumentTypeError(
                f"cannot load {raw}: {type(exc).__name__}: {exc}") from None
    return parse


def _parse_brokers(raw: str) -> dict[str, tuple[str, int]]:
    out = {}
    for part in raw.split(","):
        name, _, addr = part.partition("=")
        if not addr:
            raise argparse.ArgumentTypeError(f"expected name=host:port, got {part!r}")
        out[name.strip()] = _addr(addr.strip())
    return out


def _time_ms(raw: str) -> int:
    t = parse_time_ms(raw)
    if t is not None:
        return t
    try:
        return int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an ISO-8601 time or epoch ms, got {raw!r}") from None


def _seconds(raw: str) -> float:
    return float(raw[:-1]) if raw.endswith("s") else float(raw)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sensert", description=__doc__)
    parser.add_argument("--version", action="version", version=f"sensert {__version__}")
    parser.add_argument("--log-level", default="INFO",
                        choices=["DEBUG", "INFO", "WARNING", "ERROR"])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("broker", help="run one MQTT-subset broker (with optional bridges)")
    p.add_argument("--config", type=_loaded(lambda path: BrokerConfig.from_json(path.read_text())),
                   required=True, help="JSON broker config")
    p.add_argument("--stats-interval", type=_seconds, default=10.0, metavar="SECONDS")

    p = sub.add_parser("sim", help="run the sensor fleet simulator")
    p.add_argument("--brokers", type=_parse_brokers, required=True,
                   metavar="local=H:P[,ttn=H:P][,zigbee=H:P]")
    p.add_argument("--fleet", type=_loaded(load_fleet),
                   help="fleet JSON file (list of device profiles)")
    p.add_argument("--scenario", choices=sorted(SCENARIOS), help="scripted scenario to run")
    p.add_argument("--duration", type=float, default=300.0, metavar="SECONDS")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--ws-listen", type=_addr, default=("127.0.0.1", 0),
                   metavar="H:P", help="gateway websocket listen address")

    p = sub.add_parser("rts", help="run the real-time server with all verticles")
    p.add_argument("--broker", type=_addr, required=True, metavar="H:P")
    p.add_argument("--data-root", type=Path, required=True)
    p.add_argument("--monitor-listen", type=_addr, default=("127.0.0.1", 8886), metavar="H:P")
    p.add_argument("--rules", help="threshold rules JSON file", type=_loaded(
        lambda path: [ThresholdRule.from_jsonable(r) for r in json.loads(path.read_text())]))

    p = sub.add_parser("meta", help="metadata store operations")
    p.add_argument("--root", type=Path, default=Path("metadata"))
    meta_sub = p.add_subparsers(dest="meta_command", required=True)
    m = meta_sub.add_parser("import", help="import JSONL of containers and devices")
    m.add_argument("file", type=Path)
    m = meta_sub.add_parser("asof", help="device record effective at a time")
    m.add_argument("device_id")
    m.add_argument("time", type=_time_ms, help="ISO-8601 time or epoch ms")
    m = meta_sub.add_parser("ls", help="devices in a container (transitively)")
    m.add_argument("container_id")
    m.add_argument("--at", type=_time_ms, default=None,
                   help="ISO-8601 time or epoch ms (default: now)")

    p = sub.add_parser("bench", help="latency experiments and CSV reports")
    p.add_argument("--sweep", default="10,45,100",
                   help="comma-separated sensor counts for fig8a")
    p.add_argument("--duration", type=float, default=120.0, metavar="SECONDS")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--seed", type=int, default=42)

    p = sub.add_parser("demo", help="full three-broker + RTS + scenario stack")
    p.add_argument("--scenario", default="coffee", choices=sorted(SCENARIOS))
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", type=Path, help="directory for bench CSVs")
    p.add_argument("--config", type=_loaded(lambda path: StackConfig.from_json(path.read_text())),
                   help="stack config JSON (overrides port flags)")
    p.add_argument("--local-port", type=int, default=1883)
    p.add_argument("--ttn-port", type=int, default=1884)
    p.add_argument("--zigbee-port", type=int, default=1885)
    p.add_argument("--ws-port", type=int, default=1886)
    p.add_argument("--monitor-port", type=int, default=8886)
    p.add_argument("--ephemeral", action="store_true",
                   help="use OS-assigned ports instead of the defaults")
    return parser


# --- subcommands -----------------------------------------------------------------


async def _run_broker(args) -> int:
    config = args.config
    broker = Broker(name="broker")
    for rule in config.bridges:
        broker.add_bridge(rule)
    await broker.start(config.listen_host, config.listen_port)
    log.info("broker ready on %s", config.listen)

    async def stats_loop():
        while True:
            await asyncio.sleep(args.stats_interval)
            log.info("stats %s live_sessions=%d", broker.stats.snapshot(),
                     broker.live_sessions)

    task = asyncio.create_task(stats_loop())
    try:
        await asyncio.Event().wait()
    finally:
        task.cancel()
        await broker.stop()
    return 0


async def _run_sim(args) -> int:
    brokers = args.brokers
    if "local" not in brokers:
        log.error("--brokers must include local=host:port")
        return 2
    profiles = args.fleet or []
    scenario = SCENARIOS[args.scenario]() if args.scenario else None
    if not profiles and scenario is None:
        log.error("nothing to run: give --fleet and/or --scenario")
        return 2

    deconz = None
    translator = None
    fleet_families = {p.family for p in profiles}
    if scenario is not None:
        fleet_families |= {p.family for p in scenario.profiles}
    if any(f.startswith("zigbee") for f in fleet_families):
        if "zigbee" not in brokers:
            log.error("zigbee devices present but no zigbee broker given")
            return 2
        deconz = DeconzWsServer()
        await deconz.start(*args.ws_listen)
        translator = ZigbeeTranslator(*deconz.address, *brokers["zigbee"])
        translator.link.start()
        log.info("gateway websocket on %s:%d", *deconz.address)

    transports = Transports(local=brokers["local"], ttn=brokers.get("ttn"), deconz=deconz)
    await transports.start()
    if scenario is None:
        duration = args.duration
    elif profiles:
        duration = max(args.duration, scenario.duration_s)
    else:
        duration = scenario.duration_s
    runner = FleetRunner(profiles, transports, scenario=scenario, seed=args.seed)
    try:
        emission_log = await runner.run(duration)
        drops = {d: q.dropped for d, q in runner.buffers.items() if q.dropped}
        log.info("emitted %d messages from %d devices; drops: %s",
                 len(emission_log), len(runner.profiles), drops or "none")
    finally:
        await transports.stop()
        if translator is not None:
            await translator.link.stop()
        if deconz is not None:
            await deconz.stop()
    return 0


async def _run_rts(args) -> int:
    rules = args.rules or []
    rts = RealTimeServer()
    await rts.deploy(FeedHandler(*args.broker))
    await rts.deploy(MessageFiler(args.data_root))
    if rules:
        await rts.deploy(ThresholdWatch(rules))
    await rts.deploy(RTCoffee())
    monitor = DataMonitor(*args.monitor_listen)
    await rts.deploy(monitor)
    log.info("rts up: broker=%s data_root=%s monitor=%s:%d",
             args.broker, args.data_root, *monitor.address)
    try:
        await asyncio.Event().wait()
    finally:
        await rts.stop()
    return 0


def _run_meta(args) -> int:
    store = MetadataStore(args.root)
    if args.meta_command == "import":
        containers = devices = 0
        for raw in args.file.read_text().splitlines():
            raw = raw.strip()
            if not raw:
                continue
            entry = json.loads(raw)
            if entry.get("type") == "container":
                store.add_container(SpatialContainer(
                    container_id=entry["container_id"], kind=entry["kind"],
                    name=entry.get("name", entry["container_id"]),
                    parent_id=entry.get("parent_id")), ts=int(entry["ts"]))
                containers += 1
            elif entry.get("type") == "device":
                store.upsert_device(DeviceMetadataRecord(
                    device_id=entry["device_id"], ts=int(entry["ts"]), doc=entry["doc"]))
                devices += 1
            else:
                log.warning("skipping line without type: %s", raw[:80])
        print(f"imported {containers} container records, {devices} device records")
        return 0
    if args.meta_command == "asof":
        record = store.get_asof(args.device_id, args.time)
        if record is None:
            print("no record")
            return 1
        print(json.dumps({"device_id": record.device_id, "ts": record.ts,
                          "doc": record.doc}, indent=2))
        return 0
    if args.meta_command == "ls":
        t = args.at if args.at is not None else now_ms()
        for device_id in store.devices_in(args.container_id, t):
            print(device_id)
        return 0
    return 2


async def _run_bench(args) -> int:
    from .bench import run_experiment, write_experiment_csvs

    ns = [int(x) for x in str(args.sweep).split(",") if x.strip()]
    canonical = 45 if 45 in ns else ns[-1]
    rows = []
    canonical_result = None
    for n in ns:
        result = await run_experiment(n, args.duration, seed=args.seed)
        s = result.end_to_end()
        rows.append((n, s.mean_ms, s.stddev_ms))
        print(f"n={n:4d}  mean={s.mean_ms:8.2f} ms  stddev={s.stddev_ms:8.2f} ms  "
              f"complete={len(result.taps.complete_records())}")
        for warning in result.warnings:
            print(f"  warning: {warning}")
        if n == canonical:
            canonical_result = result
    write_experiment_csvs(canonical_result, args.out, sweep_rows=rows)
    print(f"wrote {args.out}/table2.csv, fig8a.csv, fig8b.csv")
    return 0


async def _run_demo(args) -> int:
    if args.config:
        config = args.config
    elif args.ephemeral:
        config = StackConfig()
    else:
        config = StackConfig(
            local_port=args.local_port, ttn_port=args.ttn_port,
            zigbee_port=args.zigbee_port, ws_port=args.ws_port,
            monitor_port=args.monitor_port)
    try:
        result = await run_demo(args.scenario, seed=args.seed, config=config,
                                out_dir=args.out)
    except OSError as exc:
        if exc.errno in (errno.EADDRINUSE, errno.EACCES):
            print(f"error: port unavailable: {exc}", file=sys.stderr)
            return 2
        raise
    print(f"scenario:     {result.scenario}")
    print(f"detected:     {result.detected}")
    print(f"ground truth: {result.ground_truth}")
    print(f"events seen:  {len(result.events)} (all types)")
    print(f"feedhandler:  {result.feed}")
    print(f"conservation: {'exact' if result.conservation_ok else 'VIOLATED'}")
    if args.out:
        print(f"bench CSVs:   {args.out}")
    print("result:       " + ("MATCH" if result.ok else "MISMATCH"))
    return 0 if result.ok else 1


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=getattr(logging, args.log_level),
        format="%(asctime)s %(levelname)s %(name)s: %(message)s")
    try:
        if args.command == "broker":
            return asyncio.run(_run_broker(args))
        if args.command == "sim":
            return asyncio.run(_run_sim(args))
        if args.command == "rts":
            return asyncio.run(_run_rts(args))
        if args.command == "meta":
            return _run_meta(args)
        if args.command == "bench":
            return asyncio.run(_run_bench(args))
        if args.command == "demo":
            return asyncio.run(_run_demo(args))
    except KeyboardInterrupt:
        return 130
    return 2


if __name__ == "__main__":
    sys.exit(main())
