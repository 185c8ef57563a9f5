"""Latency harness: four tap points, per-category statistics, CSV reports.

Taps sit at the gateway (first hop), the aggregating local broker, the event
bus and a monitor client; the stack stamps the first three, the monitor
client of ``run_experiment`` the fourth. All deltas are measured against the
``sim_t0`` embedded in every simulated payload, i.e. from the moment of
generation at the sensor. One host, one clock, so tap ordering is exact.
Absolute values at desk scale are loopback numbers; the published
deployment-scale figures (which include real radio first hops) are written
alongside for context.
"""

from __future__ import annotations

import asyncio
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING

from .pipe import now_ms
from .rts.monitor import MonitorClient
from .rts.verticles import ThresholdRule
from .simfleet import DeviceProfile, ScenarioScript

if TYPE_CHECKING:
    from .stack import StackConfig

TAP_POINTS = ("gateway", "broker", "eventbus", "client")

# Deployment-scale figures reported for the reference architecture (ms),
# kept only as context in the report; not reproducible on one host.
REFERENCE_MEANS_MS = {"gateway": 57.15, "broker": 147.86, "eventbus": 157.86, "client": 159.55}
REFERENCE_STDDEV_MS = {"gateway": 10.21, "broker": 63.56, "eventbus": 2.35, "client": 0.56}


class NoData(ValueError):
    pass


@dataclass
class TapRecord:
    device_id: str
    sim_t0: int
    t_gateway: int | None = None
    t_broker: int | None = None
    t_eventbus: int | None = None
    t_client: int | None = None

    def get(self, point: str) -> int | None:
        return getattr(self, f"t_{point}")

    def set(self, point: str, t: int) -> bool:
        """First observation wins; returns False on a duplicate."""
        if self.get(point) is not None:
            return False
        setattr(self, f"t_{point}", t)
        return True

    @property
    def complete(self) -> bool:
        return all(self.get(p) is not None for p in TAP_POINTS)

    @property
    def ordered(self) -> bool:
        ts = [self.get(p) for p in TAP_POINTS if self.get(p) is not None]
        return all(a <= b for a, b in zip(ts, ts[1:]))

    def delta_ms(self, point: str) -> int:
        t = self.get(point)
        if t is None:
            raise NoData(point)
        return t - self.sim_t0


def extract_msg_key(topic: str, payload: bytes) -> tuple[str, int] | None:
    """(device_id, sim_t0) from a raw simulated payload; None if untagged."""
    try:
        obj = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, ValueError):
        return None
    if not isinstance(obj, dict):
        return None
    sim_t0 = obj.get("sim_t0")
    if not isinstance(sim_t0, (int, float)) or isinstance(sim_t0, bool):
        return None
    if not -math.inf < sim_t0 < math.inf:  # nan and inf are no time
        return None
    t0 = int(sim_t0)
    ids = obj.get("end_device_ids")
    if isinstance(ids, dict) and ids.get("device_id"):
        return str(ids["device_id"]), t0
    if obj.get("id"):
        return str(obj["id"]), t0
    levels = topic.split("/")
    if len(levels) >= 2 and levels[0] in ("tele", "coffee", "deepdish", "zigbee"):
        return levels[1], t0
    if len(levels) >= 5 and levels[0] == "v3":
        return levels[3], t0
    return None


class TapCollector:
    def __init__(self):
        self.records: dict[tuple[str, int], TapRecord] = {}
        self.duplicates = 0

    def tap(self, point: str, device_id: str, sim_t0: int, t_ms: int) -> None:
        if point not in TAP_POINTS:
            raise ValueError(f"unknown tap point {point!r}")
        key = (device_id, sim_t0)
        record = self.records.get(key)
        if record is None:
            record = self.records[key] = TapRecord(device_id, sim_t0)
        if not record.set(point, t_ms):
            self.duplicates += 1

    def ingest_raw(self, point: str, topic: str, payload: bytes, t_ms: int) -> None:
        key = extract_msg_key(topic, payload)
        if key is not None:
            self.tap(point, key[0], key[1], t_ms)

    def complete_records(self) -> list[TapRecord]:
        return [r for r in self.records.values() if r.complete]

    def incomplete_count(self) -> int:
        return sum(1 for r in self.records.values() if not r.complete)

    def deltas(self, point: str, device_ids: set[str] | None = None) -> list[int]:
        out = []
        for record in self.complete_records():
            if device_ids is not None and record.device_id not in device_ids:
                continue
            out.append(record.delta_ms(point))
        return out


# --- statistics -----------------------------------------------------------------


@dataclass
class LatencyStats:
    count: int
    mean_ms: float
    stddev_ms: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    min_ms: float
    max_ms: float


def nearest_rank(sorted_values, pct: float) -> float:
    """Exact nearest-rank percentile over a pre-sorted sequence."""
    if not sorted_values:
        raise NoData("empty sample")
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def stats(deltas) -> LatencyStats:
    """Mean, population stddev and nearest-rank percentiles."""
    values = sorted(deltas)
    if not values:
        raise NoData("empty sample")
    n = len(values)
    mean = math.fsum(values) / n
    var = math.fsum((v - mean) ** 2 for v in values) / n
    return LatencyStats(
        count=n,
        mean_ms=mean,
        stddev_ms=math.sqrt(var),
        p50_ms=nearest_rank(values, 50),
        p95_ms=nearest_rank(values, 95),
        p99_ms=nearest_rank(values, 99),
        min_ms=values[0],
        max_ms=values[-1],
    )


def per_point_stats(taps: TapCollector) -> dict[str, LatencyStats]:
    """Statistics of each tap point that has complete records."""
    return {p: stats(d) for p in TAP_POINTS if (d := taps.deltas(p))}


def per_category_stats(taps: TapCollector, categories: dict[str, str]) -> dict[str, LatencyStats]:
    """End-to-end (client) statistics per device category that has data."""
    out = {}
    for category in sorted(set(categories.values())):
        ids = {d for d, c in categories.items() if c == category}
        deltas = taps.deltas("client", ids)
        if deltas:
            out[category] = stats(deltas)
    return out


# --- fleet mix -------------------------------------------------------------------

_FLEET_TEMPLATE = (
    "smartplug", "deepdish", "lora_co2", "smartplug", "zigbee_motion",
    "lora_temp", "smartplug", "zigbee_door", "lora_occupancy", "smartplug",
)


def make_fleet(n: int, period_s: float = 1.0, jitter_s: float = 0.1) -> list[DeviceProfile]:
    """Deterministic mixed fleet of n sensors cycling the category template."""
    profiles = []
    for i in range(n):
        family = _FLEET_TEMPLATE[i % len(_FLEET_TEMPLATE)]
        profiles.append(DeviceProfile(
            device_id=f"{family.replace('_', '-')}-{i:03d}",
            family=family, period_s=period_s, jitter_s=jitter_s))
    return profiles


def categories_of(profiles: list[DeviceProfile]) -> dict[str, str]:
    return {p.device_id: p.family for p in profiles}


# --- reports ------------------------------------------------------------------------


def write_table2(path: str | Path, per_point: dict[str, LatencyStats]) -> None:
    lines = ["point,count,mean_ms,stddev_ms,p50_ms,p95_ms,p99_ms"]
    for point in TAP_POINTS:
        s = per_point.get(point)
        if s is None:
            continue
        lines.append(
            f"{point},{s.count},{s.mean_ms:.3f},{s.stddev_ms:.3f},"
            f"{s.p50_ms:.3f},{s.p95_ms:.3f},{s.p99_ms:.3f}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_fig8a(path: str | Path, rows: list[tuple[int, float, float]]) -> None:
    lines = ["n_sensors,mean_ms,stddev_ms"]
    for n, mean, stddev in rows:
        lines.append(f"{n},{mean:.3f},{stddev:.3f}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_fig8b(path: str | Path, per_category: dict[str, LatencyStats]) -> None:
    lines = ["category,mean_ms,stddev_ms"]
    for category in sorted(per_category):
        s = per_category[category]
        lines.append(f"{category},{s.mean_ms:.3f},{s.stddev_ms:.3f}")
    Path(path).write_text("\n".join(lines) + "\n")


# --- experiment orchestration ----------------------------------------------------------


@dataclass
class ExperimentResult:
    n: int
    duration_s: float
    taps: TapCollector
    categories: dict[str, str]
    emission_counts: dict[str, int] = field(default_factory=dict)
    queues: list[str] = field(default_factory=list)  # names of every queue walked
    drops: dict[str, int] = field(default_factory=dict)  # by queue, nonzero only
    unreconciled: list[str] = field(default_factory=list)  # from Stack.reconcile
    filer_counts: dict[str, int] = field(default_factory=dict)
    audit: list[dict] = field(default_factory=list)
    feed_counters: dict[str, int] = field(default_factory=dict)
    data_root: Path | None = None
    warnings: list[str] = field(default_factory=list)
    events: list[dict] = field(default_factory=list)  # derived events the client received
    drained: bool = False

    def conserved(self) -> bool:
        """Every queue conserved and every emitted reading accounted for."""
        return not self.unreconciled

    def per_point_stats(self) -> dict[str, LatencyStats]:
        return per_point_stats(self.taps)

    def per_category_stats(self) -> dict[str, LatencyStats]:
        return per_category_stats(self.taps, self.categories)

    def end_to_end(self) -> LatencyStats:
        return stats(self.taps.deltas("client"))

    def check_completeness(self) -> None:
        total = len(self.taps.records)
        incomplete = self.taps.incomplete_count()
        if total and incomplete / total > 0.01:
            self.warnings.append(
                f"{incomplete}/{total} tap records incomplete (> 1%)")


async def run_experiment(n: int, duration_s: float, seed: int = 0,
                         data_root: str | Path | None = None,
                         scenario: ScenarioScript | None = None,
                         config: StackConfig | None = None) -> ExperimentResult:
    """Full local stack: n mixed sensors at 1 Hz plus the scenario's devices.

    The stack taps the gateway, broker and event bus; the run's one monitor
    client, on ``feed/#`` and ``event/#``, taps the client point and
    collects the derived events. A scenario's threshold rules replace the
    config's.
    """
    from .stack import Stack, StackConfig  # deferred: stack builds on this module

    profiles = make_fleet(n) + (scenario.profiles if scenario is not None else [])
    config = replace(config or StackConfig(), seed=seed)
    if data_root:
        config.data_root = Path(data_root)
    if scenario is not None and scenario.rules:
        config.rules = [ThresholdRule.from_jsonable(r) for r in scenario.rules]
    taps = TapCollector()
    events: list[dict] = []
    stack = Stack(config, taps=taps)
    client: MonitorClient | None = None
    pump: asyncio.Task | None = None

    async def pump_lines() -> None:
        while True:
            body = (await client.next()).get("body")
            if not isinstance(body, dict):
                continue
            if "event_type" in body:
                events.append(body)
            elif body.get("device_id") and isinstance(body.get("sim_t0"), int):
                taps.tap("client", body["device_id"], body["sim_t0"], now_ms())

    try:
        await stack.start()
        client = await MonitorClient.connect(*stack.monitor.address)
        await client.subscribe(["feed/#", "event/#"])
        pump = asyncio.create_task(pump_lines())
        log_ = await stack.run_fleet(profiles, scenario, duration_s)
        drained = await stack.drain()
        result = ExperimentResult(
            n=n, duration_s=duration_s, taps=taps,
            categories=categories_of(profiles),
            emission_counts=log_.counts(),
            queues=[name for name, _q in stack.queues()],
            drops=stack.drops(),
            unreconciled=stack.reconcile(len(log_)),
            filer_counts=stack.filer_line_counts(),
            audit=stack.audit(),
            feed_counters=stack.feed_counters(),
            data_root=stack.data_root,
            events=events,
            drained=drained,
        )
        result.check_completeness()
        return result
    finally:
        if pump is not None:
            pump.cancel()
            await asyncio.gather(pump, return_exceptions=True)
        if client is not None:
            await client.close()
        await stack.stop()


def write_report(path: str | Path, result: ExperimentResult) -> None:
    """Desk-scale numbers next to the deployment-scale reference means."""
    lines = [
        f"latency report: {len(result.categories)} sensors for {result.duration_s:.0f}s",
        f"complete records: {len(result.taps.complete_records())}, "
        f"incomplete: {result.taps.incomplete_count()}",
        "",
        f"{'point':<10} {'mean_ms':>9} {'stddev':>8} {'p99_ms':>8} "
        f"{'ref_mean_ms':>12} {'ref_stddev':>10}",
    ]
    per_point = result.per_point_stats()
    for point in TAP_POINTS:
        s = per_point.get(point)
        if s is None:
            continue
        lines.append(f"{point:<10} {s.mean_ms:>9.2f} {s.stddev_ms:>8.2f} "
                     f"{s.p99_ms:>8.2f} {REFERENCE_MEANS_MS[point]:>12.2f} "
                     f"{REFERENCE_STDDEV_MS[point]:>10.2f}")
    lines += [
        "",
        "reference means are deployment-scale values including real radio",
        "first hops (~57 ms) that a single-host run does not reproduce;",
        "compare shapes, not absolutes.",
        "",
        f"{'category':<16} {'count':>6} {'mean_ms':>9} {'p99_ms':>8}",
    ]
    for category, s in result.per_category_stats().items():
        lines.append(f"{category:<16} {s.count:>6} {s.mean_ms:>9.2f} {s.p99_ms:>8.2f}")
    lines.append(f"drops by queue: {result.drops or 'none'}")
    for problem in result.unreconciled:
        lines.append(f"unreconciled: {problem}")
    for warning in result.warnings:
        lines.append(f"warning: {warning}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_experiment_csvs(result: ExperimentResult, out_dir: str | Path,
                          sweep_rows: list[tuple[int, float, float]] | None = None) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_table2(out / "table2.csv", result.per_point_stats())
    write_fig8b(out / "fig8b.csv", result.per_category_stats())
    write_report(out / "report.txt", result)
    if sweep_rows:
        write_fig8a(out / "fig8a.csv", sweep_rows)
