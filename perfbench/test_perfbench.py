"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import asyncio
import json
import math
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import stats  # noqa: E402
from reconcile import Reconciliation, check_events, check_readings  # noqa: E402
from workloads import WORKLOADS, schedule  # noqa: E402


# --- generator schedule -------------------------------------------------------------


@pytest.mark.parametrize("rate,seconds,n_devices", [(1000, 2, 1000), (730, 3, 10), (400, 2, 800)])
def test_schedule_count_slots_and_turns(rate, seconds, n_devices):
    plan = schedule(rate, seconds, n_devices, random.Random(7))
    assert len(plan) == rate * seconds
    slot = 1e9 / rate
    for j, (offset, _) in enumerate(plan):
        assert j * slot - 1 <= offset < (j + 1) * slot
    turns = Counter(device for _, device in plan)
    assert max(turns.values()) - min(turns.values()) <= 1
    assert len(turns) == min(n_devices, rate * seconds)


def test_schedule_is_seeded():
    assert schedule(500, 1, 50, random.Random(3)) == schedule(500, 1, 50, random.Random(3))
    assert schedule(500, 1, 50, random.Random(3)) != schedule(500, 1, 50, random.Random(4))


def test_schedule_refuses_rates_that_would_share_a_device_ms():
    with pytest.raises(ValueError):
        schedule(9000, 1, 10, random.Random(0))


class FakeUplink:
    def __init__(self):
        self.sent: list[tuple[str, bytes]] = []

    def publish_nowait(self, topic, payload):
        self.sent.append((topic, payload))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generator_stamps_the_scheduled_time(workload):
    """sim_t0 is the scheduled send time, never the time after a sleep."""
    session = run.Session(WORKLOADS[workload], seed=5, ports={})
    session.wifi, session.ttn = FakeUplink(), FakeUplink()
    rate = 300
    phase = asyncio.run(session.run_phase("test", rate, 1))
    sent = session.wifi.sent + session.ttn.sent
    assert len(sent) == len(phase.keys) == rate
    stamps = {}
    for topic, payload in sent:
        obj = json.loads(payload)
        device = (obj.get("end_device_ids", {}).get("device_id") or topic.split("/")[1])
        stamps[(device, obj["sim_t0"])] = obj
    for key in phase.keys:
        reading = session.readings[key]
        assert key in stamps
        assert key[1] == reading.sched_ns // 1_000_000
        assert reading.lag_ns >= 0
    # deepdish readings carry their uplink time, not uplink time + inference delay
    for (device, sim_t0), obj in stamps.items():
        if device.startswith("deepdish"):
            assert session.readings[(device, sim_t0)].sched_ns // 1_000_000 == obj["sim_t0"]
    # every LoRa reading goes over the ttn uplink, everything else over Wi-Fi
    assert all(topic.startswith("v3/") for topic, _ in session.ttn.sent)
    assert not any(topic.startswith("v3/") for topic, _ in session.wifi.sent)


def test_flapping_devices_expect_alternating_events():
    workload = WORKLOADS["rules"]
    session = run.Session(workload, seed=1, ports={})
    session.wifi, session.ttn = FakeUplink(), FakeUplink()
    population = len(workload.devices(workload.ref_rate))
    asyncio.run(session.run_phase("test", 4 * population, 1))  # four readings each
    ruled = {r.filter.rsplit("/", 1)[1] for r in workload.rules()}
    assert set(session.expected_events) == ruled
    for kinds in session.expected_events.values():
        assert [k for k, _ in kinds] == ["threshold-crossed", "threshold-cleared"]


# --- percentiles ------------------------------------------------------------------------


def oracle_percentile(values, fraction):
    """Smallest sample value with at least `fraction` of the sample at or below it."""
    ordered = sorted(values)
    for v in ordered:
        if sum(1 for x in ordered if x <= v) >= fraction * len(ordered) - 1e-9:
            return v


@pytest.mark.parametrize("seed", range(20))
def test_nearest_rank_matches_sorted_list_oracle(seed):
    rng = random.Random(seed)
    values = [rng.choice([rng.random(), rng.randint(0, 5)]) for _ in range(rng.randint(1, 300))]
    for fraction in (0.01, 0.25, 0.5, 0.9, 0.99, 1.0):
        assert stats.nearest_rank(sorted(values), fraction) == oracle_percentile(values, fraction)


@pytest.mark.parametrize("n", [1, 10, 11, 50, 999, 1000, 1001, 5000])
def test_tail_keeps_ten_samples_beyond_it(n):
    values = list(range(n))
    s = stats.summarize(values)
    if n > stats.TAIL_SAMPLES:
        assert sum(1 for v in values if v > s["tail"]) >= stats.TAIL_SAMPLES
    assert s["tail_pct"] <= 99.0
    if n >= 1000:
        assert s["tail_pct"] == 99.0


def test_windowed_tail_is_the_median_of_window_p99s_and_skips_late_windows():
    rng = random.Random(0)
    windows = [[(rng.random(), 0.5) for _ in range(1000)] for _ in range(5)]
    windows[1] = [(lat + 100, 0.5) for lat, _ in windows[1]]      # one slow window
    windows[3] = [(lat, 50.0) for lat, _ in windows[3]]           # generator late
    samples = [s for w in windows for s in w]
    got = stats.windowed(samples)
    assert got["windows"] == 5 and got["valid"] == 4
    expected = sorted(stats.nearest_rank(sorted(lat for lat, _ in windows[i]), 0.99)
                      for i in (0, 1, 2, 4))
    assert got["tail"] == pytest.approx((expected[1] + expected[2]) / 2)


# --- reconciliation ------------------------------------------------------------------------


def sample_run():
    received = {("d1", t): 1 for t in range(100)}
    filed = Counter(received.keys())
    return received, filed


def test_reconciliation_passes_an_exact_run():
    r = Reconciliation()
    check_readings(*sample_run(), r)
    assert r.ok


def test_reconciliation_catches_a_loss():
    received, filed = sample_run()
    received[("d1", 7)] = 0
    r = Reconciliation()
    check_readings(received, filed, r)
    assert r.failed == 1


def test_reconciliation_catches_a_duplicate_at_the_client_and_on_disk():
    received, filed = sample_run()
    received[("d1", 3)] = 2
    filed[("d1", 9)] += 1
    r = Reconciliation()
    check_readings(received, filed, r)
    assert r.failed == 2


def test_reconciliation_catches_an_unfiled_and_a_stray_line():
    received, filed = sample_run()
    del filed[("d1", 4)]
    filed[("d9", 1)] = 1
    r = Reconciliation()
    check_readings(received, filed, r)
    assert r.failed == 2


def test_event_reconciliation_counts_missing_extra_and_wrong_events():
    want = {"a": ["threshold-crossed", "threshold-cleared"], "b": ["threshold-crossed"]}
    r = Reconciliation()
    check_events(want, {"a": ["threshold-crossed", "threshold-cleared"],
                        "b": ["threshold-crossed"]}, r, "threshold")
    assert r.ok
    check_events(want, {"a": ["threshold-cleared"], "c": ["threshold-crossed"]}, r, "threshold")
    assert r.failed == 4  # a: wrong + missing, b: missing, c: extra


# --- the whole benchmark -----------------------------------------------------------------


def run_benchmark(trace: int, seconds: int) -> tuple[list[str], dict]:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "rules", "--seed", "3",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr[-3000:]
    lines = out.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace,key,seconds", [(0, "end_to_end", 3), (1, "per_layer", 6)])
def test_printed_metrics_match_benchmark_json(trace, key, seconds):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lines, result = run_benchmark(trace, seconds)
    if trace == 0:
        for name, unit in (("p50_ms", "ms"), ("p99_ms", "ms"), ("knee_rate", "msg/s"),
                           ("event_p50_ms", "ms"), ("event_p99_ms", "ms")):
            assert any(line.startswith(f"rules {name} = ") and f" {unit} (not gated)" in line
                       for line in lines), name
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert ({name: m["unit"] for name, m in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in spec[key]})
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
