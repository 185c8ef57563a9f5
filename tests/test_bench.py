"""Latency harness: tap joining, stats vs independent oracle, CSV schemas."""

import asyncio
import math
import random
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sensert import bench
from sensert.bench import (
    LatencyStats,
    NoData,
    TapCollector,
    TapRecord,
    extract_msg_key,
    make_fleet,
    nearest_rank,
    stats,
    write_fig8a,
    write_fig8b,
    write_table2,
)


# --- tap records ------------------------------------------------------------------

def test_four_taps_make_complete_record():
    c = TapCollector()
    for i, point in enumerate(bench.TAP_POINTS):
        c.tap(point, "d1", 1000, 1000 + i)
    (record,) = c.complete_records()
    assert record.ordered
    assert record.delta_ms("client") == 3


def test_missing_tap_means_incomplete():
    c = TapCollector()
    for point in ("gateway", "broker", "eventbus"):
        c.tap(point, "d1", 1000, 1001)
    assert c.complete_records() == []
    assert c.incomplete_count() == 1


def test_duplicate_tap_first_wins():
    c = TapCollector()
    c.tap("broker", "d1", 1000, 1001)
    c.tap("broker", "d1", 1000, 2002)
    assert c.duplicates == 1
    assert c.records[("d1", 1000)].t_broker == 1001


def test_unknown_point_rejected():
    with pytest.raises(ValueError):
        TapCollector().tap("nowhere", "d", 1, 2)


def test_telescoping_end_to_end_equals_hop_sum():
    record = TapRecord("d", 1000, t_gateway=1003, t_broker=1007,
                       t_eventbus=1020, t_client=1021)
    hops = [
        record.t_gateway - record.sim_t0,
        record.t_broker - record.t_gateway,
        record.t_eventbus - record.t_broker,
        record.t_client - record.t_eventbus,
    ]
    assert sum(hops) == record.delta_ms("client")


# --- msg key extraction -------------------------------------------------------------

def test_extract_key_variants():
    assert extract_msg_key("tele/p1/SENSOR", b'{"sim_t0": 5}') == ("p1", 5)
    assert extract_msg_key("v3/app/devices/d9/up", b'{"sim_t0": 5}') == ("d9", 5)
    assert extract_msg_key(
        "any/topic", b'{"end_device_ids": {"device_id": "x"}, "sim_t0": 7}') == ("x", 7)
    assert extract_msg_key("zigbee/m1/state", b'{"id": "m1", "sim_t0": 9}') == ("m1", 9)
    assert extract_msg_key("tele/p1/SENSOR", b'{"no_tag": 1}') is None
    assert extract_msg_key("x", b"garbage") is None
    # a non-finite sim_t0 (1e400 parses as inf) is no key, not an error
    assert extract_msg_key("tele/p1/SENSOR", b'{"sim_t0": 1e400}') is None
    assert extract_msg_key("tele/p1/SENSOR", b'{"sim_t0": NaN}') is None


# --- stats -----------------------------------------------------------------------------

def test_stats_trivial_cases():
    row = stats([10, 20, 30])
    assert row.mean_ms == 20
    assert row.p50_ms == 20
    single = stats([5])
    assert single.mean_ms == 5
    assert single.stddev_ms == 0
    with pytest.raises(NoData):
        stats([])


def test_nearest_rank_definition():
    values = list(range(1, 101))
    assert nearest_rank(values, 50) == 50
    assert nearest_rank(values, 95) == 95
    assert nearest_rank(values, 99) == 99
    assert nearest_rank(values, 100) == 100
    assert nearest_rank([7], 99) == 7


def test_stats_vs_independent_reference_100k():
    rng = random.Random(123)
    values = [rng.uniform(0, 1000) for _ in range(100_000)]
    row = stats(values)
    # independent implementations: statistics module + manual nearest-rank
    assert row.mean_ms == pytest.approx(statistics.fmean(values), abs=1e-9)
    assert row.stddev_ms == pytest.approx(statistics.pstdev(values), abs=1e-9)
    ordered = sorted(values)
    for pct, got in ((50, row.p50_ms), (95, row.p95_ms), (99, row.p99_ms)):
        want = ordered[max(1, math.ceil(pct / 100 * len(ordered))) - 1]
        assert got == want


@given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=400))
@settings(max_examples=150)
def test_stats_properties(values):
    row = stats(values)
    assert row.min_ms <= row.mean_ms <= row.max_ms
    assert row.min_ms <= row.p50_ms <= row.p95_ms <= row.p99_ms <= row.max_ms
    assert row.stddev_ms >= 0
    assert row.count == len(values)


# --- fleet mix ---------------------------------------------------------------------------

def test_make_fleet_deterministic_and_mixed():
    fleet = make_fleet(45)
    assert len(fleet) == 45
    assert fleet == make_fleet(45)
    families = {p.family for p in fleet}
    assert "smartplug" in families and "deepdish" in families
    assert all(p.period_s == 1.0 for p in fleet)
    deepdish = [p for p in fleet if p.family == "deepdish"]
    assert all(p.extra_delay_s == pytest.approx(0.2) for p in deepdish)


def test_make_fleet_small_has_both_key_categories():
    families = {p.family for p in make_fleet(2)}
    assert families == {"smartplug", "deepdish"}


# --- csv schemas -----------------------------------------------------------------------

def _row(mean=1.0):
    return LatencyStats(count=3, mean_ms=mean, stddev_ms=0.5, p50_ms=1,
                        p95_ms=2, p99_ms=2, min_ms=0, max_ms=2)


def test_write_table2_schema(tmp_path):
    path = tmp_path / "table2.csv"
    write_table2(path, {p: _row() for p in bench.TAP_POINTS})
    lines = path.read_text().splitlines()
    assert lines[0] == "point,count,mean_ms,stddev_ms,p50_ms,p95_ms,p99_ms"
    assert len(lines) == 5
    assert lines[1] == "gateway,3,1.000,0.500,1.000,2.000,2.000"


def test_write_fig8a_schema(tmp_path):
    path = tmp_path / "fig8a.csv"
    write_fig8a(path, [(10, 5.0, 1.0), (45, 6.0, 1.5)])
    lines = path.read_text().splitlines()
    assert lines[0] == "n_sensors,mean_ms,stddev_ms"
    assert lines[1] == "10,5.000,1.000"


def test_write_fig8b_schema(tmp_path):
    path = tmp_path / "fig8b.csv"
    write_fig8b(path, {"deepdish": _row(200.0), "smartplug": _row(2.0)})
    lines = path.read_text().splitlines()
    assert lines[0] == "category,mean_ms,stddev_ms"
    assert lines[1] == "deepdish,200.000,0.500"


def test_write_report_context(tmp_path):
    result = bench.ExperimentResult(n=1, duration_s=1.0, taps=bench.TapCollector(),
                                    categories={})
    bench.write_report(tmp_path / "report.txt", result)
    text = (tmp_path / "report.txt").read_text()
    assert "reference" in text
    assert "57" in text  # deployment-scale first-hop mean shown for context


# --- a small live experiment --------------------------------------------------------------

def test_small_experiment_shape():
    result = asyncio.run(bench.run_experiment(5, 4.0, seed=9))
    assert result.n == 5
    complete = result.taps.complete_records()
    assert complete, "no complete tap records"
    assert all(r.ordered for r in complete)
    per_point = result.per_point_stats()
    assert set(per_point) == set(bench.TAP_POINTS)
    # per-hop means are monotone along the pipeline
    assert (per_point["gateway"].mean_ms <= per_point["broker"].mean_ms
            <= per_point["eventbus"].mean_ms <= per_point["client"].mean_ms)
    # storage replay equality at small scale
    assert result.filer_counts == result.emission_counts
    assert result.feed_counters["received"] == (
        result.feed_counters["published"] + result.feed_counters["deadlettered"])
    assert result.drained and result.conserved()


def test_experiment_walks_every_queue():
    """Every broker session, both bridge-ins, the feed handler's inbound queue,
    every bus subscription and every device buffer is walked by name."""
    result = asyncio.run(bench.run_experiment(10, 2.0, seed=3))
    names = set(result.queues)
    assert {"broker.local.session:sim-wifi", "broker.local.session:rts-feedhandler",
            "broker.ttn.session:sim-ttn", "broker.zigbee.session:zigbee-translator",
            "feedhandler.inbound"} <= names
    for broker in ("ttn", "zigbee"):
        assert sum(n.startswith(f"broker.{broker}.session:bridge-local-") for n in names) == 1
    assert sum(n.startswith("broker.local.bridge-in:") for n in names) == 2
    assert {f"bus.{row['owner']}:{row['filter']}" for row in result.audit} <= names
    assert {f"device:{d}" for d in result.categories} <= names
    assert result.drops == {}
    assert result.drained and result.conserved()


def test_experiment_zero_sensors():
    result = asyncio.run(bench.run_experiment(0, 1.0, seed=1))
    assert len(result.taps.records) == 0
    assert result.per_point_stats() == {}
    with pytest.raises(NoData):
        result.end_to_end()
