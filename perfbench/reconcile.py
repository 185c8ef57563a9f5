"""Exact end-of-run reconciliation of what was sent against what came out.

Every shortfall is counted as failed operations, never filtered away: a
reading not received exactly once by the client or not filed exactly once,
a line on disk that was never sent, an event missing, extra or of the wrong
type, a ``latest.json`` that does not hold its device's maximal ``ts``, and
each broken conservation identity.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

Key = tuple[str, int]  # (device_id, sim_t0)


@dataclass
class Reconciliation:
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        self.problems.append(problem)

    @property
    def ok(self) -> bool:
        return self.failed == 0


def check_readings(received: dict[Key, int], filed: Counter, r: Reconciliation) -> None:
    """``received``: client receipts per reading sent; ``filed``: lines per key on disk."""
    bad = [k for k, n in received.items() if n != 1 or filed.get(k, 0) != 1]
    if bad:
        lost = sum(1 for k in bad if received[k] == 0)
        dup = sum(1 for k in bad if received[k] > 1)
        unfiled = sum(1 for k in bad if filed.get(k, 0) != 1)
        r.fail(len(bad), f"{len(bad)} readings not delivered and filed exactly once "
                         f"(client lost {lost}, duplicated {dup}; filer off {unfiled}), "
                         f"e.g. {bad[0]}")
    extra = sum(n for k, n in filed.items() if k not in received)
    if extra:
        r.fail(extra, f"{extra} lines on disk for readings never sent")


def check_events(expected: dict[str, list[str]], received: dict[str, list[str]],
                 r: Reconciliation, what: str) -> None:
    """Per device, the received event types must equal the expected sequence."""
    wrong = 0
    for device in expected.keys() | received.keys():
        want, got = expected.get(device, []), received.get(device, [])
        wrong += sum(1 for a, b in zip(want, got) if a != b) + abs(len(want) - len(got))
    if wrong:
        r.fail(wrong, f"{wrong} {what} events missing, extra or out of script")


def check_latest(latest_ts: dict[str, int | None], max_ts: dict[str, int],
                 r: Reconciliation) -> None:
    wrong = [d for d, ts in max_ts.items() if latest_ts.get(d) != ts]
    if wrong:
        r.fail(len(wrong), f"{len(wrong)} latest.json files without their maximal ts, "
                           f"e.g. {wrong[0]}")


def check_conservation(stats: dict, r: Reconciliation) -> None:
    broken = [row for row in stats["audit"] if not row["conserved"]]
    if broken:
        r.fail(len(broken), f"bus audit not conserved for {[b['owner'] for b in broken]}")
    feed = stats["feed"]
    if feed["received"] != feed["published"] + feed["deadlettered"]:
        r.fail(1, f"feedhandler received != published + deadlettered: {feed}")
    if stats["filer"]["errors"]:
        r.fail(stats["filer"]["errors"], "filer errors")


def named_drops(stats: dict) -> dict[str, int]:
    """Drops per named queue on the reading path."""
    out = {"broker.sessions": stats["broker_drops"]}
    for row in stats["audit"]:
        name = f"bus.{row['owner']}:{row['filter']}"
        out[name] = out.get(name, 0) + row["drops"] + row["stale_drops"]
    return {k: v for k, v in out.items() if v}


def read_store(data_root: Path) -> tuple[Counter, dict[str, int | None]]:
    """(lines per (device_id, sim_t0), latest.json ts per device) from disk."""
    filed: Counter = Counter()
    latest: dict[str, int | None] = {}
    for device_dir in data_root.iterdir():
        if not device_dir.is_dir():
            continue
        for day_file in device_dir.rglob("*.jsonl"):
            with day_file.open(encoding="utf-8") as handle:
                for line in handle:
                    if line.strip():
                        obj = json.loads(line)
                        filed[(obj["device_id"], obj["sim_t0"])] += 1
        latest_path = device_dir / "latest.json"
        latest[device_dir.name] = (json.loads(latest_path.read_text())["ts"]
                                   if latest_path.exists() else None)
    return filed, latest
