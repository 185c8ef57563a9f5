"""Spatio-temporal metadata: container hierarchy and device history.

Everything is timestamped and append-only, so any past deployment state can
be answered with an as-of query: device metadata (including location) and
the container parent edges are both kept as full history. Persistence is two
JSON-lines journals (devices.jsonl, containers.jsonl); the in-memory index
is rebuilt when a store opens. Writes per store are serialized; queries read
a consistent snapshot of the journal prefix.
"""

from __future__ import annotations

import bisect
import json
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

KINDS = ("building", "floor", "room", "desk")  # coarsest to finest
_KIND_RANK = {k: i for i, k in enumerate(KINDS)}


class ValidationError(ValueError):
    pass


class KindError(ValidationError):
    pass


class CycleError(ValidationError):
    pass


class UnknownContainer(KeyError):
    pass


@dataclass(frozen=True)
class Location:
    x_m: float
    y_m: float
    floor: int
    h_m: float
    container_id: str

    def __post_init__(self):
        if self.x_m < 0 or self.y_m < 0:
            raise ValidationError("x_m and y_m are metres from the building origin, >= 0")

    def to_jsonable(self) -> dict:
        return {"x_m": self.x_m, "y_m": self.y_m, "floor": self.floor,
                "h_m": self.h_m, "container_id": self.container_id}

    @classmethod
    def from_jsonable(cls, raw: dict) -> "Location":
        return cls(x_m=float(raw["x_m"]), y_m=float(raw["y_m"]),
                   floor=int(raw["floor"]), h_m=float(raw.get("h_m", 0.0)),
                   container_id=str(raw["container_id"]))


@dataclass(frozen=True)
class SpatialContainer:
    container_id: str
    kind: str
    name: str
    parent_id: str | None = None
    geometry: tuple[tuple[float, float], ...] | None = None  # 2D polygon, metres

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValidationError(f"kind must be one of {KINDS}, got {self.kind!r}")

    def to_doc(self) -> dict:
        doc: dict[str, Any] = {"kind": self.kind, "name": self.name, "parent_id": self.parent_id}
        if self.geometry is not None:
            doc["geometry"] = [list(p) for p in self.geometry]
        return doc


@dataclass(frozen=True)
class DeviceMetadataRecord:
    device_id: str
    ts: int  # epoch ms
    doc: dict[str, Any]  # must contain "location"

    def location(self) -> Location:
        return Location.from_jsonable(self.doc["location"])


@dataclass
class _History:
    """Per-id timestamped docs, ts strictly increasing."""

    ts: list[int] = field(default_factory=list)
    docs: list[dict] = field(default_factory=list)

    def append(self, ts: int, doc: dict) -> None:
        if self.ts and ts <= self.ts[-1]:
            raise ValidationError(
                f"ts {ts} not after latest {self.ts[-1]}; history is append-only")
        self.ts.append(ts)
        self.docs.append(doc)

    def asof(self, t: int) -> tuple[int, dict] | None:
        i = bisect.bisect_right(self.ts, t)
        if i == 0:
            return None
        return self.ts[i - 1], self.docs[i - 1]


class MetadataStore:
    """Device and container stores with optional JSONL journals."""

    def __init__(self, root: str | Path | None = None):
        self.root = Path(root) if root is not None else None
        self._lock = threading.Lock()
        self._devices: dict[str, _History] = {}
        self._containers: dict[str, _History] = {}
        if self.root is not None:
            self.root.mkdir(parents=True, exist_ok=True)
            self._load()

    # --- journal ------------------------------------------------------------

    def _load(self) -> None:
        for line in self._read_lines("containers.jsonl"):
            self._containers.setdefault(line["id"], _History()).append(line["ts"], line["doc"])
        for line in self._read_lines("devices.jsonl"):
            self._devices.setdefault(line["id"], _History()).append(line["ts"], line["doc"])

    def _read_lines(self, name: str) -> Iterator[dict]:
        if self.root is None:
            return
        path = self.root / name
        if not path.exists():
            return
        with path.open(encoding="utf-8") as handle:
            for raw in handle:
                raw = raw.strip()
                if raw:
                    yield json.loads(raw)

    def _journal(self, name: str, entry_id: str, ts: int, doc: dict) -> None:
        if self.root is None:
            return
        line = json.dumps({"id": entry_id, "ts": ts, "doc": doc}, ensure_ascii=False)
        with (self.root / name).open("a", encoding="utf-8") as handle:
            handle.write(line + "\n")

    # --- containers -----------------------------------------------------------

    def add_container(self, container: SpatialContainer, ts: int) -> None:
        with self._lock:
            doc = container.to_doc()
            self._check_parent(container.container_id, container.kind,
                               container.parent_id, ts)
            self._containers.setdefault(container.container_id, _History()).append(ts, doc)
            self._journal("containers.jsonl", container.container_id, ts, doc)

    def reparent(self, container_id: str, new_parent_id: str | None, ts: int) -> None:
        """Record a hierarchy change at ts; earlier queries are unaffected."""
        with self._lock:
            history = self._containers.get(container_id)
            if history is None:
                raise UnknownContainer(container_id)
            latest = dict(history.docs[-1])
            self._check_parent(container_id, latest["kind"], new_parent_id, ts)
            latest["parent_id"] = new_parent_id
            history.append(ts, latest)
            self._journal("containers.jsonl", container_id, ts, latest)

    def _check_parent(self, container_id: str, kind: str, parent_id: str | None, ts: int) -> None:
        if parent_id is None:
            return
        parent = self._container_doc(parent_id, ts)
        if parent is None:
            raise UnknownContainer(parent_id)
        # walk up from the new parent; reaching container_id means a cycle
        # (checked before kinds so a self-parent reads as what it is)
        seen = 0
        current = parent_id
        while current is not None:
            if current == container_id:
                raise CycleError(f"reparenting {container_id} under {parent_id} creates a cycle")
            doc = self._container_doc(current, ts)
            current = doc["parent_id"] if doc else None
            seen += 1
            if seen > len(self._containers) + 1:
                raise CycleError("hierarchy walk did not terminate")
        if _KIND_RANK[parent["kind"]] >= _KIND_RANK[kind]:
            raise KindError(
                f"{kind} cannot sit under {parent['kind']} (parents must be coarser)")

    def _container_doc(self, container_id: str, t: int) -> dict | None:
        history = self._containers.get(container_id)
        if history is None:
            return None
        hit = history.asof(t)
        return hit[1] if hit else None

    def descendants(self, container_id: str, t: int) -> set[str]:
        """The container and every transitive child, as of t."""
        if container_id not in self._containers:
            raise UnknownContainer(container_id)
        out = {container_id}
        changed = True
        while changed:
            changed = False
            for cid in self._containers:
                if cid in out:
                    continue
                doc = self._container_doc(cid, t)
                if doc and doc.get("parent_id") in out:
                    out.add(cid)
                    changed = True
        return out

    # --- devices ----------------------------------------------------------------

    def upsert_device(self, rec: DeviceMetadataRecord) -> None:
        with self._lock:
            if "location" not in rec.doc:
                raise ValidationError("device doc must contain a location property")
            location = Location.from_jsonable(rec.doc["location"])
            if location.container_id not in self._containers:
                raise UnknownContainer(location.container_id)
            doc = dict(rec.doc)
            doc["ts"] = rec.ts
            self._devices.setdefault(rec.device_id, _History()).append(rec.ts, doc)
            self._journal("devices.jsonl", rec.device_id, rec.ts, doc)

    def get_asof(self, device_id: str, t: int) -> DeviceMetadataRecord | None:
        history = self._devices.get(device_id)
        if history is None:
            return None
        hit = history.asof(t)
        if hit is None:
            return None
        ts, doc = hit
        return DeviceMetadataRecord(device_id=device_id, ts=ts, doc=doc)

    def device_history(self, device_id: str) -> list[DeviceMetadataRecord]:
        history = self._devices.get(device_id)
        if history is None:
            return []
        return [DeviceMetadataRecord(device_id, ts, doc)
                for ts, doc in zip(history.ts, history.docs)]

    def device_ids(self) -> list[str]:
        return sorted(self._devices)

    def devices_in(self, container_id: str, t: int) -> list[str]:
        """Devices whose as-of-t location is in the container or below it."""
        if container_id not in self._containers:
            raise UnknownContainer(container_id)
        out = []
        for device_id in self._devices:
            rec = self.get_asof(device_id, t)
            if rec is None:
                continue
            current = rec.location().container_id
            # walk up the hierarchy as of t
            hops = 0
            while current is not None:
                if current == container_id:
                    out.append(device_id)
                    break
                doc = self._container_doc(current, t)
                current = doc.get("parent_id") if doc else None
                hops += 1
                if hops > len(self._containers) + 1:
                    break
        return sorted(out)
