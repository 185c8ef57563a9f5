"""Per-family payload decoders and the decoder manager.

Every raw broker message is turned into exactly one of: a NormalizedMessage
(device id and reading timestamp appended, readings flattened into a cooked
map) or a DeadLetter record. Decoders are pure functions; the registry picks
the highest-priority decoder whose matcher accepts the message, with ties
broken by name for determinism.
"""

from __future__ import annotations

import base64
import json
import logging
import math
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import cached_property
from typing import Any, Callable

log = logging.getLogger(__name__)

# Reading time may not run ahead of first-hop receipt by more than this.
CLOCK_SKEW_ALLOWANCE_MS = 500


class DecodeError(ValueError):
    pass


class NoDecoder(LookupError):
    pass


class DuplicateName(ValueError):
    pass


@dataclass(frozen=True)
class RawSensorMessage:
    topic: str
    payload: bytes
    received_at: int  # epoch ms, first-hop receipt

    @property
    def topic_levels(self) -> tuple[str, ...]:
        return tuple(self.topic.split("/"))


@dataclass
class NormalizedMessage:
    device_id: str
    ts: int  # epoch ms, reading time
    family: str
    cooked: dict[str, Any]
    original: bytes
    received_at: int
    sim_t0: int | None = None

    def to_jsonable(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "device_id": self.device_id,
            "ts": self.ts,
            "family": self.family,
            "cooked": self.cooked,
            "received_at": self.received_at,
            "sim_t0": self.sim_t0,
        }
        try:
            out["original"] = self.original.decode("utf-8")
        except UnicodeDecodeError:
            out["original_b64"] = base64.b64encode(self.original).decode("ascii")
        return out

    @cached_property
    def encoded(self) -> bytes:
        """UTF-8 JSON made once (normalize forces it); every hop writes these bytes.

        Strict JSON: a non-finite float raises ValueError instead of becoming
        ``Infinity`` or ``NaN``, so normalize dead-letters that reading.
        """
        return json.dumps(self.to_jsonable(), ensure_ascii=False,
                          allow_nan=False).encode("utf-8")

    @classmethod
    def from_jsonable(cls, raw: dict[str, Any]) -> "NormalizedMessage":
        if "original_b64" in raw:
            original = base64.b64decode(raw["original_b64"])
        else:
            original = str(raw.get("original", "")).encode("utf-8")
        return cls(
            device_id=raw["device_id"],
            ts=int(raw["ts"]),
            family=raw["family"],
            cooked=dict(raw["cooked"]),
            original=original,
            received_at=int(raw["received_at"]),
            sim_t0=raw.get("sim_t0"),
        )


@dataclass
class DeadLetter:
    topic: str
    payload: bytes
    received_at: int
    reason: str

    def to_jsonable(self) -> dict[str, Any]:
        return {
            "topic": self.topic,
            "payload_b64": base64.b64encode(self.payload).decode("ascii"),
            "received_at": self.received_at,
            "reason": self.reason,
        }


@dataclass(frozen=True)
class DecoderSpec:
    name: str
    priority: int
    matches: Callable[[str, bytes], bool]
    decode: Callable[[RawSensorMessage], NormalizedMessage]


def flatten(obj: dict[str, Any], prefix: str = "") -> dict[str, Any]:
    """Flatten nested dicts into dot-joined keys; lists become JSON strings."""
    out: dict[str, Any] = {}
    for key, value in obj.items():
        full = f"{prefix}.{key}" if prefix else str(key)
        if isinstance(value, dict):
            out.update(flatten(value, full))
        elif isinstance(value, (list, tuple)):
            out[full] = json.dumps(value)
        elif value is None or isinstance(value, (int, float, str, bool)):
            out[full] = value
        else:
            out[full] = str(value)
    return out


def _json_object(m: RawSensorMessage) -> dict[str, Any]:
    try:
        obj = json.loads(m.payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DecodeError(f"payload is not JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise DecodeError("payload JSON is not an object")
    return obj


def _finite_int(value: Any) -> int | None:
    """``int(value)`` for an int or a finite float; None for anything else
    (a bool, inf, NaN, a string)."""
    if isinstance(value, bool):
        return None
    if isinstance(value, int):
        return value
    if isinstance(value, float) and math.isfinite(value):
        return int(value)
    return None


def parse_time_ms(value: Any) -> int | None:
    """Epoch milliseconds from either a finite number or an ISO-8601 string."""
    if isinstance(value, str):
        try:
            dt = datetime.fromisoformat(value.replace("Z", "+00:00"))
        except ValueError:
            return None
        if dt.tzinfo is None:
            dt = dt.replace(tzinfo=timezone.utc)
        return int(dt.timestamp() * 1000)
    return _finite_int(value)


def _sim_t0(obj: dict[str, Any]) -> int | None:
    return _finite_int(obj.get("sim_t0"))


# --- family decoders ----------------------------------------------------------


def decode_smartplug(m: RawSensorMessage) -> NormalizedMessage:
    """Tasmota-style plug: device id lives in the topic, not the message."""
    obj = _json_object(m)
    levels = m.topic_levels
    if len(levels) != 3:
        raise DecodeError(f"unexpected smart-plug topic {m.topic!r}")
    device_id = levels[1]
    energy = obj.get("ENERGY")
    if not isinstance(energy, dict) or "Power" not in energy:
        raise DecodeError("no ENERGY.Power reading")
    cooked: dict[str, Any] = {"power_w": float(energy["Power"])}
    for key, value in flatten({k: v for k, v in energy.items() if k != "Power"}).items():
        cooked[f"energy.{key.lower()}"] = value
    ts = parse_time_ms(obj.get("Time")) or m.received_at
    return NormalizedMessage(device_id, ts, "smartplug", cooked, m.payload, m.received_at, _sim_t0(obj))


def decode_ttn(m: RawSensorMessage) -> NormalizedMessage:
    """TTN v3 uplink: device id is inside the message itself."""
    obj = _json_object(m)
    ids = obj.get("end_device_ids")
    if not isinstance(ids, dict) or not ids.get("device_id"):
        raise DecodeError("no end_device_ids.device_id")
    decoded = obj.get("uplink_message", {})
    payload_fields = decoded.get("decoded_payload", {}) if isinstance(decoded, dict) else {}
    cooked = flatten(payload_fields) if isinstance(payload_fields, dict) else {}
    ts = parse_time_ms(obj.get("received_at")) or m.received_at
    return NormalizedMessage(str(ids["device_id"]), ts, "ttn", cooked, m.payload, m.received_at, _sim_t0(obj))


def decode_zigbee(m: RawSensorMessage) -> NormalizedMessage:
    obj = _json_object(m)
    device_id = obj.get("id")
    if not device_id:
        levels = m.topic_levels
        if len(levels) >= 2 and levels[0] == "zigbee":
            device_id = levels[1]
    if not device_id:
        raise DecodeError("no sensor id")
    state = obj.get("state", {})
    cooked = flatten(state) if isinstance(state, dict) else {}
    return NormalizedMessage(str(device_id), m.received_at, "zigbee", cooked, m.payload,
                             m.received_at, _sim_t0(obj))


def decode_coffee(m: RawSensorMessage) -> NormalizedMessage:
    """Coffee sensor node: weight and both plug powers in one reading."""
    obj = _json_object(m)
    levels = m.topic_levels
    if len(levels) != 3:
        raise DecodeError(f"unexpected coffee topic {m.topic!r}")
    missing = [k for k in ("weight_kg", "grinder_w", "brewer_w") if k not in obj]
    if missing:
        raise DecodeError(f"coffee reading missing {missing}")
    cooked = {
        "weight_kg": float(obj["weight_kg"]),
        "grinder_w": float(obj["grinder_w"]),
        "brewer_w": float(obj["brewer_w"]),
    }
    ts = parse_time_ms(obj.get("ts")) or m.received_at
    return NormalizedMessage(levels[1], ts, "coffee", cooked, m.payload, m.received_at, _sim_t0(obj))


def decode_deepdish(m: RawSensorMessage) -> NormalizedMessage:
    obj = _json_object(m)
    levels = m.topic_levels
    if len(levels) < 2:
        raise DecodeError(f"unexpected deepdish topic {m.topic!r}")
    if "count" not in obj:
        raise DecodeError("no count field")
    cooked = {"people_count": int(obj["count"])}
    return NormalizedMessage(levels[1], m.received_at, "deepdish", cooked, m.payload,
                             m.received_at, _sim_t0(obj))


def decode_normalized_passthrough(m: RawSensorMessage) -> NormalizedMessage:
    """Re-ingest an already-normalized record (e.g. routed from a peer)."""
    obj = _json_object(m)
    try:
        msg = NormalizedMessage.from_jsonable(obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise DecodeError(f"not a normalized record: {exc}") from exc
    msg.original = m.payload
    msg.received_at = m.received_at
    msg.sim_t0 = _sim_t0(obj)
    return msg


def _looks_normalized(topic: str, payload: bytes) -> bool:
    if topic.startswith("normalized/"):
        return True
    return payload.startswith(b"{") and all(
        needle in payload for needle in (b'"device_id"', b'"ts"', b'"family"', b'"cooked"'))


def _topic_shape(prefix: str, nlevels: int | None = None, last: str | None = None):
    def matcher(topic: str, payload: bytes) -> bool:
        levels = topic.split("/")
        if levels[0] != prefix:
            return False
        return ((nlevels is None or len(levels) == nlevels)
                and (last is None or levels[-1] == last))

    return matcher


def _is_level(value: Any) -> bool:
    """True if value can be one bus-address level and one directory name.

    That is a str that is non-empty, not ``.`` or ``..``, holds no ``/``,
    ``+``, ``#`` or NUL, and encodes as UTF-8 (no lone surrogate).
    """
    if not isinstance(value, str) or value in ("", ".", ".."):
        return False
    if "/" in value or "+" in value or "#" in value or "\x00" in value:
        return False
    if value.isascii():
        return True
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


# --- registry -----------------------------------------------------------------


@dataclass
class RegistryStats:
    decoded: int = 0
    deadlettered: int = 0
    ts_clamped: int = 0


class DecoderRegistry:
    def __init__(self):
        self._specs: list[DecoderSpec] = []
        self.stats = RegistryStats()

    @property
    def names(self) -> list[str]:
        return [s.name for s in self._specs]

    def register(self, spec: DecoderSpec) -> None:
        if any(s.name == spec.name for s in self._specs):
            raise DuplicateName(spec.name)
        self._specs.append(spec)
        # highest priority first, name ascending for deterministic ties
        self._specs.sort(key=lambda s: (-s.priority, s.name))

    def select(self, m: RawSensorMessage) -> DecoderSpec:
        if not self._specs:
            raise NoDecoder("registry is empty")
        for spec in self._specs:
            try:
                if spec.matches(m.topic, m.payload):
                    return spec
            except Exception:
                continue
        raise NoDecoder(f"no decoder matches topic {m.topic!r}")

    def normalize(self, m: RawSensorMessage) -> NormalizedMessage:
        """Decode, apply the time-monotony clamp and encode; raises on failure."""
        spec = self.select(m)
        try:
            msg = spec.decode(m)
        except DecodeError:
            raise
        except Exception as exc:
            raise DecodeError(f"decoder {spec.name} failed: {exc}") from exc
        if not _is_level(msg.device_id):
            raise DecodeError(f"decoder {spec.name} produced device id {msg.device_id!r}")
        if not _is_level(msg.family):
            raise DecodeError(f"decoder {spec.name} produced family {msg.family!r}")
        if msg.ts > m.received_at + CLOCK_SKEW_ALLOWANCE_MS:
            msg.ts = m.received_at
            self.stats.ts_clamped += 1
        if msg.ts <= 0:
            raise DecodeError(f"reading time {msg.ts} is not positive")
        try:
            msg.encoded
        except (TypeError, ValueError) as exc:  # a lone surrogate, inf or NaN
            raise DecodeError(f"record is not encodable as UTF-8 JSON: {exc}") from exc
        self.stats.decoded += 1
        return msg

    def normalize_or_deadletter(self, m: RawSensorMessage) -> NormalizedMessage | DeadLetter:
        try:
            return self.normalize(m)
        except (DecodeError, NoDecoder) as exc:
            self.stats.deadlettered += 1
            return DeadLetter(m.topic, m.payload, m.received_at, str(exc))


def default_registry() -> DecoderRegistry:
    reg = DecoderRegistry()
    reg.register(DecoderSpec("smartplug", 100, _topic_shape("tele", 3, "SENSOR"), decode_smartplug))
    reg.register(DecoderSpec("ttn", 100, _topic_shape("v3", 5, "up"), decode_ttn))
    reg.register(DecoderSpec("zigbee", 100, _topic_shape("zigbee"), decode_zigbee))
    reg.register(DecoderSpec("coffee", 100, _topic_shape("coffee", 3, "reading"), decode_coffee))
    reg.register(DecoderSpec("deepdish", 100, _topic_shape("deepdish"), decode_deepdish))
    reg.register(DecoderSpec("normalized", 10, _looks_normalized, decode_normalized_passthrough))
    return reg
