"""Decoder fixtures, fallback rules, registry selection and totality."""

import json

import pytest

from sensert import decoders
from sensert.decoders import (
    DeadLetter,
    DecodeError,
    DecoderSpec,
    DuplicateName,
    NoDecoder,
    NormalizedMessage,
    RawSensorMessage,
    default_registry,
    flatten,
    parse_time_ms,
)


def raw(topic, obj_or_bytes, received_at=1_600_000_000_000):
    payload = obj_or_bytes if isinstance(obj_or_bytes, bytes) else json.dumps(obj_or_bytes).encode()
    return RawSensorMessage(topic=topic, payload=payload, received_at=received_at)


# --- smart plug ----------------------------------------------------------------

def test_smartplug_fixture():
    m = raw("tele/plug-17/SENSOR", {"Time": "2020-06-01T10:00:00",
                                    "ENERGY": {"Power": 42.0, "Total": 1.5}})
    out = decoders.decode_smartplug(m)
    assert out.device_id == "plug-17"
    assert out.family == "smartplug"
    assert out.cooked["power_w"] == 42.0
    assert out.cooked["energy.total"] == 1.5
    assert out.ts == parse_time_ms("2020-06-01T10:00:00")
    assert out.original == m.payload


def test_smartplug_missing_time_falls_back_to_receipt():
    m = raw("tele/p1/SENSOR", {"ENERGY": {"Power": 1.0}})
    assert decoders.decode_smartplug(m).ts == m.received_at


@pytest.mark.parametrize("payload", [
    b'{"ENERGY": {"Power": 5}, "sim_t0": 1e400}',
    b'{"ENERGY": {"Power": 5}, "sim_t0": NaN}',
    b'{"ENERGY": {"Power": 5}, "Time": 1e400}',
    b'{"ENERGY": {"Power": 5}, "Time": -Infinity}',
])
def test_a_non_finite_optional_tag_costs_only_the_tag(payload):
    """A non-finite sim_t0 is absent and a non-finite Time falls back to
    receipt; the power reading is kept."""
    m = raw("tele/p1/SENSOR", payload)
    out = default_registry().normalize_or_deadletter(m)
    assert isinstance(out, NormalizedMessage)
    assert (out.cooked["power_w"], out.ts, out.sim_t0) == (5.0, m.received_at, None)


@pytest.mark.parametrize("payload", [
    b'{"ENERGY": {"Power": 1e400}}',
    b'{"ENERGY": {"Power": NaN}}',
    b'{"ENERGY": {"Power": 5, "Today": -Infinity}}',
])
def test_a_non_finite_reading_value_is_deadlettered(payload):
    """Strict JSON has no Infinity or NaN, so no hop may write one."""
    out = default_registry().normalize_or_deadletter(raw("tele/p1/SENSOR", payload))
    assert isinstance(out, DeadLetter)
    assert "not encodable" in out.reason


def test_smartplug_not_json_is_decode_error():
    with pytest.raises(DecodeError):
        decoders.decode_smartplug(raw("tele/p1/SENSOR", b"not json"))


def test_smartplug_requires_power():
    with pytest.raises(DecodeError):
        decoders.decode_smartplug(raw("tele/p1/SENSOR", {"ENERGY": {}}))


# --- ttn -------------------------------------------------------------------------

def test_ttn_co2_fixture():
    m = raw("v3/app/devices/d1/up", {
        "end_device_ids": {"device_id": "d1"},
        "uplink_message": {"decoded_payload": {"co2": 600, "temperature": 21.5, "humidity": 40}},
    })
    out = decoders.decode_ttn(m)
    assert out.device_id == "d1"
    assert out.cooked == {"co2": 600, "temperature": 21.5, "humidity": 40}
    assert out.ts == m.received_at


def test_ttn_without_decoded_payload_still_normalizes():
    m = raw("v3/app/devices/d1/up", {"end_device_ids": {"device_id": "d1"}})
    out = decoders.decode_ttn(m)
    assert out.cooked == {}


def test_ttn_without_device_id_is_error():
    with pytest.raises(DecodeError):
        decoders.decode_ttn(raw("v3/app/devices/d1/up", {"uplink_message": {}}))


# --- zigbee / coffee / deepdish ---------------------------------------------------

def test_zigbee_fixture():
    m = raw("zigbee/m1/state", {"e": "changed", "r": "sensors", "id": "m1",
                                "state": {"presence": True}})
    out = decoders.decode_zigbee(m)
    assert out.device_id == "m1"
    assert out.cooked["presence"] is True
    assert out.family == "zigbee"


def test_zigbee_device_id_from_topic_fallback():
    m = raw("zigbee/m2/state", {"state": {"open": False}})
    assert decoders.decode_zigbee(m).device_id == "m2"


def test_coffee_fixture():
    m = raw("coffee/pot1/reading",
            {"weight_kg": 2.5, "grinder_w": 0, "brewer_w": 0, "ts": 1_600_000_000_123})
    out = decoders.decode_coffee(m)
    assert out.device_id == "pot1"
    assert out.ts == 1_600_000_000_123
    assert out.cooked["weight_kg"] == 2.5


def test_coffee_missing_field_is_error():
    with pytest.raises(DecodeError):
        decoders.decode_coffee(raw("coffee/pot1/reading", {"weight_kg": 1.0}))


def test_deepdish_fixture():
    m = raw("deepdish/cam1/count", {"count": 7})
    out = decoders.decode_deepdish(m)
    assert out.cooked == {"people_count": 7}
    assert out.device_id == "cam1"


# --- registry selection ------------------------------------------------------------

def test_select_by_topic():
    reg = default_registry()
    assert reg.select(raw("tele/p1/SENSOR", {})).name == "smartplug"
    assert reg.select(raw("v3/app/devices/d1/up", {})).name == "ttn"
    assert reg.select(raw("zigbee/m1/state", {})).name == "zigbee"
    assert reg.select(raw("coffee/pot1/reading", {})).name == "coffee"
    assert reg.select(raw("deepdish/cam1/count", {})).name == "deepdish"


def test_unknown_topic_no_decoder_and_deadletter():
    reg = default_registry()
    m = raw("unknown/x", {"a": 1})
    with pytest.raises(NoDecoder):
        reg.select(m)
    out = reg.normalize_or_deadletter(m)
    assert isinstance(out, DeadLetter)
    assert out.reason
    assert reg.stats.deadlettered == 1


def test_register_new_decoder_live():
    reg = default_registry()
    spec = DecoderSpec(
        name="custom", priority=100,
        matches=lambda topic, payload: topic.startswith("custom/"),
        decode=lambda m: NormalizedMessage("c1", m.received_at, "custom", {}, m.payload, m.received_at),
    )
    reg.register(spec)
    assert reg.select(raw("custom/x", {})).name == "custom"
    with pytest.raises(DuplicateName):
        reg.register(spec)


def test_lower_priority_overlapping_decoder_does_not_steal():
    reg = default_registry()
    reg.register(DecoderSpec(
        name="shadow", priority=1,
        matches=lambda topic, payload: topic.startswith("tele/"),
        decode=lambda m: NormalizedMessage("x", m.received_at, "shadow", {}, m.payload, m.received_at),
    ))
    assert reg.select(raw("tele/p1/SENSOR", {})).name == "smartplug"


def test_priority_tie_broken_by_name():
    reg = DecoderRegistry = decoders.DecoderRegistry()
    mk = lambda name: DecoderSpec(  # noqa: E731
        name=name, priority=5,
        matches=lambda topic, payload: True,
        decode=lambda m: NormalizedMessage("d", m.received_at, name, {}, m.payload, m.received_at),
    )
    reg.register(mk("zeta"))
    reg.register(mk("alpha"))
    assert reg.select(raw("any", {})).name == "alpha"


# --- normalization wrapper -----------------------------------------------------------

def test_time_monotony_clamped_and_counted():
    reg = default_registry()
    future = 1_600_000_100_000  # 100 s ahead of receipt
    m = raw("coffee/pot1/reading",
            {"weight_kg": 1.0, "grinder_w": 0, "brewer_w": 0, "ts": future},
            received_at=1_600_000_000_000)
    out = reg.normalize(m)
    assert out.ts == m.received_at
    assert reg.stats.ts_clamped == 1


def test_small_skew_within_allowance_kept():
    reg = default_registry()
    near = 1_600_000_000_400  # +400 ms, inside the 500 ms allowance
    m = raw("coffee/pot1/reading",
            {"weight_kg": 1.0, "grinder_w": 0, "brewer_w": 0, "ts": near},
            received_at=1_600_000_000_000)
    assert reg.normalize(m).ts == near


def test_totality_every_message_resolves():
    reg = default_registry()
    messages = [
        raw("tele/p1/SENSOR", {"ENERGY": {"Power": 0}}),
        raw("tele/p1/SENSOR", b"garbage"),
        raw("nowhere/x", {}),
        raw("v3/app/devices/d/up", {"end_device_ids": {"device_id": "d"}}),
    ]
    outs = [reg.normalize_or_deadletter(m) for m in messages]
    assert sum(isinstance(o, NormalizedMessage) for o in outs) == 2
    assert sum(isinstance(o, DeadLetter) for o in outs) == 2
    assert reg.stats.decoded + reg.stats.deadlettered == len(messages)


# --- passthrough idempotence -----------------------------------------------------------

def test_passthrough_idempotent_on_core_fields():
    reg = default_registry()
    first = reg.normalize(raw("tele/plug-17/SENSOR",
                              {"Time": "2020-06-01T10:00:00", "ENERGY": {"Power": 42.0}}))
    rewrapped = RawSensorMessage(
        topic="normalized/feed/smartplug/plug-17",
        payload=first.encoded,
        received_at=first.received_at + 50,
    )
    again = reg.normalize(rewrapped)
    assert reg.select(rewrapped).name == "normalized"
    assert (again.device_id, again.ts, again.cooked) == (first.device_id, first.ts, first.cooked)


@pytest.mark.parametrize("sim_t0,expected", [(123, 123), ("123", None), (True, None)])
def test_passthrough_sim_t0_is_an_int_or_none(sim_t0, expected):
    record = {"device_id": "n1", "ts": 1_590_998_400_000, "family": "smartplug",
              "cooked": {}, "received_at": 1, "sim_t0": sim_t0}
    msg = default_registry().normalize(RawSensorMessage(
        "normalized/x", json.dumps(record).encode(), 1_590_998_400_000))
    assert msg.sim_t0 == expected


def test_normalized_json_roundtrip_binary_original():
    msg = NormalizedMessage("d", 1, "f", {"x": 1}, b"\xff\x00", 2, sim_t0=3)
    back = NormalizedMessage.from_jsonable(json.loads(msg.encoded))
    assert back.original == b"\xff\x00"
    assert back.sim_t0 == 3


# --- flatten -----------------------------------------------------------------------------

def test_flatten_nested_keys():
    assert flatten({"a": {"b": 1, "c": {"d": "x"}}, "e": True}) == {
        "a.b": 1, "a.c.d": "x", "e": True}


def test_flatten_lists_become_json_strings():
    assert flatten({"a": [1, 2]}) == {"a": "[1, 2]"}


def test_parse_time_ms_variants():
    assert parse_time_ms(1000) == 1000
    assert parse_time_ms("1970-01-01T00:00:01Z") == 1000
    assert parse_time_ms("1970-01-01T00:00:01+00:00") == 1000
    assert parse_time_ms("nonsense") is None
    assert parse_time_ms(None) is None
    assert parse_time_ms(float("inf")) is None
    assert parse_time_ms(float("nan")) is None
