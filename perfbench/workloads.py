"""The benchmark's workloads: device populations, rules, schedules, readings.

Every workload is an open-loop, paced schedule: at ``rate`` readings per
second, reading ``j`` is due at a seeded point of its slot
``[j/rate, (j+1)/rate)`` and the devices take turns in a seeded order, so a
phase of ``seconds`` seconds sends exactly ``rate * seconds`` readings and
each device sends every ``n_devices / rate`` seconds.

Ruled devices "flap": their scripted value sits outside the threshold for two
readings of every FLAP_CYCLE, so each crosses and clears its rule on a fixed
cycle and the expected event sequence is known from the readings sent.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable

from sensert.bench import make_fleet
from sensert.rts.verticles import ThresholdRule
from sensert.simfleet import DeviceProfile, build_payload, default_state, stable_seed
from sensert.stack import DEFAULT_RULES

# family -> (field, op, threshold, hysteresis, value while flapped out).
# The default values of these fields (default_state) all clear their rule.
FLAP = {
    "smartplug": ("power_w", "<", 1.0, 5.0, 0.0),
    "lora_co2": ("co2", ">", 1000.0, 50.0, 1200),
    "lora_temp": ("temperature", ">", 30.0, 2.0, 35.0),
    "lora_occupancy": ("occupancy", ">", 5.0, 1.0, 10),
}

FLAP_CYCLE = 4

LADDER_STEP = 1.05
LADDER_RUNGS = 32


def ladder(ref_rate: int) -> tuple[int, ...]:
    """Geometric rate ladder from the reference rate up, 5 % per rung."""
    return tuple(round(ref_rate * LADDER_STEP ** i) for i in range(LADDER_RUNGS))


def fleet_profiles(n: int) -> list[DeviceProfile]:
    """``bench.make_fleet``'s mix without its two ZigBee entries, n devices."""
    profiles = [p for p in make_fleet(n * 10 // 8 + 10) if not p.family.startswith("zigbee")]
    return profiles[:n]


RULES_POPULATION = 800


def rules_profiles(_rate: int) -> list[DeviceProfile]:
    """800 fleet devices and five coffee nodes, which give RTCoffee its input."""
    return (fleet_profiles(RULES_POPULATION)
            + [DeviceProfile(f"coffee-{i}", "coffee") for i in range(5)])


def per_device_rules(profiles: list[DeviceProfile]) -> list[ThresholdRule]:
    """One rule per flapping device, each matching that device alone."""
    rules = []
    for p in profiles:
        if p.family not in FLAP:
            continue
        field, op, value, hysteresis, _ = FLAP[p.family]
        prefix = "smartplug" if p.family == "smartplug" else "ttn"
        rules.append(ThresholdRule(filter=f"feed/{prefix}/{p.device_id}", field=field,
                                   op=op, value=value, hysteresis=hysteresis))
    return rules


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    ref_rate: int
    devices: Callable[[int], list[DeviceProfile]]  # rate -> population
    flap_families: frozenset
    per_device_rules: bool = False

    @property
    def ladder(self) -> tuple[int, ...]:
        return ladder(self.ref_rate)

    def rules(self) -> list[ThresholdRule]:
        if self.per_device_rules:
            return per_device_rules(self.devices(self.ref_rate))
        return list(DEFAULT_RULES)


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="fleet",
            why="many 1 Hz devices, one day-file and latest.json each: the filer "
                "dominates and the bus has ~6 subscriptions",
            ref_rate=1000, devices=fleet_profiles,
            flap_families=frozenset({"smartplug", "lora_co2"})),
        Workload(
            name="rules",
            why="800 fleet devices (and 5 coffee nodes) with one threshold rule per plug "
                "and LoRa device, 700 subscriptions: bus fan-out dominates",
            ref_rate=400, devices=rules_profiles,
            flap_families=frozenset(FLAP), per_device_rules=True),
    )
}


def schedule(rate: int, seconds: int, n_devices: int,
             rng: random.Random) -> list[tuple[int, int]]:
    """(offset_ns, device_index) of every reading in a phase, in send order."""
    if (n_devices - 1) * 1000 <= rate:
        raise ValueError(f"{n_devices} devices cannot carry {rate}/s with distinct ms stamps")
    order = list(range(n_devices))
    rng.shuffle(order)
    slot_ns = 1e9 / rate
    return [(int((j + rng.random()) * slot_ns), order[j % n_devices])
            for j in range(rate * seconds)]


class Device:
    """One simulated device: family-native payloads, scripted flapping."""

    def __init__(self, profile: DeviceProfile, seed: int, flaps: bool):
        self.profile = profile
        self.rng = random.Random(stable_seed(seed, profile.device_id))
        self.state = default_state(profile, self.rng)
        self.flap = FLAP[profile.family] if flaps else None
        self.normal = self.state[self.flap[0]] if self.flap else None
        self.tick = 0

    def reading(self, t_ms: int) -> tuple[str, bytes, bool]:
        """(topic, payload, flapped_out) of the next reading, stamped t_ms."""
        self.tick += 1
        out = False
        if self.flap is not None:
            out = self.tick % FLAP_CYCLE in (FLAP_CYCLE // 2, FLAP_CYCLE // 2 + 1)
            self.state[self.flap[0]] = self.flap[4] if out else self.normal
        topic, payload = build_payload(self.profile, self.state, t_ms, self.rng, self.tick)
        return topic, json.dumps(payload).encode(), out
