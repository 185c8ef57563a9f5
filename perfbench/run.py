"""Open-loop, out-of-process benchmark of the sensert pipeline.

    python3 perfbench/run.py --workload fleet --seed 1 --seconds 32 --trace 0

This process is the load generator and the client: one process, one thread,
one asyncio loop. The stack under test runs in a child process
(``perfbench/sut.py``). Readings go out over two uplinks, Wi-Fi MQTT to the
local broker and LoRa MQTT to the ttn broker (so LoRa readings cross the
ttn->local bridge), and come back on one DataMonitor client subscribed to
``feed/#`` and ``event/#``. A reading's latency runs from its scheduled send
time to its receipt by the client, so generator lateness counts, and a
reading that never arrives counts as over every limit.

``--trace 0`` measures the end-to-end metrics: set-up time, latency and CPU
per message at the workload's reference rate, and the knee, found by a
binary search over the workload's rate ladder; the wall-clock ones are
printed but not gated (README, "Steadiness"). ``--trace 1`` measures the
per-layer metrics: an untraced and a traced session at the reference rate
(hop spans, queue depths, tracing overhead) and a replay of the workload's
own inputs through each layer's public functions. Both print a report and,
as the last line, one JSON object. Every run reconciles exactly what was
sent against what the client received and the filer stored.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import random
import select
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
try:
    import sensert
    from layers import replay_layers
    from reconcile import (Reconciliation, check_conservation, check_events, check_latest,
                           check_readings, named_drops, read_store)
    from sensert.decoders import NormalizedMessage
    from sensert.mqtt_client import MqttClient
    from sensert.rts.coffee import replay
    from stats import WINDOW, summarize, windowed
    from workloads import WORKLOADS, Device, schedule
except ImportError as exc:
    sys.exit(f"perfbench: cannot import sensert from {SRC}: {exc}")
if Path(sensert.__file__).resolve().parent != (SRC / "sensert").resolve():
    sys.exit(f"perfbench: imported sensert from {sensert.__file__}, not from {SRC}")

HOST = "127.0.0.1"
RUN_DIR = ROOT / ".perfbench_run"

LIMIT_MS = 50.0            # latency limit on the tail, for the knee
SETUPS = 3                 # set-ups per run; setup_s is their median
WARM_S = 2                 # warm-up at the reference rate before measuring
PROBE_WARM_S = 1           # per knee probe: warm-up, then measured seconds
PROBE_S = 2
PROBES = 5                 # binary search over the 32-rung ladder
BACKLOG_S = 0.25           # a probe stops once this much traffic is in flight,
BACKLOG_MAX = 800          # and well before the stack's 1024-deep queues can drop
DRAIN_TIMEOUT_S = 10.0
REPLAY_SAMPLE = 3000


# The filer's blocking file I/O stalls the whole stack whenever the disk under
# it stalls (README, "Data root on tmpfs"). Runs keep their data root on a tmpfs that
# is mounted in a private mount namespace over the run directory, so it is
# seen only by this process tree and is gone when the run ends.
MOUNT_TMPFS = ('if mount -t tmpfs -o size=256m perfbench "$0" 2>/dev/null; '
               'then export PERFBENCH_STORE=tmpfs; else export PERFBENCH_STORE=disk; fi; '
               'exec "$@"')


def enter_tmpfs(argv: list[str]) -> None:
    """Re-execute this run with the run directory on tmpfs, where that is allowed."""
    if "PERFBENCH_STORE" in os.environ:
        return
    os.environ["PERFBENCH_STORE"] = "disk"
    unshare = shutil.which("unshare")
    namespace = [unshare, "--user", "--map-root-user", "--mount"]
    if unshare is None or subprocess.run(namespace + ["true"], capture_output=True,
                                         timeout=30).returncode != 0:
        return
    RUN_DIR.mkdir(exist_ok=True)
    os.execv(unshare, namespace + ["sh", "-c", MOUNT_TMPFS, str(RUN_DIR), sys.executable,
                                   str(Path(__file__).resolve()), *argv])


def clear_run_dir() -> None:
    RUN_DIR.mkdir(exist_ok=True)
    for child in RUN_DIR.iterdir():
        shutil.rmtree(child)


# --- the stack under test -------------------------------------------------------------


class SutProcess:
    """The child process running the stack; one JSON command per call."""

    def __init__(self):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.proc = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "sut.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT, env=env, text=True)

    def call(self, cmd: str, timeout_s: float = 60.0, **args) -> dict:
        self.proc.stdin.write(json.dumps({"cmd": cmd, **args}) + "\n")
        self.proc.stdin.flush()
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout_s)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError(f"stack process gave no answer to {cmd!r}")
        return json.loads(line)

    def close(self) -> None:
        try:
            self.proc.stdin.write(json.dumps({"cmd": "exit"}) + "\n")
            self.proc.stdin.close()
            self.proc.wait(timeout=20)
        except (OSError, ValueError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()


# --- generator and client ---------------------------------------------------------------


class Reading:
    __slots__ = ("device", "sched_ns", "lag_ns", "phase", "recv", "recv_ns", "ts", "body")

    def __init__(self, device: str, sched_ns: int, lag_ns: int, phase: "Phase"):
        self.device = device
        self.sched_ns = sched_ns
        self.lag_ns = lag_ns
        self.phase = phase
        self.recv = 0
        self.recv_ns = 0
        self.ts = None
        self.body = None


class Phase:
    def __init__(self, name: str, rate: int, measure_from_ns: int):
        self.name = name
        self.rate = rate
        self.measure_from_ns = measure_from_ns
        self.keys: list = []
        self.received = 0
        self.aborted = False

    def measured(self, readings: dict) -> list:
        return [readings[k] for k in self.keys if readings[k].sched_ns >= self.measure_from_ns]

    def latencies_ms(self, readings: dict, now_ns: int) -> list[tuple[float, float]]:
        """(latency, generator lag) per measured reading, in send order; a reading
        not received counts as still waiting at now_ns."""
        return [(((r.recv_ns if r.recv else now_ns) - r.sched_ns) / 1e6, r.lag_ns / 1e6)
                for r in self.measured(readings)]


class ClientProtocol(asyncio.Protocol):
    """The DataMonitor client: stamps each line when the socket is read.

    Lines are parsed later, between sends, so parsing a burst of output
    neither delays the generator nor the receipt stamps of later lines.
    """

    def __init__(self):
        self.transport = None
        self.tail = b""
        self.lines: list[tuple[int, bytes]] = []
        self.count = 0  # lines received, parsed or not

    def connection_made(self, transport) -> None:
        self.transport = transport

    def data_received(self, data: bytes) -> None:
        t = time.time_ns()
        *lines, self.tail = (self.tail + data).split(b"\n")
        self.lines.extend((t, line) for line in lines)
        self.count += len(lines)


class Session:
    """One stack lifetime: its uplinks, its client and everything sent to it."""

    def __init__(self, workload, seed: int, ports: dict):
        self.workload = workload
        self.seed = seed
        self.ports = ports
        self.rng = random.Random(f"schedule:{seed}")
        self.devices: dict[str, object] = {}
        self.readings: dict[tuple[str, int], Reading] = {}
        self.phases: list[Phase] = []
        self.build_ns: list[int] = []
        self.expected_events: dict[str, list[tuple[str, tuple]]] = {}
        self.flapped: dict[str, bool] = {}
        self.n_expected_events = 0
        self.threshold_events: dict[str, list[tuple[int, str]]] = {}
        self.coffee_events: dict[str, list[str]] = {}
        self.strays = 0
        self.samples: list[tuple[str, bytes]] = []
        self.keep_samples = False
        self.wifi = self.ttn = None
        self.client: ClientProtocol | None = None

    async def open(self) -> int:
        """Connect both uplinks and the client; time.time_ns() once subscribed."""
        self.wifi = await MqttClient.connect(HOST, self.ports["local"], client_id="bench-wifi",
                                             keep_alive_s=0)
        self.ttn = await MqttClient.connect(HOST, self.ports["ttn"], client_id="bench-ttn",
                                            keep_alive_s=0)
        self.client = ClientProtocol()
        await asyncio.get_running_loop().create_connection(
            lambda: self.client, HOST, self.ports["monitor"])
        self.client.transport.write(
            b'{"method": "subscribe", "filters": ["feed/#", "event/#"]}\n')
        deadline = time.monotonic() + 5.0
        while not self.client.lines and time.monotonic() < deadline:
            await asyncio.sleep(0.001)
        t_subscribed = time.time_ns()
        ack = json.loads(self.client.lines.pop(0)[1]) if self.client.lines else {}
        if ack.get("ok") != "subscribe":
            raise RuntimeError(f"client subscribe refused: {ack}")
        self.client.count = 0
        return t_subscribed

    async def close(self) -> None:
        if self.client is not None:
            self.client.transport.close()
        for client in (self.wifi, self.ttn):
            if client is not None:
                await client.close()

    # client side

    def parse(self) -> None:
        """Account for every line the client has received so far."""
        lines, self.client.lines = self.client.lines, []
        for t, line in lines:
            self._on_line(json.loads(line), t)

    def _on_line(self, obj: dict, t: int) -> None:
        address = obj.get("address", "")
        body = obj.get("body")
        if address.startswith("feed/") and isinstance(body, dict) and "sim_t0" in body:
            reading = self.readings.get((body["device_id"], body["sim_t0"]))
            if reading is None:
                self.strays += 1
                return
            reading.recv += 1
            if reading.recv == 1:
                reading.recv_ns = t
                reading.ts = body["ts"]
                reading.phase.received += 1
                if body["family"] == "coffee":
                    reading.body = body
        elif address.startswith("event/threshold/"):
            self.threshold_events.setdefault(body["device_id"], []).append(
                (t, body["event_type"]))
        elif address.startswith("event/coffee/"):
            self.coffee_events.setdefault(body["device_id"], []).append(body["event_type"])
        else:
            self.strays += 1

    # generator side

    def _device(self, profile):
        device = self.devices.get(profile.device_id)
        if device is None:
            device = self.devices[profile.device_id] = Device(
                profile, self.seed, profile.family in self.workload.flap_families)
        return device

    def _send(self, device, due_ns: int, phase: Phase) -> None:
        t0 = time.time_ns()
        sim_t0 = due_ns // 1_000_000
        topic, payload, out = device.reading(sim_t0)
        t1 = time.time_ns()
        device_id = device.profile.device_id
        key = (device_id, sim_t0)
        if key in self.readings:
            raise RuntimeError(f"two readings share the key {key}")
        uplink = self.ttn if device.profile.transport == "ttn_mqtt" else self.wifi
        uplink.publish_nowait(topic, payload)
        self.readings[key] = Reading(device_id, due_ns, t0 - due_ns, phase)
        phase.keys.append(key)
        self.build_ns.append(t1 - t0)
        if self.keep_samples and len(self.samples) < REPLAY_SAMPLE:
            self.samples.append((topic, payload))
        if device.flap is not None and out != self.flapped.get(device_id, False):
            self.flapped[device_id] = out
            self.expected_events.setdefault(device_id, []).append(
                ("threshold-crossed" if out else "threshold-cleared", key))
            self.n_expected_events += 1

    async def run_phase(self, name: str, rate: int, seconds: int, warm_s: int = 0,
                        abort: bool = False) -> Phase:
        """Send rate*seconds readings on schedule; the first warm_s are not measured."""
        devices = [self._device(p) for p in self.workload.devices(rate)]
        plan = schedule(rate, seconds, len(devices), self.rng)
        start_ns = time.time_ns() + 20_000_000
        phase = Phase(name, rate, start_ns + warm_s * 1_000_000_000)
        self.phases.append(phase)
        backlog_limit = min(BACKLOG_MAX, max(50, int(rate * BACKLOG_S)))
        i, n = 0, len(plan)
        while i < n:
            now = time.time_ns()
            due = start_ns + plan[i][0]
            if due > now:
                await asyncio.sleep((due - now) / 1e9)
                continue
            while i < n and start_ns + plan[i][0] <= now:
                self._send(devices[plan[i][1]], start_ns + plan[i][0], phase)
                i += 1
            if abort and self.in_flight() > backlog_limit:
                phase.aborted = True
                break
            await asyncio.sleep(0)
        return phase

    def in_flight(self) -> int:
        """Readings and threshold events due at the client but not yet received."""
        return len(self.readings) + self.n_expected_events - self.client.count

    async def wait_delivered(self, timeout_s: float = DRAIN_TIMEOUT_S) -> bool:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            self.parse()
            if all(p.received >= len(p.keys) for p in self.phases):
                return True
            await asyncio.sleep(0.005)
        return False

    async def wait_events(self, timeout_s: float = 5.0) -> None:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            self.parse()
            if sum(len(v) for v in self.threshold_events.values()) >= self.n_expected_events:
                return
            await asyncio.sleep(0.01)

    # results

    def event_latencies_ms(self, phase: Phase) -> list[tuple[float, float]]:
        """(latency, generator lag) from the scheduled send of each flapping reading
        in the phase to its event's receipt, in send order."""
        out = []
        for device, expected in self.expected_events.items():
            got = self.threshold_events.get(device, [])
            for (_, key), (t, _) in zip(expected, got):
                r = self.readings[key]
                if r.phase is phase and r.sched_ns >= phase.measure_from_ns:
                    out.append((r.sched_ns, (t - r.sched_ns) / 1e6, r.lag_ns / 1e6))
        return [(latency, lag) for _, latency, lag in sorted(out)]

    def reconcile(self, data_root: Path, stats: dict):
        r = Reconciliation()
        filed, latest = read_store(data_root)
        check_readings({k: v.recv for k, v in self.readings.items()}, filed, r)
        check_events({d: [kind for kind, _ in v] for d, v in self.expected_events.items()},
                     {d: [kind for _, kind in v] for d, v in self.threshold_events.items()},
                     r, "threshold")
        coffee_in: dict[str, list] = {}
        for reading in self.readings.values():  # in send order, as each device sent them
            if reading.body is not None:
                coffee_in.setdefault(reading.device, []).append(
                    NormalizedMessage.from_jsonable(reading.body))
        expected_coffee = {d: [e.event_type for e in replay(msgs)]
                           for d, msgs in coffee_in.items()}
        check_events(expected_coffee, self.coffee_events, r, "coffee")
        max_ts: dict[str, int] = {}
        for reading in self.readings.values():
            if reading.recv and (reading.device not in max_ts or reading.ts > max_ts[reading.device]):
                max_ts[reading.device] = reading.ts
        check_latest(latest, max_ts, r)
        check_conservation(stats, r)
        if self.strays:
            r.fail(self.strays, f"{self.strays} client lines matching no reading sent")
        return r, filed

    def lag_summary(self, phase: Phase) -> dict:
        return summarize([self.readings[k].lag_ns / 1e6 for k in phase.keys])


# --- one run ----------------------------------------------------------------------------


class Run:
    def __init__(self, workload, seed: int, seconds: int):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.rules = [r.__dict__ for r in workload.rules()]
        self.sut = SutProcess()
        self.attempted = 0
        self.failed = 0

    @staticmethod
    def say(line: str) -> None:
        print(line, flush=True)

    async def start(self, name: str, trace: bool) -> tuple[Session, Path, float]:
        data_root = RUN_DIR / name
        reply = self.sut.call("start", data_root=str(data_root), rules=self.rules, trace=trace)
        session = Session(self.workload, self.seed, reply)
        t_subscribed = await session.open()
        return session, data_root, (t_subscribed - reply["t_start"]) / 1e9

    async def stop(self, session: Session) -> None:
        await session.close()
        self.sut.call("stop")

    async def finish(self, session: Session, data_root: Path, label: str) -> dict:
        """Drain, reconcile, stop; returns the stack's final stats."""
        delivered = await session.wait_delivered()
        drained = self.sut.call("drain")["drained"]
        await session.wait_events()
        stats = self.sut.call("stats")
        session.parse()
        recon, filed = session.reconcile(data_root, stats)
        if not delivered or not drained:
            recon.fail(1, f"pipeline did not drain within {DRAIN_TIMEOUT_S:.0f} s")
        sent = len(session.readings)
        self.attempted += sent
        self.failed += recon.failed
        self.say(f"[{label}] sent {sent}, client receipts "
                 f"{sum(r.recv for r in session.readings.values())}, lines filed "
                 f"{sum(filed.values())}, drops by queue {named_drops(stats) or 'none'}")
        self.say(f"[{label}] reconciliation {'OK' if recon.ok else 'FAILED'}"
                 + "".join(f"\n  - {p}" for p in recon.problems))
        stats["filed"] = sum(filed.values())
        await self.stop(session)
        return stats

    def phase_line(self, session: Session, phase: Phase, label: str) -> None:
        if not phase.measured(session.readings):
            self.say(f"[{label}] {phase.name} {phase.rate}/s: ABORTED (backlog) in warm-up")
            return
        lat = windowed(phase.latencies_ms(session.readings, time.time_ns()))
        lag = session.lag_summary(phase)
        self.say(f"[{label}] {phase.name} {phase.rate}/s: n={lat['n']} p50={lat['p50']:.3f} ms "
                 f"p99={lat['tail']:.3f} ms ({lat['valid']}/{lat['windows']} windows valid), generator lag "
                 f"p{lag['tail_pct']}={lag['tail']:.3f} ms"
                 + (" ABORTED (backlog)" if phase.aborted else ""))

    async def reference(self, session: Session, label: str) -> dict:
        """Warm-up, then the measured phase at the reference rate, drained."""
        rate = self.workload.ref_rate
        ref_s = self.ref_seconds()
        await session.run_phase("warm-up", rate, WARM_S)
        await session.wait_delivered()
        cpu0 = self.sut.call("cpu")
        phase = await session.run_phase("reference", rate, ref_s)
        await session.wait_delivered()
        await session.wait_events()
        cpu1 = self.sut.call("cpu")
        self.phase_line(session, phase, label)
        cpu = cpu1["cpu_s"] - cpu0["cpu_s"]
        return {"phase": phase, "cpu_us_per_msg": cpu / len(phase.keys) * 1e6,
                "busy": cpu / ((cpu1["t"] - cpu0["t"]) / 1e9),
                "peak_rss_mb": cpu1["peak_rss_kb"] / 1024}

    def ref_seconds(self) -> int:
        raise NotImplementedError

    def close(self) -> None:
        self.sut.close()


class EndToEndRun(Run):
    """--trace 0: set-up, latency and CPU at the reference rate, then the knee."""

    def ref_seconds(self) -> int:
        return max(1, self.seconds - WARM_S - PROBES * (PROBE_WARM_S + PROBE_S))

    async def probe(self, session: Session, rate: int) -> bool:
        """One knee probe, best of two: noise on a shared VM only ever makes a
        probe fail, never pass, so a failed probe is repeated once."""
        for attempt in range(2):
            phase = await session.run_phase("probe", rate, PROBE_WARM_S + PROBE_S,
                                            warm_s=PROBE_WARM_S, abort=True)
            delivered = await session.wait_delivered()
            self.phase_line(session, phase, "knee")
            latencies = phase.latencies_ms(session.readings, time.time_ns())
            if phase.aborted or not delivered:
                passed = False
            elif windowed(latencies)["tail"] > LIMIT_MS:
                passed = False
            elif summarize([lat for lat, _ in latencies[-WINDOW:]])["p50"] > LIMIT_MS:
                passed = False
                self.say("[knee] the backlog grew: the median of the last window is over the limit")
            else:
                passed = True
            if passed or attempt:
                return passed

    async def knee(self, session: Session, ref_ok: bool) -> int:
        """Highest ladder rate passing the limit, by binary search (RFC 2544 style)."""
        ladder = self.workload.ladder
        if not ref_ok:
            return 0
        lo, hi = 0, len(ladder)  # ladder[lo] passed; ladder[hi] failed or off the end
        for _ in range(PROBES):
            if hi - lo <= 1:
                break
            mid = (lo + hi) // 2
            if await self.probe(session, ladder[mid]):
                lo = mid
            else:
                hi = mid
        return ladder[lo]

    async def execute(self) -> dict:
        setups = []
        for i in range(SETUPS):
            session, data_root, setup_s = await self.start(f"data-{i}", trace=False)
            setups.append(setup_s)
            if i < SETUPS - 1:
                await self.stop(session)
        self.say(f"[setup] {', '.join(f'{s:.4f}' for s in setups)} s")
        ref = await self.reference(session, "e2e")
        phase = ref["phase"]
        lat = windowed(phase.latencies_ms(session.readings, time.time_ns()))
        events = windowed(session.event_latencies_ms(phase) or [(0.0, 0.0)])
        knee = await self.knee(session, lat["tail"] <= LIMIT_MS)
        stats = await self.finish(session, data_root, "e2e")
        sent = len(session.readings)
        self.say(f"[e2e] knee {knee}/s (limit p99 <= {LIMIT_MS:.0f} ms, no loss, no backlog); "
                 f"events n={events['n']} ({events['valid']}/{events['windows']} windows valid)")
        # Wall-clock figures swing with the VM's noise far more than a 0.25
        # bound can hold (README, "Steadiness"): printed by every run, not gated.
        for name, value, unit in (("p50_ms", lat["p50"], "ms"), ("p99_ms", lat["tail"], "ms"),
                                  ("knee_rate", knee, "msg/s"),
                                  ("event_p50_ms", events["p50"], "ms"),
                                  ("event_p99_ms", events["tail"], "ms")):
            self.say(f"{self.workload.name} {name} = {value:.6g} {unit} (not gated)")
        return {
            "setup_s": (statistics.median(setups), "s"),
            "cpu_us_per_msg": (ref["cpu_us_per_msg"], "us"),
            "delivered_ratio": (sum(r.recv for r in session.readings.values()) / sent, "1"),
            "filed_ratio": (stats["filed"] / sent, "1"),
            "peak_rss_mb": (ref["peak_rss_mb"], "MB"),
        }


class TracedRun(Run):
    """--trace 1: untraced and traced sessions, hop spans, per-layer replays."""

    def ref_seconds(self) -> int:
        return max(1, (self.seconds - 2 * WARM_S) // 2)

    async def execute(self) -> dict:
        session, data_root, _ = await self.start("untraced", trace=False)
        plain = await self.reference(session, "untraced")
        lag = session.lag_summary(plain["phase"])
        build = summarize([b / 1e3 for b in session.build_ns])
        await self.finish(session, data_root, "untraced")

        session, data_root, _ = await self.start("traced", trace=True)
        session.keep_samples = True
        traced = await self.reference(session, "traced")
        stats = await self.finish(session, data_root, "traced")
        hops, bad = hop_spans(session, traced["phase"], stats["spans"])
        if bad:
            self.failed += bad
            self.say(f"[traced] {bad} readings whose hop spans do not telescope")
        else:
            self.say("[traced] every reading's hop spans telescope to its end-to-end delta")

        audit = stats["audit"]
        depth = stats["depth_max"]
        layers = await replay_layers(session.samples, self.workload.rules(), RUN_DIR / "replay")
        feed = stats["feed"]
        return {
            **layers,
            "broker.drops": (stats["broker_drops"], "count"),
            "broker.pending_max": (depth.get("broker", 0), "count"),
            "broker.bridge_hop_p50_us": (hops["bridge"]["p50"], "us"),
            "broker.bridge_hop_p99_us": (hops["bridge"]["tail"], "us"),
            "rts.verticles.feedhandler.hop_p50_us": (hops["feedhandler"]["p50"], "us"),
            "rts.verticles.feedhandler.hop_p99_us": (hops["feedhandler"]["tail"], "us"),
            "rts.verticles.feedhandler.pending_max": (depth.get("feedhandler", 0), "count"),
            "decoders.deadletter_ratio": (feed["deadlettered"] / max(1, feed["received"]), "1"),
            "rts.bus.subscriptions": (len(audit), "count"),
            "rts.bus.drops": (sum(row["drops"] for row in audit), "count"),
            "rts.bus.stale_drops": (sum(row["stale_drops"] for row in audit), "count"),
            "rts.bus.pending_max": (depth.get("bus", 0), "count"),
            "rts.verticles.filer.pending_max": (depth.get("filer", 0), "count"),
            "rts.verticles.threshold.events":
                (sum(len(v) for v in session.threshold_events.values()), "count"),
            "rts.monitor.hop_p50_us": (hops["monitor"]["p50"], "us"),
            "rts.monitor.hop_p99_us": (hops["monitor"]["tail"], "us"),
            "rts.monitor.drops": (sum(row["drops"] for row in audit
                                      if row["owner"] == "datamonitor-client"), "count"),
            "sut.busy": (plain["busy"], "1"),
            "simfleet.lag_p99_ms": (lag["tail"], "ms"),
            "simfleet.build_us": (build["p50"], "us"),
            "trace.overhead_us_per_msg":
                (traced["cpu_us_per_msg"] - plain["cpu_us_per_msg"], "us"),
        }


def hop_spans(session: Session, phase: Phase, spans: list) -> tuple[dict, int]:
    """Hop p50/tail in µs over the phase's readings; count of broken span chains.

    A reading's chain is scheduled send -> gateway tap -> broker tap -> bus tap
    -> client receipt. It must be complete and ordered, and its hops must sum
    to its end-to-end delta.
    """
    by_key = {(s[0], s[1]): s[2:] for s in spans}
    hops = {"bridge": [], "feedhandler": [], "monitor": []}
    bad = 0
    for reading in phase.measured(session.readings):
        chain = by_key.get((reading.device, reading.sched_ns // 1_000_000))
        if not reading.recv or chain is None or None in chain:
            bad += 1
            continue
        gateway, broker, bus = chain
        points = [reading.sched_ns, gateway, broker, bus, reading.recv_ns]
        deltas = [b - a for a, b in zip(points, points[1:])]
        if min(deltas) < 0 or sum(deltas) != reading.recv_ns - reading.sched_ns:
            bad += 1
            continue
        if session.devices[reading.device].profile.transport == "ttn_mqtt":
            hops["bridge"].append(deltas[1] / 1e3)
        hops["feedhandler"].append(deltas[2] / 1e3)
        hops["monitor"].append(deltas[3] / 1e3)
    return {k: summarize(v or [0.0]) for k, v in hops.items()}, bad


# --- entry point --------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    enter_tmpfs(argv)
    workload = WORKLOADS[args.workload]
    clear_run_dir()
    print(f"[store] data root on {os.environ['PERFBENCH_STORE']}", flush=True)
    # The generator keeps every reading it sent and makes no reference cycles;
    # collector passes over that heap would only stall the send schedule.
    gc.disable()
    run = (TracedRun if args.trace else EndToEndRun)(workload, args.seed, args.seconds)
    try:
        metrics = asyncio.run(run.execute())
    finally:
        run.close()
        clear_run_dir()
    single = threading.active_count() == 1
    if not single:
        run.failed += 1
        print("generator ran more than one thread", flush=True)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
