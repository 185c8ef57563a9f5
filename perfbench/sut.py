"""The stack under test in a process of its own, driven over stdin/stdout.

The process runs ``sensert.stack.Stack`` exactly as a user would. It reads
one JSON command per line on stdin and answers each with one JSON line on
stdout:

- ``start``: a fresh stack (rules, data root, traced or not); answers the
  ports and the ``time.time_ns()`` at which ``Stack.start()`` was called;
- ``cpu``: user+system CPU seconds of this process so far;
- ``drain``: waits until the stack's queues are empty;
- ``stats``: counters, conservation audit, peak RSS, and in a traced run
  the hop spans and the sampled queue depths;
- ``stop``, ``exit``.

In a traced run the stack gets a ``TapCollector`` subclass through the
public ``Stack(taps=...)`` hook that stamps ``time.time_ns()`` itself, and a
sampler records the deepest queue of each layer every few milliseconds.
"""

from __future__ import annotations

import asyncio
import json
import resource
import sys
import time
from pathlib import Path

from sensert.bench import TapCollector
from sensert.rts.verticles import ThresholdRule
from sensert.stack import Stack, StackConfig

SAMPLE_INTERVAL_S = 0.005


class NsTaps(TapCollector):
    """Hop stamps in ns keyed by (device_id, sim_t0); the first stamp wins."""

    def __init__(self):
        super().__init__()
        self.spans: dict[tuple[str, int], dict[str, int]] = {}

    def tap(self, point: str, device_id: str, sim_t0: int, t_ms: int) -> None:
        t = time.time_ns()
        record = self.spans.setdefault((device_id, sim_t0), {})
        if point in record:
            self.duplicates += 1
        else:
            record[point] = t


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


class Sut:
    def __init__(self):
        self.stack: Stack | None = None
        self.taps: NsTaps | None = None
        self.depth_max: dict[str, int] = {}
        self._sampler: asyncio.Task | None = None

    async def start(self, data_root: str, rules: list[dict], trace: bool) -> dict:
        self.taps = NsTaps() if trace else None
        config = StackConfig(data_root=Path(data_root),
                             rules=[ThresholdRule.from_jsonable(r) for r in rules])
        self.stack = Stack(config, taps=self.taps)
        t_start = time.time_ns()
        await self.stack.start()
        self.depth_max = {}
        if trace:
            self._sampler = asyncio.create_task(self._sample())
        return {"t_start": t_start, "local": self.stack.local.address[1],
                "ttn": self.stack.ttn.address[1], "monitor": self.stack.monitor.address[1]}

    def _depths(self) -> dict[str, int]:
        stack = self.stack
        subs = stack.rts.bus.subscriptions()
        return {
            "broker": stack.local.pending_frames() + stack.ttn.pending_frames(),
            "feedhandler": stack.feedhandler.pending(),
            "bus": sum(s.pending() for s in subs),
            "filer": sum(s.pending() for s in subs if s.owner == stack.filer.name),
        }

    async def _sample(self) -> None:
        while True:
            for name, depth in self._depths().items():
                if depth > self.depth_max.get(name, 0):
                    self.depth_max[name] = depth
            await asyncio.sleep(SAMPLE_INTERVAL_S)

    async def stop(self) -> dict:
        if self._sampler is not None:
            self._sampler.cancel()
            await asyncio.gather(self._sampler, return_exceptions=True)
            self._sampler = None
        if self.stack is not None:
            await self.stack.stop()
            self.stack = None
        return {}

    def stats(self) -> dict:
        stack = self.stack
        out = {
            "audit": stack.audit(),
            "feed": stack.feed_counters(),
            "broker_drops": sum(b.stats.drops for b in (stack.local, stack.ttn, stack.zigbee)),
            "filer": {"lines_written": stack.filer.lines_written, "errors": stack.filer.errors},
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "depth_max": self.depth_max,
        }
        if self.taps is not None:
            out["spans"] = [[key[0], key[1], rec.get("gateway"), rec.get("broker"),
                             rec.get("eventbus")]
                            for key, rec in self.taps.spans.items()]
            out["tap_duplicates"] = self.taps.duplicates
        return out

    async def handle(self, cmd: dict) -> dict:
        op = cmd["cmd"]
        if op == "start":
            return await self.start(cmd["data_root"], cmd["rules"], cmd["trace"])
        if op == "cpu":
            return {"cpu_s": cpu_seconds(), "t": time.time_ns(),
                    "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
        if op == "drain":
            return {"drained": await self.stack.drain(timeout_s=cmd.get("timeout_s", 10.0))}
        if op == "stats":
            return self.stats()
        if op == "stop":
            return await self.stop()
        raise ValueError(f"unknown command {op!r}")


async def serve() -> None:
    loop = asyncio.get_running_loop()
    reader = asyncio.StreamReader(limit=1 << 26)
    await loop.connect_read_pipe(lambda: asyncio.StreamReaderProtocol(reader), sys.stdin)
    sut = Sut()
    try:
        while True:
            line = await reader.readline()
            if not line:
                return
            cmd = json.loads(line)
            if cmd["cmd"] == "exit":
                return
            reply = await sut.handle(cmd)
            sys.stdout.write(json.dumps(reply) + "\n")
            sys.stdout.flush()
    finally:
        await sut.stop()


def main() -> None:
    # one open day-file per device: let the filer hold a large fleet's handles
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    resource.setrlimit(resource.RLIMIT_NOFILE, (hard, hard))
    asyncio.run(serve())


if __name__ == "__main__":
    main()
