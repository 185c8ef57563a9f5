"""Property tests for the MessageFiler: what lands on disk per device and day."""

import asyncio
import errno
import json
import os
import tempfile
from datetime import datetime, timezone
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from sensert.decoders import NormalizedMessage
from sensert.rts import RealTimeServer
from sensert.rts.verticles import DAY_MS, MessageFiler

DAY0 = 1_590_969_600_000  # 2020-06-01T00:00:00Z


def reading(device: str, ts: int, seq: int) -> NormalizedMessage:
    return NormalizedMessage(device, ts, "smartplug", {"power_w": float(seq)}, b"{}", ts)


def day_file(root: Path, msg: NormalizedMessage) -> Path:
    day = datetime.fromtimestamp(msg.ts / 1000, tz=timezone.utc)
    return root / msg.device_id / f"{day.year:04d}" / f"{day.month:02d}" / f"{day.day:02d}.jsonl"


async def file_all(root: Path, msgs: list[NormalizedMessage]) -> tuple[MessageFiler, list]:
    """Publish every reading without yielding, wait until each is filed or
    failed; the filer and the sys/filer/error events."""
    rts = RealTimeServer()
    errors = rts.bus.subscribe("sys/filer/error")
    filer = MessageFiler(root)
    await rts.deploy(filer)
    for msg in msgs:
        rts.bus.publish(f"feed/{msg.family}/{msg.device_id}", msg)
    for _ in range(500):
        if filer.lines_written + filer.errors == len(msgs):
            break
        await asyncio.sleep(0.01)
    await rts.stop()
    events = []
    while (env := errors.get_nowait()) is not None:
        events.append(env.body)
    return filer, events


# (device, day, ms into the day): several devices, up to three UTC days, any order
_readings = st.lists(st.tuples(st.sampled_from(["d0", "d1", "d2", "d3"]), st.integers(0, 2),
                               st.integers(0, DAY_MS - 1)), min_size=1, max_size=80)


@given(_readings)
@settings(max_examples=60)
def test_filer_writes_each_days_lines_in_publish_order(rows):
    """Per device and day, the file holds exactly that device's readings for
    that day in publish order, byte-equal to ``encoded``; latest.json holds the
    maximal-ts reading (the later one on a tie)."""
    msgs = [reading(device, DAY0 + day * DAY_MS + ms, seq)
            for seq, (device, day, ms) in enumerate(rows)]
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        filer, events = asyncio.run(file_all(root, msgs))

        assert (filer.lines_written, filer.errors, filer.latest_errors) == (len(msgs), 0, 0)
        assert events == []
        expected: dict[Path, list[bytes]] = {}
        for msg in msgs:
            expected.setdefault(day_file(root, msg), []).append(msg.encoded)
        assert set(root.rglob("*.jsonl")) == set(expected)
        for path, lines in expected.items():
            assert path.read_bytes() == b"".join(line + b"\n" for line in lines)
        for device in {msg.device_id for msg in msgs}:
            newest = max((m for m in msgs if m.device_id == device), key=lambda m: m.ts)
            tied = [m for m in msgs if m.device_id == device and m.ts == newest.ts]
            assert (root / device / "latest.json").read_bytes() == tied[-1].encoded


def test_a_device_that_cannot_be_filed_fails_alone(tmp_path):
    """A device whose directory path is a regular file fails in the middle of
    a burst: its
    readings count as errors, one event each naming the day file, and every
    other reading of the same batch is filed."""
    (tmp_path / "bad").write_text("not a directory")
    devices = ["good1", "bad", "good2"]
    msgs = [reading(devices[i % 3], DAY0 + i * 1000, i) for i in range(30)]
    filer, events = asyncio.run(file_all(tmp_path, msgs))

    bad = [m for m in msgs if m.device_id == "bad"]
    assert (filer.lines_written, filer.errors, filer.latest_errors) == (20, 10, 0)
    assert [(e.device_id, e.attributes["file"]) for e in events] == [
        ("bad", f"{tmp_path}/bad/2020/06/01.jsonl")] * len(bad)
    for device in ("good1", "good2"):
        mine = [m for m in msgs if m.device_id == device]
        assert day_file(tmp_path, mine[0]).read_bytes() == b"".join(
            m.encoded + b"\n" for m in mine)
        assert json.loads((tmp_path / device / "latest.json").read_bytes())["ts"] == mine[-1].ts
    assert (tmp_path / "bad").read_text() == "not a directory"


def test_a_failed_append_leaves_no_torn_line(tmp_path, monkeypatch):
    """A write that goes out in part and then fails (say ENOSPC) is cut back
    off the day file: the reading counts as an error, no record is left half
    written, and the next append starts on a fresh line."""
    a, b, c = (reading("d1", DAY0 + i * 1000, i) for i in range(3))
    real_open, real_write = os.open, os.write

    async def main_():
        rts = RealTimeServer()
        filer = MessageFiler(tmp_path)
        await rts.deploy(filer)

        async def until(done):
            for _ in range(500):
                if done():
                    return
                await asyncio.sleep(0.01)
            raise AssertionError("the filer did not get there")

        rts.bus.publish("feed/smartplug/d1", a)
        await until(lambda: filer.lines_written == 1)
        day_fd = []  # the fd of the day file opened last
        calls = []

        def open_spy(path, flags, mode=0o777, **kwargs):
            fd = real_open(path, flags, mode, **kwargs)
            if str(path).endswith(".jsonl"):
                day_fd[:] = [fd]
            return fd

        def short_then_fail(fd, data):
            if day_fd != [fd]:
                return real_write(fd, data)
            calls.append(len(data))
            if len(calls) == 1:  # a short write: the first few bytes of b's line
                return real_write(fd, bytes(data)[:4])
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(os, "open", open_spy)
        monkeypatch.setattr(os, "write", short_then_fail)
        rts.bus.publish("feed/smartplug/d1", b)
        await until(lambda: filer.errors == 1)
        monkeypatch.setattr(os, "write", real_write)
        assert len(calls) == 2
        rts.bus.publish("feed/smartplug/d1", c)
        await until(lambda: filer.lines_written == 2)
        await rts.stop()
        return filer

    filer = asyncio.run(main_())
    assert (filer.lines_written, filer.errors, filer.latest_errors) == (2, 1, 0)
    lines = day_file(tmp_path, a).read_bytes()
    assert lines == a.encoded + b"\n" + c.encoded + b"\n"
    assert json.loads((tmp_path / "d1" / "latest.json").read_bytes())["ts"] == c.ts
