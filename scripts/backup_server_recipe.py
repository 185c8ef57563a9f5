#!/usr/bin/env python3
"""Backup-server recipe: a second store receives everything over the router.

The primary stack routes every normalized message (feed/#) to a peer broker;
a backup real-time server ingests the routed stream through the
normalized-passthrough decoder and files it, so the backup's JSONL store
tracks the primary's. Promotion is a manual restart pointing clients at the
backup's monitor; there is no consensus machinery. Exits 1 when the backup's
store does not track the primary's.
"""

import asyncio
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sensert.broker import Broker  # noqa: E402
from sensert.rts import RealTimeServer  # noqa: E402
from sensert.rts.verticles import FeedHandler, MessageFiler, MessageRouter, RouteRule  # noqa: E402
from sensert.simfleet import DeviceProfile  # noqa: E402
from sensert.stack import Stack, StackConfig  # noqa: E402


def count_lines(path: Path) -> int:
    with path.open("rb") as handle:
        return sum(1 for _ in handle)


async def main() -> bool:
    with tempfile.TemporaryDirectory(prefix="sensert-backup-") as backup_dir:
        return await run(Path(backup_dir))


async def run(backup_root: Path) -> bool:
    # primary stack (brokers + rts) plus a router sharing feed/# with the peer
    peer = Broker(name="peer")
    await peer.start("127.0.0.1", 0)
    primary = Stack(StackConfig())
    await primary.start()
    await primary.rts.deploy(MessageRouter([
        RouteRule(filter="feed/#", remote=f"127.0.0.1:{peer.address[1]}")]))

    # backup server: ingests the routed stream and files it
    backup = RealTimeServer()
    backup_feed = FeedHandler(*peer.address)
    await backup.deploy(backup_feed)
    backup_filer = MessageFiler(backup_root)
    await backup.deploy(backup_filer)
    await asyncio.wait_for(backup_feed.link.up.wait(), 10)

    profiles = [DeviceProfile(f"plug-{i}", "smartplug", period_s=0.2) for i in range(3)]
    log = await primary.run_fleet(profiles, scenario=None, duration_s=3.0)
    await primary.drain()
    # routed tail: the backup has filed every line the primary filed, or 10 s passed
    for _ in range(1000):
        if backup_filer.lines_written == primary.filer.lines_written:
            break
        await asyncio.sleep(0.01)

    primary_counts = primary.filer_line_counts()
    backup_counts = {
        d.name: sum(count_lines(f) for f in d.rglob("*.jsonl"))
        for d in backup_root.iterdir() if d.is_dir()
    }
    print(f"emitted:        {log.counts()}")
    print(f"primary store:  {primary_counts}")
    print(f"backup store:   {backup_counts}")
    tracks = backup_counts == primary_counts
    print("backup tracks primary:", tracks)

    await backup.stop()
    await primary.stop()
    await peer.stop()
    return tracks


if __name__ == "__main__":
    sys.exit(0 if asyncio.run(main()) else 1)
