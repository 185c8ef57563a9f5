#!/usr/bin/env python3
"""Run a latency experiment and print desk-scale numbers next to the
deployment-scale reference means.

Usage: python scripts/latency_report.py [N] [DURATION_S] [OUT_DIR]
"""

import asyncio
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sensert.bench import run_experiment, write_experiment_csvs  # noqa: E402


async def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 45
    duration = float(sys.argv[2]) if len(sys.argv) > 2 else 60.0
    out_dir = Path(sys.argv[3]) if len(sys.argv) > 3 else Path("bench-out")

    print(f"running {n} sensors at 1 Hz for {duration:.0f}s ...")
    result = await run_experiment(n, duration, seed=42)
    write_experiment_csvs(result, out_dir)
    print((out_dir / "report.txt").read_text())
    print(f"wrote {out_dir}/table2.csv, {out_dir}/fig8b.csv and {out_dir}/report.txt")


if __name__ == "__main__":
    asyncio.run(main())
