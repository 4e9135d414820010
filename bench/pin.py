"""Write ``pins.json``: trace sha256 and line counts by kind for every
workload at its full and quarter size, under every seed in ``SEEDS``: the
default seed and the seeds that ``baseline.py`` runs.

Run from the repository root after a change that is meant to alter traces
or workload shapes, and review the diff::

    python3 bench/pin.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import gate  # noqa: E402
import gen  # noqa: E402
from coopsim import engine  # noqa: E402


SEEDS = range(gen.DEFAULT_SEED, gen.DEFAULT_SEED + 11)


def pin(name: str, seed: int, ticks: int) -> dict:
    trace = engine.run(engine.load(gen.scenario_text(name, seed, ticks))).trace_text()
    return {"sha256": gate.digest(trace), "stats": gate.trace_stats(trace)}


def pins() -> dict:
    return {
        name: {
            str(seed): {str(size): pin(name, seed, size) for size in (ticks // 4, ticks)}
            for seed in SEEDS
        }
        for name, (_, ticks) in sorted(gen.WORKLOADS.items())
    }


if __name__ == "__main__":
    with open(gate.PINS_PATH, "w", encoding="utf-8") as handle:
        json.dump(pins(), handle, indent=1, sort_keys=True)
        handle.write("\n")
