"""Correctness gate for benchmark traces.

Two checks decide whether a run's trace is right:

* For any seed, the trace must satisfy the simulator's invariants: every
  trust level lies in ``-2..2``; each token is ``terminated`` at most once;
  no lifecycle line names a token after its ``terminated`` line.
* For every seed pinned in ``pins.json`` (the default seed and the seeds the
  baseline uses), the trace's sha256 and its line counts by kind must equal
  the values pinned for that workload, seed and size.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

PINS_PATH = Path(__file__).resolve().parent / "pins.json"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _fields(line: str) -> dict:
    return dict(f.split("=", 1) for f in line.split() if "=" in f)


def line_kind(line: str) -> str:
    """Kind of a trace line; lifecycle lines by state, actions by kind."""
    head = line.split(None, 2)[1]
    if head.startswith("agent="):
        return "action:" + _fields(line)["action"]
    if head == "lifecycle":
        return "lifecycle:" + _fields(line)["state"]
    return head


def trace_stats(text: str) -> dict:
    """Line counts by kind, keys sorted."""
    counts: dict = {}
    for line in text.splitlines():
        kind = line_kind(line)
        counts[kind] = counts.get(kind, 0) + 1
    return dict(sorted(counts.items()))


def invariant_violations(text: str) -> list:
    problems = []
    terminated = set()
    for number, line in enumerate(text.splitlines(), start=1):
        kind = line.split(None, 2)[1]
        if kind == "trust":
            level = int(_fields(line)["level"])
            if not -2 <= level <= 2:
                problems.append(f"line {number}: trust level {level} outside -2..2")
        elif kind == "terminated":
            token = _fields(line)["token"]
            if token in terminated:
                problems.append(f"line {number}: token {token} terminated twice")
            terminated.add(token)
        elif kind == "lifecycle":
            token = _fields(line)["token"]
            if token in terminated:
                problems.append(
                    f"line {number}: lifecycle of token {token} after termination"
                )
    return problems


def load_pins(path=PINS_PATH) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def pin_problems(text: str, pin: dict) -> list:
    """Differences between a trace and its pinned digest and statistics."""
    problems = []
    if digest(text) != pin["sha256"]:
        problems.append(f"sha256 {digest(text)} != pinned {pin['sha256']}")
    stats = trace_stats(text)
    if stats != pin["stats"]:
        problems.append(f"line counts {stats} != pinned {pin['stats']}")
    return problems


def check(text: str, workload: str, ticks: int, seed: int, pins: dict) -> list:
    """Every problem the gate finds in a trace; empty when it passes."""
    problems = invariant_violations(text)
    sizes = pins.get(workload, {}).get(str(seed))
    if sizes is not None:
        pin = sizes.get(str(ticks))
        if pin is None:
            problems.append(f"no pinned trace for {workload} seed {seed} at {ticks} ticks")
        else:
            problems += pin_problems(text, pin)
    return problems
