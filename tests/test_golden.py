"""Golden traces: every shipped scenario under both TRAM policies and both
interleavings must reproduce its recorded trace byte for byte and end with
only active records held; its own ``expect-trust`` lines hold under its own
header."""

from pathlib import Path

import pytest

from coopsim.engine import InterleavingStrategy, load_path, run
from coopsim.lifecycle import LifecycleState
from coopsim.trust import TramPolicy

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = sorted((ROOT / "scenarios").glob("*.coop"))
GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = [
    (path, tram, order)
    for path in SCENARIOS
    for tram in TramPolicy
    for order in InterleavingStrategy
]


def test_every_scenario_has_goldens():
    expected = {
        f"{path.stem}.{tram.value}.{order.value}.trace" for path, tram, order in CASES
    }
    assert {p.name for p in GOLDEN.glob("*.trace")} == expected


@pytest.mark.parametrize(
    "path,tram,order",
    CASES,
    ids=[f"{p.stem}-{t.value}-{o.value}" for p, t, o in CASES],
)
def test_trace_matches_golden(path, tram, order):
    golden = GOLDEN / f"{path.stem}.{tram.value}.{order.value}.trace"
    result = run(load_path(path), tram=tram, interleave=order)
    assert result.trace_text().encode() == golden.read_bytes()
    assert all(
        rec.state is LifecycleState.ACTIVE
        for state in result.agents.values()
        for rec in state.fragments
    )


@pytest.mark.parametrize("path", SCENARIOS, ids=[p.stem for p in SCENARIOS])
def test_scenario_expectations_hold(path):
    result = run(load_path(path))
    assert result.expects
    assert [e for e in result.expects if not e.passed] == []
