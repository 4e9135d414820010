"""Golden traces: every shipped scenario under both TRAM policies and both
interleavings must reproduce its recorded trace byte for byte and end with
only active records held; its own ``expect-trust`` lines hold under its own
header.  The records each agent holds at the end of a run are exactly the
live ones that the trace alone names, for these runs and for short runs of
the ``bench/gen.py`` workload shapes."""

import importlib.util
from pathlib import Path

import pytest

from coopsim.engine import run
from coopsim.scenario import InterleavingStrategy, load, load_path
from coopsim.lifecycle import LifecycleState
from coopsim.trust import TramPolicy
from tests.test_load_run import check_absorption, check_fragments

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = sorted((ROOT / "scenarios").glob("*.coop"))
GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = [
    (path, tram, order)
    for path in SCENARIOS
    for tram in TramPolicy
    for order in InterleavingStrategy
]
IDS = [f"{p.stem}-{t.value}-{o.value}" for p, t, o in CASES]


def test_every_scenario_has_goldens():
    expected = {
        f"{path.stem}.{tram.value}.{order.value}.trace" for path, tram, order in CASES
    }
    assert {p.name for p in GOLDEN.glob("*.trace")} == expected


@pytest.mark.parametrize("path,tram,order", CASES, ids=IDS)
def test_trace_matches_golden(path, tram, order):
    golden = GOLDEN / f"{path.stem}.{tram.value}.{order.value}.trace"
    result = run(load_path(path), tram=tram, interleave=order)
    assert result.trace_text().encode() == golden.read_bytes()
    assert all(
        rec.state is LifecycleState.ACTIVE
        for state in result.agents.values()
        for rec in state.fragments
    )


@pytest.mark.parametrize("path,tram,order", CASES, ids=IDS)
def test_terminal_states_absorb(path, tram, order):
    golden = GOLDEN / f"{path.stem}.{tram.value}.{order.value}.trace"
    check_absorption(golden.read_text().splitlines())


@pytest.mark.parametrize("path", SCENARIOS, ids=[p.stem for p in SCENARIOS])
def test_scenario_expectations_hold(path):
    result = run(load_path(path))
    assert result.expects
    assert [e for e in result.expects if not e.passed] == []


def _bench_gen():
    spec = importlib.util.spec_from_file_location("gen", ROOT / "bench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


GEN = _bench_gen()
BENCH_CASES = [
    (workload, seed, ticks)
    for workload in GEN.WORKLOADS
    for seed in (0, 1)
    for ticks in (8, 40)
]


@pytest.mark.parametrize("path,tram,order", CASES, ids=IDS)
def test_end_of_run_fragments_of_a_scenario(path, tram, order):
    scenario = load_path(path)
    check_fragments(scenario, run(scenario, tram=tram, interleave=order))


@pytest.mark.parametrize(
    "workload,seed,ticks",
    BENCH_CASES,
    ids=[f"{w}-seed{s}-{n}-ticks" for w, s, n in BENCH_CASES],
)
def test_end_of_run_fragments_of_a_bench_workload(workload, seed, ticks):
    scenario = load(GEN.scenario_text(workload, seed, ticks))
    check_fragments(scenario, run(scenario))
