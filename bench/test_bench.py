"""Tests of the benchmark itself.  Run from the repository root::

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import gate  # noqa: E402
import gen  # noqa: E402
import pin  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from coopsim import engine  # noqa: E402

WORKLOADS = sorted(gen.WORKLOADS)
UNPINNED_SEED = max(pin.SEEDS) + 1  # the gate checks invariants only


def _trace(name, seed, ticks):
    return engine.run(engine.load(gen.scenario_text(name, seed, ticks))).trace_text()


@pytest.mark.parametrize("name", WORKLOADS)
def test_generator_is_deterministic_in_its_seed(name):
    assert gen.scenario_text(name, 5, 12) == gen.scenario_text(name, 5, 12)
    assert gen.scenario_text(name, 5, 12) != gen.scenario_text(name, 6, 12)


@pytest.mark.parametrize("name", WORKLOADS)
def test_quarter_scenario_is_a_byte_prefix(name):
    full = gen.scenario_text(name, 3, 40)
    quarter = gen.scenario_text(name, 3, 10)
    assert full.startswith(quarter)
    assert len(full) > len(quarter)


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_runs_to_completion_at_small_size(name):
    text = gen.scenario_text(name, 11, 16)
    scenario = engine.load(text)
    assert len([line for line in text.splitlines() if line.startswith("tick ")]) == 16
    trace = engine.run(scenario).trace_text()
    assert trace
    assert gate.invariant_violations(trace) == []


def test_digest_gate_rejects_one_changed_byte():
    name = "promise-backlog"
    ticks = gen.WORKLOADS[name][1] // 4
    trace = _trace(name, gen.DEFAULT_SEED, ticks)
    pins = gate.load_pins()
    assert gate.check(trace, name, ticks, gen.DEFAULT_SEED, pins) == []
    index = trace.index("level=") + len("level=")
    changed = trace[:index] + ("1" if trace[index] != "1" else "0") + trace[index + 1:]
    assert len(changed) == len(trace)
    problems = gate.check(changed, name, ticks, gen.DEFAULT_SEED, pins)
    assert any("sha256" in p for p in problems)


def test_gate_pins_apply_to_pinned_seeds_only():
    name = "scope-fanout"
    trace = _trace(name, gen.DEFAULT_SEED, 4)
    pins = gate.load_pins()
    assert "no pinned trace" in gate.check(trace, name, 4, gen.DEFAULT_SEED, pins)[0]
    trace = _trace(name, UNPINNED_SEED, 4)
    assert gate.check(trace, name, 4, UNPINNED_SEED, pins) == []


def test_every_pin_matches_a_fresh_run():
    pinned = gate.load_pins()
    assert sorted(pinned) == WORKLOADS
    for name in WORKLOADS:
        assert sorted(pinned[name], key=int) == [str(s) for s in pin.SEEDS]
    assert pin.pins() == pinned


def test_invariants_catch_each_violation():
    trace = (
        "t=1 trust subject=a target=b kind=general-trust level=3 cause=init\n"
        "t=2 terminated token=1-0\n"
        "t=3 lifecycle token=1-0 subject=a state=faded fade=0 rate=1\n"
        "t=3 terminated token=1-0\n"
    )
    problems = gate.invariant_violations(trace)
    assert len(problems) == 3
    assert "outside -2..2" in problems[0]
    assert "after termination" in problems[1]
    assert "terminated twice" in problems[2]


def _bindings():
    """Every attribute of every coopsim module and class, by identity."""
    out = {}
    for module in tracer._package_modules():
        for name, value in vars(module).items():
            out[(module.__name__, name)] = value
            if isinstance(value, type) and value.__module__ == module.__name__:
                for attr, member in vars(value).items():
                    out[(module.__name__, name, attr)] = member
    return out


def test_hooks_are_fully_removed_after_a_traced_run():
    before = _bindings()
    text = gen.scenario_text("promise-backlog", 2, 12)
    with tracer.Tracer() as active:
        assert engine.parse_statement is not before[("coopsim.engine", "parse_statement")]
        assert engine.credibility_gate is not before[("coopsim.engine", "credibility_gate")]
        traced = engine.run(engine.load(text)).trace_text()
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
    totals = active.totals()
    assert totals["statements.parse.calls"] > 0  # reached via engine.parse_statement
    assert totals["appraisal.credibility_gate.calls"] > 0  # bound in engine
    assert totals["engine.fade_step.calls"] == 12
    assert traced == engine.run(engine.load(text)).trace_text()


def test_missing_hook_target_reports_zero_calls():
    hooks = tracer.HOOKS + (("engine", "coopsim.engine", "_Engine.gone", "gone", None),)
    with tracer.Tracer(hooks) as active:
        engine.run(engine.load(gen.scenario_text("scope-fanout", 1, 4)))
    assert active.totals()["engine.gone.calls"] == 0
    assert not hasattr(engine._Engine, "gone")


@pytest.mark.parametrize("trace_flag", ["0", "1"])
def test_runner_prints_every_declared_metric(monkeypatch, capsys, trace_flag):
    monkeypatch.setattr(gen, "WORKLOADS", {**gen.WORKLOADS, "scope-fanout": (
        gen.WORKLOADS["scope-fanout"][0], 8)})
    code = run.main(["--workload", "scope-fanout", "--seed", str(UNPINNED_SEED), "--seconds", "0",
                     "--trace", trace_flag])
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    declared = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if trace_flag == "1" else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }


def test_runner_reports_a_failed_result_when_every_round_raises(monkeypatch, capsys):
    monkeypatch.setattr(gen, "WORKLOADS", {**gen.WORKLOADS, "scope-fanout": (
        gen.WORKLOADS["scope-fanout"][0], 8)})

    def broken(scenario):
        raise ValueError("broken run")

    monkeypatch.setattr(engine, "run", broken)
    code = run.main(["--workload", "scope-fanout", "--seed", str(UNPINNED_SEED), "--seconds", "0",
                     "--trace", "0"])
    out = capsys.readouterr().out.strip().splitlines()
    assert code != 0
    assert out[-2].startswith("scope-fanout failed_ratio = 1 ")
    result = json.loads(out[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
