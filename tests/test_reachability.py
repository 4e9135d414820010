"""Every rule is reached by a shipped scenario.

The goldens pin only what the scenarios run, so a rule that no scenario
enters could change without a golden noticing.  This runs every
``scenarios/*.coop`` under both TRAM policies and both interleavings, and
asserts that each function and method written in ``agents.py`` and
``reputation.py``, and each ``_Engine.on_*`` directive handler, is entered,
and that every line of ``LINE_CHECKED`` runs: the imposition rules
(``on_imposition`` and ``resolve_reply``) and ``credibility_level``, whose
every level ``scenarios/consultants.coop`` reaches.
"""

import dis
import inspect
import sys
from pathlib import Path

import pytest

from coopsim import agents, appraisal, engine, reputation
from coopsim.engine import run
from coopsim.scenario import InterleavingStrategy, load_path
from coopsim.trust import TramPolicy

SCENARIOS = sorted(
    (Path(__file__).resolve().parent.parent / "scenarios").glob("*.coop")
)
# functions whose every line some shipped scenario must run
LINE_CHECKED = (agents.on_imposition, agents.resolve_reply, appraisal.credibility_level)


def _written_in(module) -> dict:
    """Qualified name -> code object of every function and method whose
    source is ``module`` (dataclass-generated methods are not)."""
    found = {}

    def add(name, obj):
        func = getattr(obj, "fget", None) or getattr(obj, "func", None) or obj
        if inspect.isfunction(func) and func.__code__.co_filename == module.__file__:
            found[name] = func.__code__

    for name, obj in vars(module).items():
        if inspect.isclass(obj) and obj.__module__ == module.__name__:
            for attr, member in vars(obj).items():
                add(f"{name}.{attr}", member)
        else:
            add(name, obj)
    return found


@pytest.fixture(scope="module")
def shipped_runs() -> tuple:
    """(code objects entered, (code, line) pairs run in ``LINE_CHECKED``)
    over every shipped scenario under 2 TRAM policies x 2 interleavings."""
    watched = {func.__code__ for func in LINE_CHECKED}
    entered, lines = set(), set()

    def on_line(frame, event, arg):
        if event == "line":
            lines.add((frame.f_code, frame.f_lineno))
        return on_line

    def tracer(frame, event, arg):  # called for "call" events only
        entered.add(frame.f_code)
        return on_line if frame.f_code in watched else None

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        for path in SCENARIOS:
            scenario = load_path(path)
            for tram in TramPolicy:
                for order in InterleavingStrategy:
                    run(scenario, tram=tram, interleave=order)
    finally:
        sys.settrace(previous)
    return entered, lines


def test_every_rule_is_reached_by_a_shipped_scenario(shipped_runs):
    wanted = {
        **_written_in(agents),
        **_written_in(reputation),
        **{
            name: code
            for name, code in _written_in(engine).items()
            if name.startswith("_Engine.on_")
        },
    }
    entered, _ = shipped_runs
    assert "on_task_request" in wanted and "_Engine.on_outcome" in wanted
    assert sorted(name for name, code in wanted.items() if code not in entered) == []


def test_every_line_of_the_imposition_rules_runs_in_a_shipped_scenario(shipped_runs):
    _, lines = shipped_runs
    missed = []
    for func in LINE_CHECKED:
        code = func.__code__
        body = {
            line
            for _, line in dis.findlinestarts(code)
            if line is not None and line != code.co_firstlineno
        }
        missed += [
            f"{func.__name__}:{line}" for line in sorted(body)
            if (code, line) not in lines
        ]
    assert missed == []
