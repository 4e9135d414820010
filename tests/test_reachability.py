"""Every rule is reached by a shipped scenario.

The goldens pin only what the scenarios run, so a rule that no scenario
enters could change without a golden noticing.  This runs every
``scenarios/*.coop`` under both TRAM policies and both interleavings, renders
each trace and reads each expectation, as the CLI does.  It asserts that
each function and method written in ``agents.py`` and ``reputation.py``, and
each ``_Engine.on_*`` directive handler, is entered, and that every line of
every function and method written in ``LINE_CHECKED``, and of every ``def``
and lambda nested in one, runs, but for the lines of ``UNREACHED``, which no
valid run reaches.
"""

import dis
import inspect
import sys
from pathlib import Path

import pytest

from coopsim import agents, appraisal, engine, lifecycle, reputation, trust
from coopsim.engine import run
from coopsim.scenario import InterleavingStrategy, load_path
from coopsim.trust import TramPolicy

SCENARIOS = sorted(
    (Path(__file__).resolve().parent.parent / "scenarios").glob("*.coop")
)
# modules whose every function and method line some shipped scenario must run
LINE_CHECKED = (engine, agents, appraisal, trust, reputation, lifecycle)
# (module.function, the line's code) -> why no valid run reaches it; a
# library behaviour read outside a run, never a guard that ``load`` makes
# unreachable: such a guard is deleted instead
UNREACHED = {
    ("trust.level_from_history", "return 0"):
        "the run reads a history only after it records an outcome in it; "
        "tests/test_trust.py pins ([], 0)",
    ("lifecycle.Cohort.fade_level",
     "return self.fade.level(self.fade_rate_multiplier, self.fading_ticks)"):
        "read after a run, never by it",
}


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


def _nested(name: str, code) -> dict:
    """Qualified name -> code object of every ``def`` and lambda nested in
    ``code``, also inside its comprehensions (which are not listed: their
    lines are lines of the function that holds them)."""
    found = {}
    for const in code.co_consts:
        if inspect.iscode(const):
            inner = name
            if const.co_name == "<lambda>":
                inner = f"{name}.<lambda>:{const.co_firstlineno}"
            elif not const.co_name.startswith("<"):
                inner = f"{name}.{const.co_name}"
            if inner != name:
                found[inner] = const
            found.update(_nested(inner, const))
    return found


def _line_checked() -> dict:
    """``module.qualified name`` -> code object over ``LINE_CHECKED``, nested
    ``def``s and lambdas included."""
    found = {}
    for module in LINE_CHECKED:
        for name, code in _written_in(module).items():
            name = f"{module.__name__.rpartition('.')[2]}.{name}"
            found[name] = code
            found.update(_nested(name, code))
    return found


@pytest.fixture(scope="module")
def shipped_runs() -> tuple:
    """(code objects entered, (code, line) pairs run in ``LINE_CHECKED``)
    over every shipped scenario under 2 TRAM policies x 2 interleavings."""
    watched = set(_line_checked().values())
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
                    result = run(scenario, tram=tram, interleave=order)
                    result.trace_text()
                    [expect.passed for expect in result.expects]
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


def test_every_line_runs_in_a_shipped_scenario(shipped_runs):
    _, lines = shipped_runs
    checked = _line_checked()
    assert "engine._Engine.split" in checked and "lifecycle.Cohort.fade_level" in checked
    assert "agents.on_task_request.rank" in checked
    missed, unreached = [], set()
    for name, code in checked.items():
        source = inspect.getsourcelines(code)[0]
        # a def's first line runs no code; a lambda's holds its body
        first = None if code.co_name == "<lambda>" else code.co_firstlineno
        for _, line in dis.findlinestarts(code):
            if line is None or line == first or (code, line) in lines:
                continue
            text = source[line - code.co_firstlineno].strip()
            if (name, text) in UNREACHED:
                unreached.add((name, text))
            else:
                missed.append(f"{name}:{line} {text}")
    assert sorted(missed) == []
    assert unreached == UNREACHED.keys()  # each allowed line is still unreached
