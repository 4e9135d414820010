"""Every rule is reached by a shipped scenario, every branch of a rule
taken both ways, every line of the loader run by an input whose output is
pinned.

The goldens pin only what the scenarios run, so a rule that no scenario
enters could change without a golden noticing.  This runs every
``scenarios/*.coop`` through the CLI, as CI does: under both TRAM policies
and both interleavings with its trace, and through ``check``.  It asserts
that each function and method written in ``agents.py`` and
``reputation.py``, and each ``_Engine.on_*`` directive handler, is entered,
and that every line of every function and method written in
``LINE_CHECKED``, and of every ``def`` and lambda nested in one, runs, but
for the lines of ``UNREACHED``, which no valid run reaches.  Lines alone
miss a condition that is never false, so the runs also record which line
follows which: every ``if``, ``elif`` and ``while`` in a function of
``LINE_CHECKED`` must go on from its condition both into its body and past
it, unless its body holds a line of ``UNREACHED``.

A line of ``READERS``, which read scenarios and statements, may also run on
one of the other inputs that CI feeds the CLI and compares with a pinned
output, on a row of the pinned load-message table, or as the module is
imported: its patterns and its directive table are built there, once.  A
condition of ``READERS`` may go each way on those inputs too.
"""

import ast
import dis
import importlib.util
import inspect
import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from coopsim import agents, appraisal, cli, engine, lifecycle, reputation, scenario
from coopsim import statements, trust
from coopsim.corpus import CORPUS_TEXTS
from coopsim.scenario import ScenarioError, load
from tests.test_engine import LOAD_MESSAGES

TESTS = Path(__file__).resolve().parent
SHIPPED = TESTS.parent / "scenarios"
SCENARIOS = sorted(SHIPPED.glob("*.coop"))
# the modules that read scenarios and statements
READERS = (scenario, statements, cli)
# modules whose every function and method line some shipped scenario, or
# for a reader a pinned input or the import, must run
LINE_CHECKED = (engine, agents, appraisal, trust, reputation, lifecycle, *READERS)
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
    # a Statement built in Python, not parsed, may couple clauses that its
    # concrete syntax cannot; tests/test_statements.py pins each message
    ("statements.render", "raise StatementError("):
        "render is called only on a parsed statement, whose clauses couple",
    ("statements.render",
     '"subject clause requires an observation time in concrete syntax"'):
        "as above: a subject with no observation time",
    ("statements.render",
     '"observation/fade/identity clauses require a subject in concrete syntax"'):
        "as above: an observation, fade or identity with no subject",
    ("statements.render",
     '"body condition requires an episode window in concrete syntax"'):
        "as above: a body condition with no window",
    ("statements._decimal",
     'raise StatementError("fade threshold needs a finite decimal in concrete syntax")'):
        "as above: a threshold such as 1/3, which no decimal that parse reads gives",
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


def _key(code) -> tuple:
    """A code object as its copy in a second import of its module has it."""
    return code.co_filename, code.co_name, code.co_firstlineno


def _cli(*args, stdin: bytes = b""):
    """``coopsim *args`` in process, reading ``stdin``, printing nothing."""
    previous, sys.stdin = sys.stdin, io.TextIOWrapper(io.BytesIO(stdin))
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            cli.main(list(args))
    except SystemExit:  # a scenario that does not load exits 2
        pass
    finally:
        sys.stdin = previous


def _pinned_inputs(tmp: Path):
    """The arguments, besides the shipped scenarios' runs, with which CI
    runs ``coopsim`` on a file or none, and those of the tests that pin what
    ``coopsim`` prints for the others."""
    bom = tmp / "bom.coop"
    bom.write_bytes(b"\xef\xbb\xbf" + (SHIPPED / "parking.coop").read_bytes())
    yield "run", str(bom), "--trace", "--quiet"
    for name in ("whitespace_bodies.coop", "bare_ticks.coop"):
        yield "run", str(TESTS / name), "--trace", "--quiet"
    yield ("corpus",)
    yield "parse", str(TESTS / "malformed_statements.txt")
    for path in sorted((TESTS / "malformed_scenarios").glob("*.coop")):
        yield "check", str(path)
        yield "run", str(path), "--trace", "--quiet"
    # tests/test_cli.py: the summaries and a file that cannot be read
    yield "run", str(SHIPPED / "newcomers.coop"), "--trace"
    yield "run", str(SHIPPED / "lor.coop")  # no --trace, as for the file it writes
    yield "check", str(SHIPPED / "lor.coop")
    yield "parse", str(tmp / "no-such-file.txt")


@pytest.fixture(scope="module")
def shipped_runs(tmp_path_factory) -> tuple:
    """(code objects entered, ``(_key(code), line)`` pairs run in
    ``LINE_CHECKED``) over every shipped scenario through the CLI, the pairs
    run also over the pinned inputs and the imports of ``READERS``, and the
    ``(file, line, next line)`` arcs of the shipped runs and of all of
    these, where the next line is None when the frame returns or yields."""
    watched = set(_line_checked().values())
    readers = {module.__file__ for module in READERS}
    entered, lines, arcs = set(), set(), set()

    def tracer(frame, event, arg):  # called for "call" events only
        entered.add(frame.f_code)
        code = frame.f_code
        if code not in watched and code.co_filename not in readers:
            return None
        last = None  # the line this frame ran last

        def on_line(frame, event, arg):
            nonlocal last
            if event == "line":
                lines.add((code, frame.f_lineno))
                arcs.add((code.co_filename, last, frame.f_lineno))
                last = frame.f_lineno
            elif event == "return":
                arcs.add((code.co_filename, last, None))
            return on_line

        return on_line

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        for path in SCENARIOS:
            _cli("check", str(path), "--quiet")
            for tram in ("incremental", "recency-history"):
                for order in ("file-order", "round-robin"):
                    _cli("run", str(path), "--trace", "--quiet", "--tram", tram,
                         "--interleave", order)
        shipped, shipped_lines, shipped_arcs = set(entered), set(lines), set(arcs)
        for args in _pinned_inputs(tmp_path_factory.mktemp("inputs")):
            _cli(*args)
        # CI's stdin: coopsim corpus | coopsim parse, and a byte not UTF-8
        corpus = "".join(f"{text}\n" for text in CORPUS_TEXTS).encode()
        for stdin in (corpus, b'p[pi:"\xfe"]q\n'):
            _cli("parse", stdin=stdin)
        for _, text, _, _ in LOAD_MESSAGES:  # tests/test_engine.py
            with pytest.raises(ScenarioError):
                load(f"# pinned\n{text}\n")
        # tests/test_load_usual_form.py: a line in another form loads
        load("tick 1\n\timpose\ta00\ta01\tstrength=3\ttask=U0\t")
        for module in READERS:  # a second import, which builds the tables
            name = f"{module.__name__}_again"  # a dataclass looks its module up
            spec = importlib.util.spec_from_file_location(name, module.__file__)
            sys.modules[name] = importlib.util.module_from_spec(spec)
            try:
                spec.loader.exec_module(sys.modules[name])
            finally:
                del sys.modules[name]
    finally:
        sys.settrace(previous)
    return (
        shipped,
        {(_key(code), line) for code, line in shipped_lines},
        {(_key(code), line) for code, line in lines},
        shipped_arcs,
        arcs,
    )


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
    entered, *_ = shipped_runs
    assert "on_task_request" in wanted and "_Engine.on_outcome" in wanted
    assert sorted(name for name, code in wanted.items() if code not in entered) == []


def test_every_line_runs_in_a_shipped_scenario(shipped_runs):
    _, shipped, pinned, *_ = shipped_runs
    checked = _line_checked()
    assert "engine._Engine.split" in checked and "lifecycle.Cohort.fade_level" in checked
    assert "agents.on_task_request.rank" in checked and "scenario._Kind.read" in checked
    readers = {module.__file__ for module in READERS}
    missed, unreached = [], set()
    for name, code in checked.items():
        source = inspect.getsourcelines(code)[0]
        lines = pinned if code.co_filename in readers else shipped
        # a def's first line runs no code; a lambda's holds its body
        first = None if code.co_name == "<lambda>" else code.co_firstlineno
        for _, line in dis.findlinestarts(code):
            if line is None or line == first or (_key(code), line) in lines:
                continue
            text = source[line - code.co_firstlineno].strip()
            if (name, text) in UNREACHED:
                unreached.add((name, text))
            else:
                missed.append(f"{name}:{line} {text}")
    assert sorted(missed) == []
    assert unreached == UNREACHED.keys()  # each allowed line is still unreached


def _conditions(module):
    """(qualified name, node) of every ``if``, ``elif`` and ``while`` in a
    function or method of ``module``, nested ``def``s included."""

    def walk(node, name, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.If, ast.While)) and in_function:
                yield name, child
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = isinstance(child, ast.FunctionDef)
                yield from walk(child, f"{name}.{child.name}", in_function or inner)
            else:
                yield from walk(child, name, in_function)

    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    return walk(tree, module.__name__.rpartition(".")[2], False)


def test_every_branch_goes_both_ways_in_a_shipped_scenario(shipped_runs):
    *_, shipped, pinned = shipped_runs
    names, missed = set(), []
    for module in LINE_CHECKED:
        source = Path(module.__file__).read_text(encoding="utf-8").splitlines()
        after = {}  # line -> the lines run next from it
        for path, line, following in pinned if module in READERS else shipped:
            if path == module.__file__:
                after.setdefault(line, set()).add(following)
        for name, node in _conditions(module):
            names.add(name)
            # the condition's lines, up to its body's first line
            test = range(node.lineno, node.body[0].lineno)
            body = range(node.body[0].lineno, node.body[-1].end_lineno + 1)
            nexts = set().union(*(after.get(line, ()) for line in test))
            taken = {to in body for to in nexts if to not in test}
            text = source[node.lineno - 1].strip()
            if taken != {True, False} and not any(
                (name, source[line - 1].strip()) in UNREACHED for line in body
            ):
                into = "body" if True in taken else "past" if taken else "nowhere"
                missed.append(f"{name}:{node.lineno} {text} (only {into})")
    assert "engine._Engine.fade_step" in names and "agents.Action.detail" in names
    assert "cli.cmd_run" in names and "scenario._Load.retry" in names
    assert sorted(missed) == []
