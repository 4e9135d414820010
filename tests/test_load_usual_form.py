"""The usual form of a simple directive agrees with its ``_Loader`` method.

``load`` reads a ``tick``, ``trust``, ``outcome``, ... line in its usual form
with one ``fullmatch`` of the pattern in ``engine._DIRECTIVES`` and leaves
every other line to the directive's method.  For every line a pattern
accepts, the method must return the same args (and, for a ``tick``, move to
the same tick); where a builder declines a matched line, the method must
reject it.  Lines come from ``tests/test_load_run.py``'s strategies and the
``bench/gen.py`` workload shapes, mutated: tabs and doubled spaces, reordered
or dropped words, extra words (also one behind a tab after the name),
non-ASCII, zero-padded and signed digits, and other directive names, each in
the header and after a tick.  Each line also loads, alone or after a tick,
as it loads with the usual forms taken out of the table."""

import importlib.util
from pathlib import Path
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from coopsim import engine
from coopsim.engine import ScenarioError, load
from coopsim.statements import code_lines
from tests.test_load_run import (
    ending_headers,
    ending_lines,
    event_lines,
    header_lines,
    live_agents,
)

ROOT = Path(__file__).resolve().parent.parent


def _bench_lines() -> dict:
    """The distinct code lines of a few short scenarios of each workload, by
    directive name."""
    spec = importlib.util.spec_from_file_location("gen", ROOT / "bench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    texts = [gen.scenario_text(w, seed, 6) for w in gen.WORKLOADS for seed in range(3)]
    by_name = {}
    for code in sorted({code for text in texts for _, code in code_lines(text)}):
        by_name.setdefault(code.split(" ", 1)[0], []).append(code)
    return by_name


BENCH_LINES = _bench_lines()
NAMES = sorted(engine._DIRECTIVES)
EXTRA = ["x", "a=b", "=", "0", "window=2", "strength=3", "program=P", "task=U"]
SEPARATORS = ["\t", "  ", " \t", "\u00a0", "\u3000"]


def _digits(word: str, how: str) -> str:
    """``word`` with its number respelled: non-ASCII digits, a leading zero,
    a sign, or a value outside the usual ranges."""
    if how == "arabic-indic":  # "3" becomes "٣", which int() reads as 3
        return "".join(chr(0x660 + int(c)) if c in "0123456789" else c for c in word)
    if how == "zero":
        i = next((i for i, c in enumerate(word) if c.isdigit()), len(word))
        return word[:i] + "0" + word[i:]
    if how == "minus":
        return "-" + word
    if how == "plus":
        return "+" + word.lstrip("-")
    return word + "9"  # "2" becomes "29": out of every range


@st.composite
def mutated(draw, base):
    """A line drawn from ``base`` with up to three mutations of its words;
    about half of the lines keep their words, and half keep one space
    between them."""
    words = draw(base).split(" ")
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 1, 2, 3]))):
        kind = draw(
            st.sampled_from(["swap", "drop", "insert", "digits", "rename", "after-name"])
        )
        if kind == "insert":
            i = draw(st.integers(1, len(words)))
            words.insert(i, draw(st.sampled_from(EXTRA)))
        elif kind == "rename":
            words[0] = draw(st.sampled_from(NAMES))
        elif kind == "after-name":  # a word after the name, behind a tab or so
            sep = draw(st.sampled_from(SEPARATORS[:1] + SEPARATORS[2:]))
            words[0] += sep + draw(st.sampled_from(EXTRA))
        elif len(words) > 1:
            i = draw(st.integers(1, len(words) - 1))
            if kind == "swap":
                j = draw(st.integers(1, len(words) - 1))
                words[i], words[j] = words[j], words[i]
            elif kind == "drop":
                del words[i]
            else:
                how = ["arabic-indic", "zero", "minus", "plus", "big"]
                words[i] = _digits(words[i], draw(st.sampled_from(how)))
    separators = [" "] + (SEPARATORS if draw(st.booleans()) else [])
    line = words[0]
    for word in words[1:]:
        line += draw(st.sampled_from(separators)) + word
    return line


tick_lines = st.builds("tick {}".format, st.integers(0, 12))
bench_lines = st.sampled_from(sorted(BENCH_LINES)).flatmap(
    lambda name: st.sampled_from(BENCH_LINES[name])
)
lines = mutated(
    st.one_of(
        bench_lines, bench_lines, event_lines, ending_lines, header_lines, tick_lines
    )
)


def _usual(stripped: str):
    """The directive's name, its table entry and its builder's result when
    the usual form matches ``stripped``, else None."""
    name, _, rest = stripped.partition(" ")
    entry = engine._DIRECTIVES.get(name)
    if entry is None or entry[3] is None:
        return None
    match = entry[3].fullmatch(rest)
    return None if match is None else (name, entry, entry[4](match))


def _method(stripped: str, now):
    """What the directive's ``_Loader`` method makes of ``stripped`` after
    tick ``now`` (None: in the header): its result and the tick after it."""
    loader = engine._Loader()
    loader.now = now
    tokens = stripped.split()
    return engine._DIRECTIVES[tokens[0]][0](loader, tokens, stripped, 1), loader.now


_METHODS_ONLY = {name: e[:3] + (None, None) for name, e in engine._DIRECTIVES.items()}


def _load_or_error(text):
    try:
        return load(text)
    except ScenarioError as exc:
        return str(exc)


def _assert_loads_as_by_the_methods(text):
    """The same ``Scenario``, or the same error on the same line, with the
    usual forms as without them."""
    loaded = _load_or_error(text)
    with mock.patch.object(engine, "_DIRECTIVES", _METHODS_ONLY):
        assert loaded == _load_or_error(text)


@settings(max_examples=1500, deadline=None)
@given(line=lines, now=st.sampled_from([None, 0, 4]))
@example(line="tick \u0663", now=None)  # int() reads ARABIC-INDIC DIGIT THREE
@example(line="trust q p = -3", now=None)
@example(line="survey p group=q,q about=r", now=0)
@example(line="lor-request\tx a b about=c", now=0)  # five words, not three
def test_usual_form_agrees_with_the_loader_method(line, now):
    _assert_loads_as_by_the_methods(line if now is None else f"tick {now}\n{line}")
    stripped = line.strip()
    usual = _usual(stripped)
    if usual is None:
        return
    name, (_, before, after, _, _), built = usual
    if not (before if now is None else after):
        return  # load rejects the line for its place before either path
    if name != "tick" and built is not None:
        assert _method(stripped, now) == (built, now)
    elif name == "tick" and (now is None or built > now):
        assert _method(stripped, now) == (None, built)
    else:  # a tick not after the last one, or a builder that declined
        try:
            _method(stripped, now)
        except ScenarioError:
            return
        raise AssertionError(f"the method reads {stripped!r}; the usual form declined")


def _scenario(header, blocks):
    """Header lines, then tick blocks; a block's tick line is ``tick <n>``
    for the n-th block unless one was drawn."""
    text = list(header)
    for number, (tick, body) in enumerate(blocks, 1):
        text += [tick or f"tick {number}", *body]
    return "\n".join(text)


# most body lines are well formed, so that a load gets far into the text
event_bench_lines = st.sampled_from(
    sorted(name for name in BENCH_LINES if engine._DIRECTIVES[name][2])
).flatmap(lambda name: st.sampled_from(BENCH_LINES[name]))
# well formed but for a member the group may repeat
survey_lines = st.builds(
    "survey {} group={} about={}".format,
    live_agents,
    st.lists(live_agents, min_size=1, max_size=3).map(",".join),
    live_agents,
)
scenario_texts = st.builds(
    _scenario,
    st.one_of(st.lists(lines, max_size=4), ending_headers),
    st.lists(
        st.tuples(
            st.one_of(st.none(), st.none(), st.none(), mutated(tick_lines)),
            st.lists(
                st.one_of(event_bench_lines, ending_lines, survey_lines, lines),
                max_size=4,
            ),
        ),
        max_size=4,
    ),
)


@settings(max_examples=400, deadline=None)
@given(text=scenario_texts)
def test_load_equals_a_load_by_the_methods_alone(text):
    _assert_loads_as_by_the_methods(text)


def test_usual_forms_read_the_bench_lines():
    """Each bench line of a directive with a usual form is read by it, but
    an ``impose`` with ``strength=``, which its method reads."""
    for name, bench in BENCH_LINES.items():
        for line in bench if engine._DIRECTIVES[name][3] is not None else ():
            usual = _usual(line)
            assert (usual is not None and usual[2] is not None) != (
                " strength=" in line
            ), line
