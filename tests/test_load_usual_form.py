"""Every scenario line loads through its row of ``scenario._ROWS``.

Lines come from ``tests/test_load_run.py``'s strategies and the
``bench/gen.py`` workload shapes, mutated: tabs, doubled spaces, no-break
and ideographic spaces, reordered or dropped words, extra words (also one
behind a tab after the name), non-ASCII, zero-padded and signed digits, and
other directive names, each in the header and after a tick.  Each one either
loads or raises ``ScenarioError`` with its line number, and never another
exception.  A well-formed line loads to the same ``Directive`` whatever the
whitespace between its words and the order of its ``key=`` words.  Each
``_Kind``, of a field or of a setting, reads a word or names its fault."""

import importlib.util
import re
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from coopsim import scenario
from coopsim.scenario import ScenarioError, load
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
NAMES = sorted(scenario._ROWS)
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


def _scenario(header, blocks):
    """Header lines, then tick blocks; a block's tick line is ``tick <n>``
    for the n-th block unless one was drawn."""
    text = list(header)
    for number, (tick, body) in enumerate(blocks, 1):
        text += [tick or f"tick {number}", *body]
    return "\n".join(text)


# most body lines are well formed, so that a load gets far into the text
event_bench_lines = st.sampled_from(
    sorted(name for name in BENCH_LINES if scenario._ROWS[name].after)
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


def _load_or_error(text):
    """The loaded ``Scenario``, or the line number of the ``ScenarioError``;
    any other exception fails the test."""
    try:
        return load(text)
    except ScenarioError as exc:
        assert str(exc).startswith(f"line {exc.line}: "), exc
        return exc.line


@settings(max_examples=1500, deadline=None)
@given(line=lines, now=st.sampled_from([None, 0, 4]))
@example(line="tick \u0663", now=None)  # int() reads ARABIC-INDIC DIGIT THREE
@example(line="tick -0", now=None)  # read as tick 0
@example(line="trust q p = -3", now=None)
@example(line="survey p group=q,q about=r", now=0)
@example(line="lor-request\tx a b about=c", now=0)  # five words, not three
@example(line="reply\u3000a b maybe", now=0)
def test_mutated_line_loads_or_names_its_line(line, now):
    text = line if now is None else f"tick {now}\n{line}"
    loaded = _load_or_error(text)
    if isinstance(loaded, int):
        assert loaded == text.count("\n") + 1


@settings(max_examples=400, deadline=None)
@given(text=scenario_texts)
def test_mutated_scenario_loads_or_names_a_code_line(text):
    loaded = _load_or_error(text)
    if isinstance(loaded, int):
        assert loaded in dict(code_lines(text)), loaded


# well formed: each bench shape, and lines that end records; an issue line
# is left out, since the whitespace in its statement's body is text
well_formed = st.one_of(bench_lines, ending_lines).filter(
    lambda line: not line.startswith("issue ")
)


@settings(max_examples=600, deadline=None)
@given(line=well_formed, data=st.data())
@example(line="impose a00 a01 task=U0 strength=3", data=None)
def test_well_formed_line_loads_alike_respaced_and_reordered(line, data):
    """The line with its ``key=`` words (not the "=" before a level) in any
    order and any whitespace around and between its words."""
    words = line.split(" ")
    slots = [i for i, word in enumerate(words) if "=" in word and word != "="]
    if data is None:  # the example: the usual order reversed, tabs between
        keyed, gaps = [words[i] for i in reversed(slots)], ["\t"] * (len(words) + 1)
    else:
        keyed = data.draw(st.permutations([words[i] for i in slots]))
        gaps = data.draw(
            st.lists(st.sampled_from([" "] + SEPARATORS), min_size=len(words) + 1,
                     max_size=len(words) + 1)
        )
    for i, word in zip(slots, keyed):
        words[i] = word
    respaced = gaps[0] + "".join(word + gap for word, gap in zip(words, gaps[1:]))
    prefix = "" if scenario._ROWS[words[0]].before else "tick 1\n"
    assert load(prefix + respaced) == load(prefix + line)


# (directive, field or setting) -> (the name it reads under, its kind)
KINDS = {
    **{(row.name, name): (name, kind)
       for row in scenario._ROWS.values() for name, kind in row.fields},
    **{("policy", key): (key, kind) for key, (_, kind) in scenario._POLICY.items()},
    **{("profile", key): (key, kind) for key, (_, kind) in scenario._PROFILE.items()},
}
# the kinds whose fault the row names (by ``imposition_fault`` or its
# usage), and the refused words each keeps
KEPT = {
    scenario.ID: lambda word: True,
    scenario.TASK: bool,  # an empty task is the kind's fault
    scenario.ENTITY: lambda word: "=" not in word,
    KINDS["reply", "decision"][1]: lambda word: True,
}
# a small alphabet, with each number kind's signs, a non-ASCII digit and a
# decimal's "." and "/"; and some words that kinds accept
ALPHABET = "0123456789-+\u0663abPx,=!(./"
kind_words = st.one_of(
    st.text(ALPHABET, max_size=5),
    st.sampled_from(["program=P", "task=U", "agent=P", "true", "no", "proceed",
                     "success", "program-quality", "incremental", "round-robin"]),
)


@settings(max_examples=2000, deadline=None)
@given(field=st.sampled_from(sorted(KINDS)), word=kind_words)
@example(field=("policy", "gate"), word="1/0")  # Fraction() divides by 0
@example(field=("survey", "group"), word="a,b!")
@example(field=("survey", "group"), word="a,a!,a")  # the repeat is named
@example(field=("attr", "entity"), word="P")
@example(field=("impose", "task"), word="")
def test_each_kind_reads_a_word_or_names_its_fault(field, word):
    """``read`` returns or raises ValueError, never another exception.  It
    returns for a word that its pattern refused only for a kind whose fault
    the row names, and then keeps the word."""
    name, kind = KINDS[field]
    try:
        value = kind.read(word, name)
    except ValueError as exc:
        assert str(exc), (field, word)
        return
    if re.fullmatch(kind.pattern, word) is None:
        assert kind in KEPT and KEPT[kind](word), (field, word)
        assert value == word


def test_usual_forms_read_the_bench_lines():
    """Each bench line of a directive with fields matches its row's pattern
    as written: the workloads load without the tolerant reader."""
    for name, bench in BENCH_LINES.items():
        row = scenario._ROWS[name]
        for line in bench if row.read is None else ():
            assert row.pattern.fullmatch(line.partition(" ")[2]), line


def test_readme_gives_each_row_its_usage():
    """README's directive reference holds each row's usage text."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    reference = re.findall(r"^    (.+)$", readme.split("### Directives")[1], re.M)
    assert [row.usage for row in scenario._ROWS.values()] == reference[: len(scenario._ROWS)]


def test_each_usage_names_its_rows_fields():
    """A row's usage text shows its positional fields, its keys in row order
    (an optional one in brackets) and its ``= <level>``."""
    for row in scenario._ROWS.values():
        if row.read is not None:
            continue
        words = row.usage.split()[1:]
        if row.level:
            assert words[-2:] == ["=", "<level>"], row.usage
            words = words[:-2]
        keys = re.findall(r"(\[?)([a-z]+)=\S", row.usage)
        assert [key for _, key in keys] == list(row.keys), row.usage
        assert [key for bracket, key in keys if not bracket] == sorted(
            row.required, key=list(row.keys).index
        ), row.usage
        assert len(words) - len(keys) == row.width, row.usage
