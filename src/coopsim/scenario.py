"""Scenario files: the directive table and ``load``.

A scenario is a header block (policy, initial trust, attributes, profiles)
followed by tick-ordered event directives, one per line.  ``policy``,
``attr`` and ``profile`` lines set the ``PolicyHeader`` as the scenario
loads and make no directive; every ``tick`` line is kept in
``Scenario.ticks``, with or without directives after it.  A line's first
word names its directive, which is declared once, as a row of ``_ROWS``
(``_Row``): its fields, the kind of each (``_Kind``) and its usage text.
``load`` accepts a line only by a ``fullmatch`` of its row's pattern, the
usual form of the line: one space between words and the keys in row order.
A line in another form is put in that form and matched again; a line that
still does not match is walked through its row to name its first fault
(``_Load.retry``).  What no pattern states is a row's ``check`` (a tick
after the last one, an attribute set once, an imposition that makes a valid
statement) or a kind's ``convert`` (a survey group that names each member
once).  ``policy``, ``profile`` and ``issue`` lines have readers of their
own.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from .appraisal import ATTRIBUTE_CATALOG, DEFAULT_GATE_FLOOR, ConsultantProfile
from .reputation import DEFAULT_RECENT_WINDOW
from .statements import (
    Body,
    DirectionalKind,
    FadeSpec,
    Statement,
    StatementError,
    _INT,
    _TOKEN,
    _TOKEN_RE,
    _TOKENS,
    _TOKENS_RE,
    check_agent_id,
    code_lines,
    parse as parse_statement,
    split_lines,
)
from .trust import TramPolicy

__all__ = [
    "ScenarioError",
    "InterleavingStrategy",
    "PolicyHeader",
    "Directive",
    "Scenario",
    "load",
    "load_path",
    "read_text",
    "decode_text",
]


class ScenarioError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class InterleavingStrategy(Enum):
    FILE_ORDER = "file-order"
    ROUND_ROBIN = "round-robin"


@dataclass
class PolicyHeader:
    tram: TramPolicy = TramPolicy.INCREMENTAL
    gate_floor: Fraction = DEFAULT_GATE_FLOOR
    fade_span: int = 100
    fade_threshold: Fraction = Fraction(1, 20)
    interleave: InterleavingStrategy = InterleavingStrategy.FILE_ORDER
    penalize_incredible: bool = False
    recent_window: int = DEFAULT_RECENT_WINDOW
    attrs: dict = field(default_factory=dict)  # (entity kind, id) -> {name: level}
    profiles: dict = field(default_factory=dict)  # agent -> ConsultantProfile

    @property
    def default_fade(self) -> FadeSpec:
        return FadeSpec(span=self.fade_span, threshold=self.fade_threshold)


class Directive(NamedTuple):
    """One scenario line.  A named tuple: ``load`` builds one per line, and a
    frozen dataclass costs about twice as much to build.  ``load`` builds it
    with ``tuple.__new__``, skipping the named tuple's Python-level
    ``__new__``."""

    tick: int
    line: int
    name: str
    args: tuple
    statement: Optional[Statement] = None


@dataclass
class Scenario:
    header: PolicyHeader  # policy, attributes and consultant profiles
    initial: list  # the header's trust and expect-trust directives
    events: list  # the directives after the first tick, in tick order
    ticks: list  # every tick a line names, with or without directives


def read_text(path) -> str:
    """The text of the UTF-8 file at ``path``, as ``decode_text`` reads it."""
    with open(path, "rb") as handle:
        return decode_text(handle.read())


def decode_text(data: bytes) -> str:
    """``data`` read as UTF-8, less one leading byte-order mark.  A byte that
    is not UTF-8 is a ``ScenarioError`` on its line and at its file offset."""
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        line = len(split_lines(data[: exc.start].decode("utf-8")))
        raise ScenarioError(
            f"not UTF-8: byte {data[exc.start]:#04x} at offset {exc.start}", line
        ) from None


def load_path(path) -> Scenario:
    return load(read_text(path))


# -- values ------------------------------------------------------------------
# A reader or check raises ValueError with what is wrong, and ``load`` raises
# that as a ScenarioError on the line's number.

# Scenario numbers, as the statement grammar spells them: ``int`` and
# ``Fraction`` also read "+3", "1_0", "1e-1" and any Unicode digit ("٣" is 3).
# A policy decimal is the grammar's, or a fraction "n/d" as ``str(Fraction)``
# writes one.
_INT_RE = re.compile(f"-?{_INT}")
_DECIMAL_RE = re.compile(rf"{_INT}(?:\.{_INT}|/{_INT})?")


def _int(word: str, name: str = "integer") -> int:
    """``word`` if it is ``[0-9]+`` after an optional "-", which the range
    checks then name."""
    if not _INT_RE.fullmatch(word):
        raise ValueError(f"expected {name}, got {word!r}")
    return int(word)


def _count(word: str, name: str) -> int:
    value = _int(word, name)
    if value < 0:
        raise ValueError(f"negative {name} {value}")
    return value


def _level(word: str, name: str) -> int:
    value = _int(word, name)
    if not -2 <= value <= 2:
        raise ValueError(f"level {value} outside [-2,2]")
    return value


def _decimal(word: str) -> Fraction:
    if not _DECIMAL_RE.fullmatch(word):
        raise ValueError(f"not a decimal: {word!r}")
    return Fraction(word)


def _bool(word: str, name: str = "") -> bool:
    if word in ("true", "1", "yes"):
        return True
    if word in ("false", "0", "no"):
        return False
    raise ValueError(f"expected boolean, got {word!r}")


def _tokens(word: str, name: str) -> frozenset:
    if not _TOKENS_RE.fullmatch(word):
        raise ValueError(f"invalid {name} list: {word!r}")
    return frozenset(word.split(","))


def _nonempty(word: str, name: str) -> str:
    if not word:
        raise ValueError(f"empty {name}= value")
    return word


def _token(word: str, name: str) -> str:
    """A ``program=``, ``task=``, ``token=`` or entity value is a token: no
    statement can name another."""
    if not _TOKEN_RE.fullmatch(_nonempty(word, name)):
        raise ValueError(f"invalid {name}: {word!r}")
    return word


def _members(word: str) -> tuple:
    """A group's members, each named once, which no pattern states."""
    members = tuple(word.split(","))
    if len(set(members)) != len(members):
        raise ValueError("survey group repeats a member")
    return members


def _group(word: str, name: str) -> tuple:
    if not all(word.split(",")):
        raise ValueError(f"survey {name} has an empty member")
    members = _members(word)
    for member in members:
        check_agent_id(member)
    return members


def _entity(word: str, name: str) -> str:
    kind, eq, value = word.partition("=")
    if eq:  # else the entity is out of place: the line is misused
        if kind not in ("program", "task"):
            raise ValueError("attr entity must be program= or task=")
        _token(value, kind)
    return word


class _Kind(NamedTuple):
    """What a field holds: ``pattern``, its value in the usual form;
    ``convert``, which makes the value of a word the pattern matched, or
    raises what the pattern cannot state (None: the word is the value); and
    ``read(word, field name)``, which makes the value of any word, or raises
    what is wrong with it."""

    pattern: str
    convert: Optional[Callable] = None
    read: Callable = lambda word, name: word


def _enum(values, message: Optional[str] = None) -> _Kind:
    """One of ``values``.  Another word is ``message`` with the word, or with
    no message misuses the line."""

    def read(word: str, name: str) -> str:
        if word not in values and message:
            raise ValueError(message.format(word))
        return word

    return _Kind("|".join(map(re.escape, values)), read=read)


ID = _Kind(_TOKEN)  # an id that the row's check tests
AGENT = _Kind(_TOKEN, read=lambda word, name: check_agent_id(word))
TOKEN = _Kind(_TOKEN, read=_token)
TASK = _Kind(_TOKEN, read=_nonempty)  # a task that the row's check tests
GROUP = _Kind(_TOKENS, _members, _group)
COUNT = _Kind("[0-9]+|-0+", int, _count)  # "-0" reads as 0
INT = _Kind("-?[0-9]+", int, _int)
LEVEL = _Kind("-?0*[0-2]", int, _level)
ENTITY = _Kind(f"(?:program|task)={_TOKEN}", read=_entity)


class _Row:
    """A directive: its usage text, where it may stand ("header", "events" or
    "both"), its positional ``fields`` by name and its ``keys`` by key (in
    brackets if optional), each with its kind, whether ``= <level>`` ends it,
    and its ``check`` or ``read``.  ``misuse`` is the error of a line that
    lacks a field and ``malformed`` that of a line with an extra word."""

    def __init__(self, usage, where, fields=None, keys=None, level=False,
                 check=None, read=None, misuse=None, malformed=None):
        self.usage, self.name = usage, usage.split(" ", 1)[0]
        self.before, self.after = where != "events", where != "header"
        self.check, self.read, self.level = check, read, level
        self.misuse = misuse or f"usage: {usage}"
        self.malformed = malformed or self.misuse
        fields, keys = fields or {}, keys or {}
        self.width = len(fields)
        self.keys = {key.strip("[]"): kind for key, kind in keys.items()}
        self.required = {key for key in keys if key[0] != "["}
        # every field in usual-form order, the level named as its errors name it
        self.fields = [*fields.items(), *self.keys.items()]
        self.fields += [("trust level", LEVEL)] * level
        pattern = " ".join(f"({kind.pattern})" for kind in fields.values())
        for key, kind in self.keys.items():
            part = f" {key}=({kind.pattern})"
            pattern += part if key in self.required else f"(?:{part})?"
        self.pattern = re.compile(pattern + f" = ({LEVEL.pattern})" * level)
        self.converts = [
            (i, kind.convert) for i, (_, kind) in enumerate(self.fields) if kind.convert
        ]


# setting -> the PolicyHeader or ConsultantProfile field it sets and the
# reader of its value
_POLICY = {
    "tram": ("tram", TramPolicy),
    "gate": ("gate_floor", _decimal),
    "fade-span": ("fade_span", _int),
    "fade-threshold": ("fade_threshold", _decimal),
    "interleave": ("interleave", InterleavingStrategy),
    "penalize-incredible": ("penalize_incredible", _bool),
    "recent-window": ("recent_window", _int),
}
_PROFILE = {
    "independent": ("independent", _bool),
    "experienced": ("experienced_with", _tokens),
    "range": ("consulted_range", _tokens),
    "reputation": ("recognized_reputation", _tokens),
    "affiliated": ("producer_affiliation", _tokens),
}


def _settings(words: list, table: dict, what: str, given: set):
    """``(key, value, field, reader)`` of each ``key=value`` word of a
    ``what`` line, as ``table`` gives the key's field and reader; ``given``
    holds the keys given so far."""
    for word in words:
        key, eq, value = word.partition("=")
        if not eq:
            raise ValueError(f"malformed {what} setting {word!r}")
        if key in given:  # on this line, or for a policy an earlier one
            raise ValueError(f"repeated {what} setting {key!r}")
        given.add(key)
        if key not in table:
            raise ValueError(f"unknown {what} setting {key!r}")
        yield (key, value, *table[key])


class _Load:
    """The state of one ``load``: the header so far, the current tick, the
    ticks and directives read, and the policy settings given so far.  A
    reader or check returns a line's args and statement, or None for a line
    that only sets the tick or the header."""

    def __init__(self):
        self.header = PolicyHeader()
        self.now: Optional[int] = None  # None before the first tick
        self.initial, self.events, self.ticks = [], [], []
        self.directives = self.initial  # the list the next directive joins
        self.settings: set = set()  # policy settings given so far

    def retry(self, row: _Row, words: list):
        """The match of ``words``, a line's words after its name, with one
        space between them and the keys in row order.  If they still do not
        match, raise the line's first fault: a missing field (``misuse``), an
        extra word (``malformed``), a word its kind cannot read, in field
        order, or the row's check; a line with none of these is misused."""
        tail = words[-2:] if row.level else []  # "=" and the level
        if row.level and (len(tail) < 2 or tail[0] != "="):
            raise ValueError(row.misuse)
        words = words[: len(words) - len(tail)]
        width = row.width
        pairs = [word.partition("=") for word in words[width:]]
        keyed = {key: value for key, eq, value in pairs if eq and key in row.keys}
        if len(words) < width or not row.required <= keyed.keys():
            raise ValueError(row.misuse)
        if len(keyed) < len(pairs):  # a word with no "=", an unknown key or a repeat
            raise ValueError(row.malformed)
        usual = words[:width] + [f"{k}={keyed[k]}" for k in row.keys if k in keyed]
        match = row.pattern.fullmatch(" ".join(usual + tail))
        if match is not None:
            return match
        found = [*words[:width], *map(keyed.get, row.keys), *tail[1:]]
        values = tuple(
            None if word is None else kind.read(word, name)
            for (name, kind), word in zip(row.fields, found)
        )
        if row.check is not None:
            row.check(self, values)
        raise ValueError(row.misuse)  # e.g. a reply neither proceed nor withdraw

    # -- readers ---------------------------------------------------------------

    def policy(self, stripped: str):
        header = self.header
        settings = _settings(stripped.split()[1:], _POLICY, "policy", self.settings)
        for key, value, name, read in settings:
            try:
                setattr(header, name, read(value))
                header.default_fade  # FadeSpec validates span and threshold
            except (ValueError, ZeroDivisionError) as exc:
                # a boolean names what it expected; other values read alike
                message = f"bad policy value {key + '=' + value!r}"
                raise ValueError(str(exc) if read is _bool else message) from None
            if not 0 <= header.gate_floor <= 1:
                raise ValueError(f"gate {value} outside [0,1]")
            if header.recent_window < 0:
                raise ValueError(f"negative recent-window {value}")

    def profile(self, stripped: str):
        words = stripped.split()[1:]
        if not words:
            raise ValueError("profile requires an agent")
        agent = check_agent_id(words[0])
        profiles = self.header.profiles
        if agent in profiles:
            raise ValueError(f"repeated profile for agent {agent!r}")
        settings = _settings(words[1:], _PROFILE, "profile", set())
        fields = {name: read(value, key) for key, value, name, read in settings}
        profiles[agent] = ConsultantProfile(**fields)

    def issue(self, stripped: str):
        text = stripped[len("issue") :].strip()
        try:
            statement = parse_statement(text)
        except StatementError as exc:
            raise ValueError(f"bad statement: {exc}") from None
        if statement.subject is not None:
            raise ValueError("issued statements may not carry a subject")
        # the engine stamps the issue tick and keeps no validity window
        if statement.issue_time is not None:
            raise ValueError("issued statements may not carry u=")
        if statement.window is not None:
            raise ValueError("issued statements may not carry a validity window")
        return (text,), statement

    # -- checks ----------------------------------------------------------------

    def tick(self, args: tuple):
        (tick,) = args
        if self.now is not None and tick <= self.now:
            raise ValueError(f"tick {tick} not after previous tick {self.now}")
        self.now = tick
        self.ticks.append(tick)
        self.directives = self.events

    def attr(self, args: tuple):
        name, entity, level = args
        kind, _, entity_id = entity.partition("=")
        levels = self.header.attrs.setdefault((kind, entity_id), {})
        if name in levels:
            raise ValueError(f"repeated attr {name!r} for {kind} {entity_id!r}")
        levels[name] = level

    def impose(self, args: tuple):
        imposer, target, task, strength = args
        try:  # checked here alone: the task (a type argument), ids, strength
            _token(task, "task")
            check_agent_id(imposer)
            check_agent_id(target)
            if strength is not None and not 1 <= strength <= 10:
                raise ValueError("imposition strength must be in 1..10")
        except ValueError as exc:
            raise ValueError(f"bad imposition: {exc}") from None
        statement = Statement(
            DirectionalKind.IMPOSITION, imposer, target, f"perform({task})",
            Body(f"perform task {task}"), strength=strength,
        )
        return (imposer, target, task), statement


_TRUST = "<subject> <target> [program=<P>] [task=<T>] = <level>"

# The directives, in the README's order.  ``_Engine`` handles each that
# makes a directive: all but tick, policy, attr and profile.
_ROWS = {row.name: row for row in (
    _Row("tick <n>", "both", {"tick": COUNT}, check=_Load.tick,
         misuse="tick takes one argument"),
    _Row("policy <setting>=<value> ...", "header", read=_Load.policy),
    _Row("attr <name> <entity>=<id> = <level>", "header",
         {"name": _enum(ATTRIBUTE_CATALOG, "unknown attribute {!r}"), "entity": ENTITY},
         level=True, check=_Load.attr),
    _Row("profile <agent> [<setting>=<value> ...]", "header", read=_Load.profile),
    *(
        _Row(f"{name} {_TRUST}", "both", {"subject": AGENT, "target": AGENT},
             {"[program]": TOKEN, "[task]": TOKEN}, level=True,
             misuse=f"malformed {name} directive")
        for name in ("trust", "expect-trust")
    ),
    _Row("issue <statement>", "events", read=_Load.issue),
    _Row("impose <from> <to> task=<T> [strength=<1..10>]", "events",
         {"from": ID, "to": ID}, {"task": TASK, "[strength]": INT},
         check=_Load.impose, malformed="malformed impose directive"),
    _Row("outcome <agent> program=<P> task=<T> result=success|failure", "events",
         {"agent": AGENT},
         {"program": TOKEN, "task": TOKEN,
          "result": _enum(("success", "failure"), "bad result {!r}")}),
    _Row("withdraw <promiser> token=<id>", "events", {"promiser": AGENT},
         {"token": TOKEN}),
    _Row("lor-request <asker> <peer> about=<target>", "events",
         {"asker": AGENT, "peer": AGENT}, {"about": AGENT}),
    _Row("survey <surveyor> group=<a,b> about=<target> [window=<n>]", "events",
         {"surveyor": AGENT}, {"group": GROUP, "about": AGENT, "[window]": COUNT}),
    _Row("reply <from> <to> proceed|withdraw", "events",
         {"from": AGENT, "to": AGENT, "decision": _enum(("proceed", "withdraw"))}),
)}


def load(text: str) -> Scenario:
    """Parse and validate a scenario script, each line by its row of
    ``_ROWS``.  A line in error raises ``ScenarioError`` with its number."""
    state = _Load()
    new = tuple.__new__  # a Directive without NamedTuple's Python-level __new__
    try:
        for line_no, stripped in code_lines(text):
            name, _, rest = stripped.partition(" ")
            row = _ROWS.get(name)
            if row is None:  # not one space after the name, or no directive
                name = stripped.split(None, 1)[0]
                row, rest = _ROWS.get(name), None
            if state.now is None:
                if row is None or not row.before:
                    raise ValueError(
                        f"directive {name!r} not allowed before the first tick"
                    )
            elif row is None or not row.after:
                raise ValueError(f"unknown directive {name!r}")
            if row.read is not None:
                built = row.read(state, stripped)
            else:
                match = rest is not None and row.pattern.fullmatch(rest)
                args = (match or state.retry(row, stripped.split()[1:])).groups()
                if row.converts:  # only the fields whose kind converts
                    args = list(args)
                    for i, convert in row.converts:
                        if args[i] is not None:  # else an optional field left out
                            args[i] = convert(args[i])
                    args = tuple(args)
                built = (args, None) if row.check is None else row.check(state, args)
            if built is not None:  # None for a tick, policy, attr or profile line
                state.directives.append(
                    new(Directive, (state.now or 0, line_no, name) + built)
                )
    except ValueError as exc:
        raise ScenarioError(str(exc), line_no) from None
    return Scenario(state.header, state.initial, state.events, state.ticks)
