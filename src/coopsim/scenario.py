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
(``_Load.retry``).  A kind states the words a field may hold once, as its
``pattern``, and names the fault of a word the pattern refuses, unless the
row names it: an impose line's ids by the row's ``fault``, a reply's
decision by its usage.  What no pattern states is a row's ``check`` (a tick
after the last one, an attribute set once, an imposition strength in range)
or a kind's ``convert`` (a survey group that names each member once).
``policy``, ``profile`` and ``issue`` lines have readers of their own; the
settings of the first two are read by kinds too.
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
    """One scenario line.  A named tuple that ``load`` builds with
    ``tuple.__new__``, as ``parse`` builds ``Statement`` and ``Body``: no
    record made per line is a frozen dataclass, whose ``__init__`` sets each
    field through ``object.__setattr__`` (README, "Performance")."""

    tick: int
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
# A kind's fault, a convert or a check raises ValueError with what is wrong,
# and ``load`` raises that as a ScenarioError on the line's number.


class _Kind(NamedTuple):
    """What a field or setting holds: ``pattern``, the words it may hold;
    ``convert``, which makes the value of a word the pattern matched, or
    raises what the pattern cannot state (None: the word is the value); and
    ``fault(word, name)``, what is wrong with a word the pattern refused, or
    None where the row's fault or usage names it (no ``fault``: always)."""

    pattern: str
    convert: Optional[Callable] = None
    fault: Optional[Callable] = None

    def read(self, word: str, name: str):
        """The value of ``word`` in the field or setting ``name``.  A word
        the pattern refused raises its fault, or is kept if it has none."""
        if re.fullmatch(self.pattern, word) is None:
            fault = self.fault and self.fault(word, name)
            if fault is not None:
                raise ValueError(fault)
            return word
        return word if self.convert is None else self.convert(word)


def _says(message: str) -> Callable:
    """The fault ``message``, with the refused ``word`` and the ``name`` of
    its field or setting."""
    return lambda word, name: message.format(word=word, name=name)


def _enum(values, fault=None, convert=None) -> _Kind:
    """One of ``values``; another word has ``fault`` or misuses the line."""
    return _Kind("|".join(map(re.escape, values)), convert, fault)


def _outside(message: str) -> Callable:
    """The fault of a number out of its kind's range: ``message`` with its
    ``name`` and ``value``; a word that is no number is ``INT``'s fault."""

    def fault(word: str, name: str) -> str:
        if re.fullmatch(INT.pattern, word) is None:
            return INT.fault(word, name)
        return message.format(name=name, value=int(word))

    return fault


def _empty(word: str, name: str) -> Optional[str]:
    return None if word else f"empty {name}= value"


def _members(word: str) -> tuple:
    """A group's members, each named once, which no pattern states."""
    members = tuple(word.split(","))
    if len(set(members)) != len(members):
        raise ValueError("survey group repeats a member")
    return members


def _group_fault(word: str, name: str) -> Optional[str]:
    """An empty member, then a repeated one, then the first that is no id."""
    if not all(word.split(",")):
        return f"survey {name} has an empty member"
    for member in _members(word):
        if not _TOKEN_RE.fullmatch(member):
            return AGENT.fault(member, name)


def _entity_fault(word: str, name: str) -> Optional[str]:
    kind, eq, value = word.partition("=")
    if not eq:  # the entity is out of place: the line is misused
        return None
    if kind not in ("program", "task"):
        return "attr entity must be program= or task="
    return TOKEN.fault(value, kind)


def _bad_value(word: str, key: str) -> str:
    return f"bad policy value {key + '=' + word!r}"


ID = _Kind(_TOKEN)  # an id that the row's fault names
AGENT = _Kind(_TOKEN, fault=_says("invalid agent id: {word!r}"))
# a ``program=``, ``task=``, ``token=`` or entity value: no statement can
# name another
TOKEN = _Kind(_TOKEN, fault=lambda word, name: (
    _empty(word, name) or f"invalid {name}: {word!r}"
))
TASK = _Kind(_TOKEN, fault=_empty)  # a task that the row's fault names
GROUP = _Kind(_TOKENS, _members, _group_fault)
# Scenario numbers, as the statement grammar spells them: ``int`` and
# ``Fraction`` also read "+3", "1_0", "1e-1" and any Unicode digit ("٣" is 3).
INT = _Kind(f"-?{_INT}", int, _says("expected {name}, got {word!r}"))
COUNT = _Kind("[0-9]+|-0+", int, _outside("negative {name} {value}"))  # "-0" is 0
LEVEL = _Kind("-?0*[0-2]", int, _outside("level {value} outside [-2,2]"))
ENTITY = _Kind(f"(?:program|task)={_TOKEN}", fault=_entity_fault)
# policy and profile values; a policy decimal is the grammar's, or a
# fraction "n/d" as ``str(Fraction)`` writes one, whose "d" is not 0
DECIMAL = _Kind(rf"{_INT}(?:\.{_INT}|/[0-9]*[1-9][0-9]*)?", Fraction, _bad_value)
BOOL = _enum(("true", "1", "yes", "false", "0", "no"),
             _says("expected boolean, got {word!r}"), ("true", "1", "yes").__contains__)
TOKENS = _Kind(_TOKENS, lambda word: frozenset(word.split(",")),
               _says("invalid {name} list: {word!r}"))


class _Row:
    """A directive: its usage text, where it may stand ("header", "events" or
    "both"), its positional ``fields`` by name and its ``keys`` by key (in
    brackets if optional), each with its kind, whether ``= <level>`` ends it,
    and its ``check`` or ``read``.  ``misuse`` is the error of a line that
    lacks a field and ``malformed`` that of a line with an extra word.
    ``fault``, which only ``_Load.retry`` runs, names a fault that the row
    pattern states but its fields' kinds do not name."""

    def __init__(self, usage, where, fields=None, keys=None, level=False,
                 check=None, read=None, misuse=None, malformed=None, fault=None):
        self.usage, self.name = usage, usage.split(" ", 1)[0]
        self.before, self.after = where != "events", where != "header"
        self.check, self.read, self.level = check, read, level
        self.fault = fault
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
# kind of its value
_POLICY = {
    "tram": ("tram", _enum([p.value for p in TramPolicy], _bad_value, TramPolicy)),
    "gate": ("gate_floor", DECIMAL),
    "fade-span": ("fade_span", INT._replace(fault=_bad_value)),
    "fade-threshold": ("fade_threshold", DECIMAL),
    "interleave": ("interleave", _enum(
        [s.value for s in InterleavingStrategy], _bad_value, InterleavingStrategy
    )),
    "penalize-incredible": ("penalize_incredible", BOOL),
    "recent-window": ("recent_window", INT._replace(fault=_bad_value)),
}
_PROFILE = {
    "independent": ("independent", BOOL),
    "experienced": ("experienced_with", TOKENS),
    "range": ("consulted_range", TOKENS),
    "reputation": ("recognized_reputation", TOKENS),
    "affiliated": ("producer_affiliation", TOKENS),
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
        extra word (``malformed``), a word its kind refuses, in field order,
        or the row's fault.  A line with none of these holds a word whose
        fault the row names by its usage (``misuse``)."""
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
        for (name, kind), word in zip(row.fields, found):
            if word is not None:  # else an optional field left out
                kind.read(word, name)
        if row.fault is not None:
            row.fault(self, found)
        raise ValueError(row.misuse)  # e.g. a reply neither proceed nor withdraw

    # -- readers ---------------------------------------------------------------

    def policy(self, stripped: str):
        header = self.header
        settings = _settings(stripped.split()[1:], _POLICY, "policy", self.settings)
        for key, value, name, kind in settings:
            setattr(header, name, kind.read(value, key))
            try:
                header.default_fade  # FadeSpec validates span and threshold
            except ValueError:
                raise ValueError(_bad_value(value, key)) from None
            if not 0 <= header.gate_floor <= 1:
                raise ValueError(f"gate {value} outside [0,1]")
            if header.recent_window < 0:
                raise ValueError(f"negative recent-window {value}")

    def profile(self, stripped: str):
        words = stripped.split()[1:]
        if not words:
            raise ValueError("profile requires an agent")
        agent = AGENT.read(words[0], "agent")
        profiles = self.header.profiles
        if agent in profiles:
            raise ValueError(f"repeated profile for agent {agent!r}")
        settings = _settings(words[1:], _PROFILE, "profile", set())
        fields = {name: kind.read(value, key) for key, value, name, kind in settings}
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
        return (), statement

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

    def imposition_fault(self, words: list):
        """The first of an imposition's task (a type argument) and ids that
        is not a token, named before its strength.  A line the row pattern
        matched holds tokens there, so only ``retry`` tests them."""
        imposer, target, task, _ = words
        try:
            TOKEN.read(task, "task")
            AGENT.read(imposer, "from")
            AGENT.read(target, "to")
        except ValueError as exc:
            raise ValueError(f"bad imposition: {exc}") from None

    def impose(self, args: tuple):
        imposer, target, task, strength = args
        if strength is not None and not 1 <= strength <= 10:  # no pattern states it
            raise ValueError("bad imposition: imposition strength must be in 1..10")
        statement = tuple.__new__(Statement, (  # no subject: nothing to check
            DirectionalKind.IMPOSITION, imposer, target, f"perform({task})",
            tuple.__new__(Body, (f"perform task {task}", None)),
            None, frozenset(), None, None, None, None, None, strength,
        ))
        return (imposer, target, task), statement


_TRUST = "<subject> <target> [program=<P>] [task=<T>] = <level>"

# The directives, in the README's order.  ``_Engine`` handles each that
# makes a directive: all but tick, policy, attr and profile.
_ROWS = {row.name: row for row in (
    _Row("tick <n>", "both", {"tick": COUNT}, check=_Load.tick,
         misuse="tick takes one argument"),
    _Row("policy <setting>=<value> ...", "header", read=_Load.policy),
    _Row("attr <name> <entity>=<id> = <level>", "header",
         {"name": _enum(ATTRIBUTE_CATALOG, _says("unknown attribute {word!r}")),
          "entity": ENTITY},
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
         check=_Load.impose, fault=_Load.imposition_fault,
         malformed="malformed impose directive"),
    _Row("outcome <agent> program=<P> task=<T> result=success|failure", "events",
         {"agent": AGENT},
         {"program": TOKEN, "task": TOKEN,
          "result": _enum(("success", "failure"), _says("bad result {word!r}"))}),
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
                    new(Directive, (state.now or 0, name) + built)
                )
    except ValueError as exc:
        raise ScenarioError(str(exc), line_no) from None
    return Scenario(state.header, state.initial, state.events, state.ticks)
