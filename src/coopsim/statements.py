"""Directional statement model: grammar, parser, printer, equivalence.

A directional is a directed communication from one agent to another, one of
six kinds (promise, imposition, suggestion, warning, proposal, prediction).
The concrete syntax is bracket-based::

    stmt     := agent "[" frag? issue? kindtag? type ":" bodycore strength? scope? "]" agent
    frag     := "w=" int "," agent ("(" token ")")? ("," "fade(" int "," decimal ")")? "/"
    issue    := "u=" int ","
    kindtag  := ("promise"|"impose"|"suggest"|"warn"|"propose"|"predict") "!"
    type     := token ("(" token ("," token)* ")")?
    bodycore := qstring | "(" int "," qstring ("if" qstring)? "," int ")"
    strength := "@" int                      # 1..10, impositions only
    scope    := "/" "{" agent ("," agent)* "}"

``render`` produces the canonical form: fixed clause order, scope sorted,
no redundant whitespace.  ``parse(render(s)) == s`` for every valid
statement.

The grammar is written once, as the table ``_GRAMMAR``.  A step is a
``(pattern, what)`` pair, a token list, a quoted string, or an optional
clause chosen by its opener.  ``parse`` matches valid text with one pattern
built by joining the table (``_STATEMENT_RE``) and builds the statement from
its groups.  Text that pattern rejects is walked through the same table,
step by step, to find the column of the first step that fails and report
"expected <what>" (``StatementSyntaxError``).  The grammar is LL(1): a
clause is chosen by its first characters (``w=``, ``u=``, ``<keyword>!``,
``(``, ``@``, ``/``), so the walk and the pattern accept the same text.

``Statement.adequacy``, the ``(program, task)`` of an ``adequacy(P,U)`` type
tag, is matched on first use with the grammar's token; nothing else spells it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Optional

__all__ = [
    "DirectionalKind",
    "Body",
    "ValidityWindow",
    "FadeSpec",
    "Statement",
    "StatementError",
    "StatementSyntaxError",
    "ScopeMembershipError",
    "WindowOrderError",
    "FragmentCounter",
    "check_agent_id",
    "code_lines",
    "split_lines",
    "parse",
    "render",
    "equivalence_key",
]

_TOKEN = r"[A-Za-z0-9_-]+"
_TOKEN_RE = re.compile(_TOKEN)
_TOKENS = rf"{_TOKEN}(?:,{_TOKEN})*"
_TOKENS_RE = re.compile(_TOKENS)
_INT = "[0-9]+"  # ASCII only: \d and int() take any Unicode digit
_ADEQUACY_RE = re.compile(rf"adequacy\(({_TOKEN}),({_TOKEN})\)")

# A line up to its first "#" outside a quoted string (an open string runs on
# to the end of the line).  Matching every line with it makes load ~8% slower.
_CODE_RE = re.compile(r'(?:[^"#]+|"[^"]*"?)*')


class StatementError(ValueError):
    """Base class for statement parsing/validation failures."""


class StatementSyntaxError(StatementError):
    """Malformed statement text.  ``column`` is 1-based."""

    def __init__(self, message: str, column: int):
        super().__init__(f"column {column}: {message}")
        self.column = column


class ScopeMembershipError(StatementError):
    """Subject is not a member of the effective scope or the promisee."""


class WindowOrderError(StatementError):
    """A temporal ordering constraint is violated (window or w/u)."""


class DirectionalKind(Enum):
    PROMISE = "promise"
    IMPOSITION = "imposition"
    SUGGESTION = "suggestion"
    WARNING = "warning"
    PROPOSAL = "proposal"
    PREDICTION = "prediction"

    # members are singletons: the identity hash agrees with equality and
    # keeps a Python frame out of each ``equivalence_key`` hash
    __hash__ = object.__hash__


# keyword used in the kindtag clause, per kind
_KIND_KEYWORD = {
    DirectionalKind.PROMISE: "promise",
    DirectionalKind.IMPOSITION: "impose",
    DirectionalKind.SUGGESTION: "suggest",
    DirectionalKind.WARNING: "warn",
    DirectionalKind.PROPOSAL: "propose",
    DirectionalKind.PREDICTION: "predict",
}
_KEYWORD_KIND = {v: k for k, v in _KIND_KEYWORD.items()}


def check_agent_id(name: str) -> str:
    if not _TOKEN_RE.fullmatch(name):
        raise StatementError(f"invalid agent id: {name!r}")
    return name


def split_lines(text: str) -> list:
    """``text`` broken at "\\n", "\\r\\n" and "\\r" only, as ``open()`` breaks
    it; ``str.splitlines`` also breaks at "\\f", "\\v", "\\x85", U+2028 and
    more, which would move every later line number off ``grep -n``'s."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def code_lines(text: str):
    """Yield ``(line number, code)`` for each line of a scenario or statement
    file that holds code: its text before the first "#" outside a quoted
    string, stripped.  A "#" in a quoted body is text."""
    for line_no, raw in enumerate(split_lines(text), start=1):
        if '"' in raw and "#" in raw:  # else the split gives the same text
            code = _CODE_RE.match(raw).group().strip()
        else:
            code = raw.split("#", 1)[0].strip()
        if code:
            yield line_no, code


def _norm_text(text: str) -> str:
    return " ".join(text.lower().split())


@dataclass(frozen=True)
class Body:
    text: str
    condition: Optional[str] = None


@dataclass(frozen=True)
class ValidityWindow:
    start: int
    end: int

    def __post_init__(self):
        if self.start > self.end:
            raise WindowOrderError(
                f"window start {self.start} after end {self.end}"
            )


@dataclass(frozen=True)
class FadeSpec:
    span: int
    threshold: Fraction

    def __post_init__(self):
        if self.span < 1:
            raise StatementError("fade span must be >= 1")
        if not (0 < self.threshold < 1):
            raise StatementError("fade threshold must be in (0,1)")
        object.__setattr__(self, "_lives", {})  # rate -> life, filled on use

    def life(self, rate: int) -> int:
        """Ticks a fragment fading at ``rate`` stays active: its level
        ``1 - rate*k/span`` stays at or above the threshold for ``k < life``."""
        life = self._lives.get(rate)
        if life is None:
            life = self._lives[rate] = (1 - self.threshold) * self.span // rate + 1
        return life

    def level(self, rate: int, ticks: int) -> Fraction:
        """The level after ``ticks`` ticks of fading at ``rate``: 1 less
        ``rate/span`` per tick, never below 0."""
        return Fraction(max(0, self.span - rate * ticks), self.span)


@dataclass(frozen=True)
class Statement:
    kind: DirectionalKind
    promiser: str
    promisee: str
    type_tag: str
    body: Body
    window: Optional[ValidityWindow] = None
    scope: frozenset = field(default_factory=frozenset)
    issue_time: Optional[int] = None
    observation_time: Optional[int] = None
    subject: Optional[str] = None
    identity: Optional[str] = None  # the fragment's token
    fade: Optional[FadeSpec] = None
    strength: Optional[int] = None

    def __post_init__(self):
        # ids and strength are checked where they are read: by the grammar
        # and ``_clauses`` in ``parse``, by ``scenario._Load.impose``
        if (
            self.observation_time is not None
            and self.issue_time is not None
            and self.observation_time < self.issue_time
        ):
            raise WindowOrderError(
                "observation time precedes issue time"
            )
        if self.subject is not None and self.subject not in self.recipients:
            raise ScopeMembershipError(
                f"subject {self.subject!r} outside effective scope and promisee"
            )

    @cached_property
    def adequacy(self) -> Optional[tuple]:
        """The ``(program, task)`` of an ``adequacy(P,U)`` type tag of any kind,
        else None; worked out on first use, so that ``load`` does not pay."""
        m = _ADEQUACY_RE.fullmatch(self.type_tag)
        return None if m is None else m.groups()

    @property
    def effective_scope(self) -> frozenset:
        return self.scope | {self.promiser}

    @property
    def recipients(self) -> frozenset:
        """Agents holding a fragment after issuing.  The promisee holds one
        even outside the declared scope, so that it can react."""
        return self.effective_scope | {self.promisee}


class _List(tuple):
    """A ``(pattern, what)`` step of ``token ("," token)*``; a "," that no
    token follows fails it."""


class _Quoted(tuple):
    """A ``(pattern, what)`` step of a quoted string, which fails as
    "unterminated string" when it is not closed and as "empty body string"
    when it is empty."""


class _Clause(NamedTuple):
    """An optional clause: the step ``opener`` and then ``steps`` when the
    text goes on with a match of ``opener``, else ``otherwise`` (by default
    nothing)."""

    opener: object
    steps: tuple
    otherwise: tuple = ()


def _group(name: str, what: str, pattern: str = _TOKEN) -> tuple:
    return rf"(?P<{name}>{pattern})", what


def _quoted(name: str) -> _Quoted:
    return _Quoted((rf'"(?P<{name}>[^"]+)"', repr('"')))


# The grammar of the module docstring.  A step is a ``(pattern, what)`` pair:
# text that matches ``pattern``, or else the walk reports "expected <what>".
# A plain string is a step of that literal text, and the groups name the
# parts of a statement.
_GRAMMAR = (
    _group("promiser", "promiser"),
    "[",
    _Clause("w=", (
        _group("observed", "observation time", _INT),
        ",",
        _group("subject", "subject"),
        _Clause("(", (_group("identity", "identity token"), ")")),
        _Clause(",fade(", (
            _group("span", "fade span", _INT),
            ",",
            _group("threshold", "decimal", rf"{_INT}(?:\.{_INT})?"),
            ")",
        )),
        "/",
    )),
    _Clause("u=", (_group("issued", "issue time", _INT), ",")),
    _Clause((rf"(?P<keyword>{'|'.join(_KEYWORD_KIND)})!", "kind keyword"), ()),
    _group("type", "type tag"),
    _Clause("(", (_List(_group("arguments", "type argument", _TOKENS)), ")")),
    ":",
    _Clause("(", (
        _group("start", "window start", _INT),
        ",",
        _quoted("episode"),
        _Clause("if", (_quoted("condition"),)),
        ",",
        _group("end", "window end", _INT),
        ")",
    ), otherwise=(_quoted("text"),)),
    _Clause("@", (_group("strength", "strength", _INT),)),
    _Clause("/", ("{", _List(_group("scope", "scope agent", _TOKENS)), "}")),
    "]",
    _group("promisee", "promisee"),
)


def _pattern(steps) -> str:
    """The regular expression of ``steps``."""
    parts = []
    for step in steps:
        if isinstance(step, str):
            parts.append(re.escape(step))
        elif not isinstance(step, _Clause):
            parts.append(step[0])
        else:  # with no otherwise, the empty alternative makes the clause optional
            taken = _pattern((step.opener, *step.steps))
            parts.append(f"(?:{taken}|{_pattern(step.otherwise)})")
    return "".join(parts)


_STATEMENT_RE = re.compile(_pattern(_GRAMMAR))


def _clauses(span, threshold, keyword, start, end, strength, strength_end):
    """The fade spec, kind, validity window and strength from the groups of
    their clauses (None for an absent clause), converted and checked in the
    order the grammar meets them.  ``strength_end`` is where the strength
    group ends in the text."""
    fade = window = None
    if span is not None:
        fade = FadeSpec(span=int(span), threshold=Fraction(threshold))
    kind = DirectionalKind.PROMISE if keyword is None else _KEYWORD_KIND[keyword]
    if start is not None:
        window = ValidityWindow(start=int(start), end=int(end))
    if strength is not None:
        strength = int(strength)
        if kind is not DirectionalKind.IMPOSITION:
            raise StatementSyntaxError(
                "strength clause allowed on impositions only", strength_end + 1
            )
        if not 1 <= strength <= 10:
            raise StatementSyntaxError("strength must be in 1..10", strength_end + 1)
    return fade, kind, window, strength


_CHECKED = ("span", "threshold", "keyword", "start", "end", "strength")


def parse(text: str) -> Statement:
    """Parse a single statement.  Raises StatementSyntaxError (with 1-based
    column), ScopeMembershipError, or WindowOrderError."""
    text = text.strip()
    m = _STATEMENT_RE.fullmatch(text)
    if m is None:  # the walk raises the error of the first step that fails
        found = {}
        end = _walk(text, 0, _GRAMMAR, found, found)
        raise StatementSyntaxError("trailing input after statement", end + 1)
    (
        promiser, observed, subject, identity, span, threshold, issued, keyword,
        type_tag, arguments, start, episode, condition, end, body_text, strength,
        scope, promisee,
    ) = m.groups()
    fade, kind, window, strength = _clauses(
        span, threshold, keyword, start, end, strength, m.end("strength")
    )
    return Statement(
        kind=kind,
        promiser=promiser,
        promisee=promisee,
        type_tag=type_tag if arguments is None else f"{type_tag}({arguments})",
        body=Body(text=body_text or episode, condition=condition),
        window=window,
        scope=frozenset() if scope is None else frozenset(scope.split(",")),
        issue_time=None if issued is None else int(issued),
        observation_time=None if observed is None else int(observed),
        subject=subject,
        identity=identity,
        fade=fade,
        strength=strength,
    )


def _walk(text: str, pos: int, steps, found: dict, own: dict) -> int:
    """Match ``steps`` at ``pos`` one at a time and return where they end;
    the first step that fails raises its syntax error.  Their groups go
    into ``own``, except that a clause among them collects its own groups
    and adds them to ``found`` once it matched whole; then the checks of
    ``_clauses`` run on ``found``."""
    for step in steps:
        if isinstance(step, _Clause):
            taken = re.compile(_pattern((step.opener,))).match(text, pos)
            branch = (step.opener, *step.steps) if taken else step.otherwise
            clause = {}
            pos = _walk(text, pos, branch, found, clause)
            found.update(clause)
            _clauses(*map(found.get, _CHECKED), pos)
            continue
        pattern, what = (re.escape(step), repr(step)) if isinstance(step, str) else step
        m = re.compile(pattern).match(text, pos)
        if m is None:
            if isinstance(step, _Quoted) and text.startswith('"', pos):
                close = text.find('"', pos + 1)
                if close < 0:
                    raise StatementSyntaxError("unterminated string", pos + 2)
                raise StatementSyntaxError("empty body string", close + 2)
            raise StatementSyntaxError(f"expected {what}", pos + 1)
        own.update(m.groupdict())
        pos = m.end()
        if isinstance(step, _List) and text.startswith(",", pos):
            raise StatementSyntaxError(f"expected {what}", pos + 2)
    return pos


def _fmt_fraction(x: Fraction) -> str:
    """Shortest decimal text of ``x`` to ten places; integers stay exact."""
    if x.denominator == 1:
        return str(x.numerator)
    s = f"{float(x):.10f}".rstrip("0").rstrip(".")
    return s if s else "0"


def render(s: Statement) -> str:
    """Canonical text for a statement; inverse of parse on its own output."""
    parts = [s.promiser, "["]
    if s.subject is not None:
        if s.observation_time is None:
            raise StatementError(
                "subject clause requires an observation time in concrete syntax"
            )
        parts.append(f"w={s.observation_time},{s.subject}")
        if s.identity is not None:
            parts.append(f"({s.identity})")
        if s.fade is not None:
            parts.append(f",fade({s.fade.span},{_fmt_fraction(s.fade.threshold)})")
        parts.append("/")
    elif s.observation_time is not None or s.fade is not None or s.identity is not None:
        raise StatementError(
            "observation/fade/identity clauses require a subject in concrete syntax"
        )
    if s.issue_time is not None:
        parts.append(f"u={s.issue_time},")
    if s.kind is not DirectionalKind.PROMISE:
        parts.append(_KIND_KEYWORD[s.kind] + "!")
    parts.append(s.type_tag)
    parts.append(":")
    if s.window is not None:
        cond = f'if"{s.body.condition}"' if s.body.condition is not None else ""
        parts.append(f'({s.window.start},"{s.body.text}"{cond},{s.window.end})')
    else:
        if s.body.condition is not None:
            raise StatementError(
                "body condition requires an episode window in concrete syntax"
            )
        parts.append(f'"{s.body.text}"')
    if s.strength is not None:
        parts.append(f"@{s.strength}")
    if s.scope:
        parts.append("/{" + ",".join(sorted(s.scope)) + "}")
    parts.append("]")
    parts.append(s.promisee)
    return "".join(parts)


def equivalence_key(s: Statement) -> tuple:
    """What two issuings must share to convey the same promise: keeping one
    implies keeping the other.  The body and condition count lower-cased,
    with whitespace runs collapsed and trimmed; issue and observation times,
    subject, identity, fade, and scope are irrelevant.  The key holds only
    the kind, strings, ints and None, so it hashes and compares in C."""
    body, window = s.body, s.window
    return (
        s.kind, s.promiser, s.promisee, s.type_tag, _norm_text(body.text),
        None if body.condition is None else _norm_text(body.condition),
        None if window is None else (window.start, window.end),
    )


class FragmentCounter:
    """Deterministic allocator of fragment identity tokens.

    Tokens are ``<issue_tick>-<sequence>``; the sequence is global to the
    counter so two batches never collide.
    """

    def __init__(self):
        self._seq = 0

    def fresh(self, now: int) -> str:
        token = f"{now}-{self._seq}"
        self._seq += 1
        return token
