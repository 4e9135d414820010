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

``parse`` takes two paths to the same result.  It first tries one compiled
pattern of the whole grammar (``_STATEMENT_RE``) and builds the statement
from its groups.  Text that the pattern does not match, or whose strength is
on a non-imposition or outside 1..10, goes to the clause-by-clause scanner
(``_scan``), the only source of ``StatementSyntaxError`` columns and
messages.  The grammar is LL(1): a clause is chosen by its first characters
(``w=``, ``u=``, ``<keyword>!``, ``(``, ``@``, ``/``), so backtracking in
the pattern finds no parse that the scanner would reject.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Optional

__all__ = [
    "DirectionalKind",
    "Body",
    "ValidityWindow",
    "FragmentIdentity",
    "FadeSpec",
    "Statement",
    "StatementError",
    "StatementSyntaxError",
    "ScopeMembershipError",
    "WindowOrderError",
    "FragmentCounter",
    "check_agent_id",
    "parse",
    "render",
    "normalize",
    "equivalence_key",
    "equivalent",
]

_TOKEN = r"[A-Za-z0-9_-]+"
_TOKEN_RE = re.compile(_TOKEN)
_INTEGER_RE = re.compile(r"\d+")
_DECIMAL_RE = re.compile(r"\d+(\.\d+)?")


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
    if not name or not _TOKEN_RE.fullmatch(name):
        raise StatementError(f"invalid agent id: {name!r}")
    return name


def _norm_text(text: str) -> str:
    return " ".join(text.lower().split())


@dataclass(frozen=True)
class Body:
    text: str
    condition: Optional[str] = None

    def __post_init__(self):
        if not self.text:
            raise StatementError("body text must be non-empty")


def normalize(body: Body) -> Body:
    """Canonical body: lower-case, whitespace runs collapsed, trimmed."""
    cond = _norm_text(body.condition) if body.condition is not None else None
    return Body(text=_norm_text(body.text), condition=cond)


@dataclass(frozen=True)
class ValidityWindow:
    start: int
    end: int

    def __post_init__(self):
        if self.start < 0:
            raise StatementError("window start must be >= 0")
        if self.start > self.end:
            raise WindowOrderError(
                f"window start {self.start} after end {self.end}"
            )


@dataclass(frozen=True)
class FragmentIdentity:
    token: str

    def __post_init__(self):
        if not self.token:
            raise StatementError("fragment identity token must be non-empty")


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
    identity: Optional[FragmentIdentity] = None
    fade: Optional[FadeSpec] = None
    strength: Optional[int] = None

    def __post_init__(self):
        check_agent_id(self.promiser)
        check_agent_id(self.promisee)
        for a in self.scope:
            check_agent_id(a)
        if self.strength is not None:
            if self.kind is not DirectionalKind.IMPOSITION:
                raise StatementError("strength applies to impositions only")
            if not 1 <= self.strength <= 10:
                raise StatementError("imposition strength must be in 1..10")
        if (
            self.observation_time is not None
            and self.issue_time is not None
            and self.observation_time < self.issue_time
        ):
            raise WindowOrderError(
                "observation time precedes issue time"
            )
        if self.subject is not None:
            check_agent_id(self.subject)
            if self.subject not in self.effective_scope | {self.promisee}:
                raise ScopeMembershipError(
                    f"subject {self.subject!r} outside effective scope and promisee"
                )

    @property
    def effective_scope(self) -> frozenset:
        return self.scope | {self.promiser}

    @property
    def recipients(self) -> frozenset:
        """Agents holding a fragment after issuing.  The promisee holds one
        even outside the declared scope, so that it can react."""
        return self.effective_scope | {self.promisee}


class _Scanner:
    """Single-statement scanner with 1-based column error reporting."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def fail(self, message: str):
        raise StatementSyntaxError(message, self.pos + 1)

    def eof(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def lookahead(self, s: str) -> bool:
        return self.text.startswith(s, self.pos)

    def expect(self, s: str):
        if not self.lookahead(s):
            self.fail(f"expected {s!r}")
        self.pos += len(s)

    def token(self, what: str = "token") -> str:
        m = _TOKEN_RE.match(self.text, self.pos)
        if not m:
            self.fail(f"expected {what}")
        self.pos = m.end()
        return m.group()

    def integer(self, what: str = "integer") -> int:
        m = _INTEGER_RE.match(self.text, self.pos)
        if not m:
            self.fail(f"expected {what}")
        self.pos = m.end()
        return int(m.group())

    def decimal(self) -> Fraction:
        m = _DECIMAL_RE.match(self.text, self.pos)
        if not m:
            self.fail("expected decimal")
        self.pos = m.end()
        return Fraction(m.group())

    def qstring(self) -> str:
        self.expect('"')
        end = self.text.find('"', self.pos)
        if end < 0:
            self.fail("unterminated string")
        s = self.text[self.pos : end]
        self.pos = end + 1
        if not s:
            self.fail("empty body string")
        return s


def _parse_type_tag(sc: _Scanner) -> str:
    base = sc.token("type tag")
    if sc.peek() == "(":
        sc.expect("(")
        args = [sc.token("type argument")]
        while sc.peek() == ",":
            sc.expect(",")
            args.append(sc.token("type argument"))
        sc.expect(")")
        return base + "(" + ",".join(args) + ")"
    return base


# The grammar of the module docstring as one pattern, for ``parse``.
_STATEMENT_RE = re.compile(
    rf"(?P<promiser>{_TOKEN})\["
    rf"(?:w=(?P<observed>\d+),(?P<subject>{_TOKEN})(?:\((?P<identity>{_TOKEN})\))?"
    rf"(?:,fade\((?P<span>\d+),(?P<threshold>\d+(?:\.\d+)?)\))?/)?"
    rf"(?:u=(?P<issued>\d+),)?"
    rf"(?:(?P<keyword>{'|'.join(_KEYWORD_KIND)})!)?"
    rf"(?P<type>{_TOKEN}(?:\({_TOKEN}(?:,{_TOKEN})*\))?):"
    rf'(?:\((?P<start>\d+),"(?P<episode>[^"]+)"(?:if"(?P<condition>[^"]+)")?,'
    rf'(?P<end>\d+)\)|"(?P<text>[^"]+)")'
    rf"(?:@(?P<strength>\d+))?"
    rf"(?:/\{{(?P<scope>{_TOKEN}(?:,{_TOKEN})*)\}})?"
    rf"\](?P<promisee>{_TOKEN})"
)


def parse(text: str) -> Statement:
    """Parse a single statement.  Raises StatementSyntaxError (with 1-based
    column), ScopeMembershipError, or WindowOrderError.

    Text the one-pattern match takes is built from its groups, in the
    scanner's order of conversions and checks; all other text, and a
    strength the scanner rejects, goes to ``_scan``."""
    text = text.strip()
    m = _STATEMENT_RE.fullmatch(text)
    if m is None:
        return _scan(text)
    (
        promiser, observed, subject, identity, span, threshold, issued, keyword,
        type_tag, start, episode, condition, end, body_text, strength, scope,
        promisee,
    ) = m.groups()
    observation_time = fade = None
    if observed is not None:
        observation_time = int(observed)
        if identity is not None:
            identity = FragmentIdentity(token=identity)
        if span is not None:
            fade = FadeSpec(span=int(span), threshold=Fraction(threshold))
    issue_time = int(issued) if issued is not None else None
    kind = DirectionalKind.PROMISE if keyword is None else _KEYWORD_KIND[keyword]
    window = None
    if body_text is None:
        window = ValidityWindow(start=int(start), end=int(end))
        body_text = episode
    body = Body(text=body_text, condition=condition)
    if strength is not None:
        strength = int(strength)
        if kind is not DirectionalKind.IMPOSITION or not 1 <= strength <= 10:
            return _scan(text)
    return Statement(
        kind=kind,
        promiser=promiser,
        promisee=promisee,
        type_tag=type_tag,
        body=body,
        window=window,
        scope=frozenset() if scope is None else frozenset(scope.split(",")),
        issue_time=issue_time,
        observation_time=observation_time,
        subject=subject,
        identity=identity,
        fade=fade,
        strength=strength,
    )


def _scan(text: str) -> Statement:
    """``parse`` clause by clause, reporting the column of a syntax error."""
    sc = _Scanner(text.strip())
    promiser = sc.token("promiser")
    sc.expect("[")

    observation_time = subject = identity = fade = None
    if sc.lookahead("w="):
        sc.expect("w=")
        observation_time = sc.integer("observation time")
        sc.expect(",")
        subject = sc.token("subject")
        if sc.peek() == "(":
            sc.expect("(")
            identity = FragmentIdentity(token=sc.token("identity token"))
            sc.expect(")")
        if sc.lookahead(",fade("):
            sc.expect(",fade(")
            span = sc.integer("fade span")
            sc.expect(",")
            threshold = sc.decimal()
            sc.expect(")")
            fade = FadeSpec(span=span, threshold=threshold)
        sc.expect("/")

    issue_time = None
    if sc.lookahead("u="):
        sc.expect("u=")
        issue_time = sc.integer("issue time")
        sc.expect(",")

    kind = DirectionalKind.PROMISE
    for keyword, k in _KEYWORD_KIND.items():
        if sc.lookahead(keyword + "!"):
            sc.expect(keyword + "!")
            kind = k
            break

    type_tag = _parse_type_tag(sc)
    sc.expect(":")

    window = None
    condition = None
    if sc.peek() == "(":
        sc.expect("(")
        start = sc.integer("window start")
        sc.expect(",")
        text_body = sc.qstring()
        if sc.lookahead("if"):
            sc.expect("if")
            condition = sc.qstring()
        sc.expect(",")
        end = sc.integer("window end")
        sc.expect(")")
        window = ValidityWindow(start=start, end=end)
    else:
        text_body = sc.qstring()
    body = Body(text=text_body, condition=condition)

    strength = None
    if sc.peek() == "@":
        sc.expect("@")
        strength = sc.integer("strength")
        if kind is not DirectionalKind.IMPOSITION:
            sc.fail("strength clause allowed on impositions only")
        if not 1 <= strength <= 10:
            sc.fail("strength must be in 1..10")

    scope: frozenset = frozenset()
    if sc.peek() == "/":
        sc.expect("/")
        sc.expect("{")
        agents = [sc.token("scope agent")]
        while sc.peek() == ",":
            sc.expect(",")
            agents.append(sc.token("scope agent"))
        sc.expect("}")
        scope = frozenset(agents)

    sc.expect("]")
    promisee = sc.token("promisee")
    if not sc.eof():
        sc.fail("trailing input after statement")

    return Statement(
        kind=kind,
        promiser=promiser,
        promisee=promisee,
        type_tag=type_tag,
        body=body,
        window=window,
        scope=scope,
        issue_time=issue_time,
        observation_time=observation_time,
        subject=subject,
        identity=identity,
        fade=fade,
        strength=strength,
    )


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
            parts.append(f"({s.identity.token})")
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
    implies keeping the other.  Times, subject, identity, fade, and scope are
    irrelevant."""
    return (s.kind, s.promiser, s.promisee, s.type_tag, normalize(s.body), s.window)


def equivalent(a: Statement, b: Statement) -> bool:
    """Two issuings convey the same promise (equal ``equivalence_key``)."""
    return equivalence_key(a) == equivalence_key(b)


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
