"""The clause-by-clause statement scanner that ``statements.parse`` replaced,
kept unchanged as the reference oracle of the parser's error columns and
messages (``test_one_pattern_parse_equals_the_scanner``)."""

import re
from fractions import Fraction

from coopsim.statements import (
    Body,
    DirectionalKind,
    FadeSpec,
    FragmentIdentity,
    Statement,
    StatementSyntaxError,
    ValidityWindow,
    _KEYWORD_KIND,
)

_TOKEN_RE = re.compile(r"[A-Za-z0-9_-]+")
_INTEGER_RE = re.compile(r"[0-9]+")
_DECIMAL_RE = re.compile(r"[0-9]+(\.[0-9]+)?")


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
