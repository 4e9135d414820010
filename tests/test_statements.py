import pytest
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from coopsim.agents import Action, ActionKind
from coopsim.engine import run
from coopsim.scenario import PolicyHeader, load
from coopsim.statements import (
    Body,
    DirectionalKind,
    FadeSpec,
    ScopeMembershipError,
    Statement,
    StatementError,
    StatementSyntaxError,
    ValidityWindow,
    WindowOrderError,
    code_lines,
    equivalence_key,
    parse,
    render,
)

from tests.scanner_oracle import _scan

# one fixture per syntactic layer, ground form up to the fully dressed form
FORM_FIXTURES = {
    "ground": 'p[pi:"b"]q',
    "scoped": 'p[pi:"b"/{q,r}]q',
    "episode": 'p[pi:(5,"b",8)]q',
    "issuing": 'p[u=3,pi:(5,"b",8)]q',
    "observation": 'p[w=9,q/u=3,pi:(5,"b",8)]q',
    "fragmentation": 'p[w=9,q/pi:"b"]q',
    "identification": 'p[w=9,q(k1)/pi:"b"]q',
    "binding": 'p[w=9,q(x)/pi:"b"]q',
    "fading": 'p[w=9,q,fade(100,0.05)/pi:"b"]q',
    "full": 'p[w=9,q(k1),fade(100,0.05)/u=3,pi:(5,"b",8)/{p,q}]q',
}


@pytest.mark.parametrize("name", sorted(FORM_FIXTURES))
def test_form_fixture_roundtrip(name):
    text = FORM_FIXTURES[name]
    assert render(parse(text)) == text
    assert parse(render(parse(text))) == parse(text)


def test_ground_form_fields():
    s = parse('p[pi:"b"]q')
    assert s.kind is DirectionalKind.PROMISE
    assert (s.promiser, s.promisee, s.type_tag) == ("p", "q", "pi")
    assert s.body == Body("b")
    assert s.scope == frozenset()
    assert s.strength is None


@pytest.mark.parametrize(
    "keyword,kind",
    [
        ("impose", DirectionalKind.IMPOSITION),
        ("suggest", DirectionalKind.SUGGESTION),
        ("warn", DirectionalKind.WARNING),
        ("propose", DirectionalKind.PROPOSAL),
        ("predict", DirectionalKind.PREDICTION),
    ],
)
def test_kind_keywords(keyword, kind):
    text = f'p[{keyword}!pi:"b"]q'
    s = parse(text)
    assert s.kind is kind
    assert render(s) == text


def test_promise_keyword_is_not_canonical():
    s = parse('p[promise!pi:"b"]q')
    assert s.kind is DirectionalKind.PROMISE
    assert render(s) == 'p[pi:"b"]q'


def test_conditional_episode_roundtrip():
    text = 'p[pi:(5,"b"if"c",8)]q'
    s = parse(text)
    assert s.body.condition == "c"
    assert s.window == ValidityWindow(5, 8)
    assert render(s) == text


def test_parenthesized_type_tag():
    s = parse('p[adequacy(P,U):"b"]q')
    assert s.type_tag == "adequacy(P,U)"


def test_strength_on_imposition_only():
    s = parse('s[impose!perform(U):"do u"@6]q')
    assert s.strength == 6
    with pytest.raises(StatementSyntaxError):
        parse('p[pi:"b"@6]q')
    with pytest.raises(StatementSyntaxError):
        parse('s[impose!pi:"b"@11]q')


def test_syntax_error_reports_column():
    with pytest.raises(StatementSyntaxError) as exc:
        parse('p[pi "b"]q')
    assert exc.value.column == 5


def test_empty_body_rejected():
    with pytest.raises(StatementSyntaxError):
        parse('p[pi:""]q')


def test_trailing_input_rejected():
    with pytest.raises(StatementSyntaxError):
        parse('p[pi:"b"]q extra')


def test_window_order_violation():
    with pytest.raises(WindowOrderError):
        parse('p[pi:(9,"b",5)]q')


def test_observation_before_issue_rejected():
    with pytest.raises(WindowOrderError):
        parse('p[w=2,q/u=5,pi:"b"]q')


def test_subject_outside_scope_rejected():
    with pytest.raises(ScopeMembershipError):
        parse('p[w=9,z/pi:"b"]q')


def test_subject_may_be_promiser_or_promisee():
    assert parse('p[w=9,p/pi:"b"]q').subject == "p"
    assert parse('p[w=9,q/pi:"b"]q').subject == "q"


def test_statement_built_directly_is_checked():
    """``Statement(...)`` runs the two checks ``parse`` runs on a ``w=``
    clause, with the same errors in the same order."""
    head = (DirectionalKind.PROMISE, "p", "q", "pi", Body("b"))
    with pytest.raises(WindowOrderError, match="^observation time precedes issue time$"):
        Statement(*head, issue_time=5, observation_time=2, subject="z")
    with pytest.raises(ScopeMembershipError, match="^subject 'z' outside effective"):
        Statement(*head, None, frozenset({"r"}), None, 9, "z")
    with pytest.raises(WindowOrderError):
        parse('p[w=2,z/u=5,pi:"b"]q')
    assert Statement(*head, observation_time=9, subject="q") == parse('p[w=9,q/pi:"b"]q')


_FULL = parse(FORM_FIXTURES["full"])


@pytest.mark.parametrize(
    "record,name",
    [
        (_FULL, "subject"),
        (_FULL, "adequacy"),
        (_FULL, "other"),
        (_FULL.body, "text"),
        (_FULL.body, "other"),
        (Action(ActionKind.USE, task="U", program="P"), "program"),
        (Action(ActionKind.USE, task="U", program="P"), "other"),
    ],
)
def test_statement_body_and_action_are_immutable(record, name):
    with pytest.raises(AttributeError):
        setattr(record, name, "x")


def test_equal_statements_hash_equal():
    built = Statement(**_FULL._asdict())
    again = parse(FORM_FIXTURES["full"])
    assert built is not _FULL and again is not _FULL
    assert built == _FULL == again
    assert hash(built) == hash(_FULL) == hash(again)
    assert len({built, _FULL, again}) == 1


def test_fade_spec_validation():
    with pytest.raises(StatementError):
        FadeSpec(span=0, threshold=Fraction(1, 20))
    with pytest.raises(StatementError):
        FadeSpec(span=10, threshold=Fraction(0))


def test_normalize_and_equivalence():
    """The key holds the body and condition lower-cased, with whitespace
    runs collapsed and trimmed, and holds only plain values: the kind,
    strings, ints and None."""
    a = parse('p[pi:"Keep  The   Promise"]q')
    b = parse('p[pi:"keep the promise"/{r}]q')
    key = (DirectionalKind.PROMISE, "p", "q", "pi", "keep the promise", None, None)
    assert equivalence_key(a) == key
    assert equivalence_key(a) == equivalence_key(b)  # scope is irrelevant
    windowed = parse('p[u=2,pi:(5," Keep\tIt "if"  Rain  Falls",8)]q')
    assert equivalence_key(windowed) == (
        DirectionalKind.PROMISE, "p", "q", "pi", "keep it", "rain falls", (5, 8)
    )
    c = parse('p[pi:"keep another promise"]q')
    assert equivalence_key(a) != equivalence_key(c)
    d = parse('q[pi:"keep the promise"]p')
    assert equivalence_key(a) != equivalence_key(d)


def test_fragment_on_issue_layout():
    result = run(load('tick 7\nissue p[pi:"b"/{q,r}]q\n'))
    frags = [rec for state in result.agents.values() for rec in state.fragments]
    assert sorted(f.subjects for f in frags) == [["p"], ["q"], ["r"]]
    assert len({f.token for f in frags}) == 1
    assert all(f.shown_at == 7 for f in frags)
    assert all(f.fade == PolicyHeader().default_fade for f in frags)


def test_fragment_tokens_never_collide():
    """The same statement issued twice in one tick gets two tokens (the
    second issue refreshes the held record rather than adding one)."""
    result = run(load('tick 3\nissue p[pi:"b"]q\nissue p[pi:"b"]q\n'))
    issued = [line.split("token=")[1] for line in result.trace if " issue " in line]
    assert issued == ["3-0", "3-1"]


def test_render_requires_observation_with_subject():
    text = 'p[w=2,p(2-0),fade(100,0.05)/u=2,pi:"b"]q'  # p's fragment of 2-0
    frag = parse(text)
    assert render(frag) == text
    assert parse(render(frag)) == frag


@pytest.mark.parametrize(
    "fields,message",
    [
        ({"subject": "q"}, "subject clause requires an observation time"),
        ({"observation_time": 2}, "observation/fade/identity clauses require a subject"),
        ({"fade": FadeSpec(100, Fraction(1, 20))}, "clauses require a subject"),
        ({"identity": "2-0"}, "clauses require a subject"),
        ({"body": Body("b", condition="c")}, "condition requires an episode window"),
        (
            {"subject": "q", "observation_time": 2, "fade": FadeSpec(9, Fraction(1, 3))},
            "fade threshold needs a finite decimal",
        ),
    ],
    ids=["subject", "observation", "fade", "identity", "condition", "threshold"],
)
def test_render_rejects_what_the_concrete_syntax_cannot_write(fields, message):
    with pytest.raises(StatementError, match=message):
        render(parse('p[pi:"b"]q')._replace(**fields))


@pytest.mark.parametrize(
    "threshold,canonical",
    [
        ("0.00000000004", "0.00000000004"),
        ("0.99999999999", "0.99999999999"),
        ("0.12345678901", "0.12345678901"),
        ("0.50", "0.5"),
    ],
)
def test_render_writes_a_fade_threshold_exactly(threshold, canonical):
    """Past the trace's ten places too: a threshold renders as the shortest
    decimal that parses back to it."""
    text = f'p[w=1,q,fade(100,{threshold})/pi:"b"]q'
    assert render(parse(text)) == f'p[w=1,q,fade(100,{canonical})/pi:"b"]q'


_agent = st.from_regex(r"[a-z][a-z0-9_]{0,5}", fullmatch=True)
_text = st.text(
    alphabet=st.characters(
        codec="ascii", min_codepoint=32, max_codepoint=126, exclude_characters='"'
    ),
    min_size=1,
    max_size=20,
)


@st.composite
def statements(draw):
    kind = draw(st.sampled_from(list(DirectionalKind)))
    promiser = draw(_agent)
    promisee = draw(_agent)
    scope = frozenset(draw(st.sets(_agent, max_size=3)))
    window = None
    condition = None
    if draw(st.booleans()):
        start = draw(st.integers(0, 50))
        window = ValidityWindow(start, start + draw(st.integers(0, 50)))
        if draw(st.booleans()):
            condition = draw(_text)
    strength = (
        draw(st.integers(1, 10))
        if kind is DirectionalKind.IMPOSITION and draw(st.booleans())
        else None
    )
    issue_time = draw(st.none() | st.integers(0, 100))
    subject = None
    observation_time = None
    identity = None
    fade = None
    if draw(st.booleans()):
        subject = draw(
            st.sampled_from(sorted(scope | {promiser, promisee}))
        )
        low = issue_time if issue_time is not None else 0
        observation_time = draw(st.integers(low, low + 100))
        if draw(st.booleans()):
            identity = draw(_agent)
        if draw(st.booleans()):  # a threshold of 1 to 20 decimal places
            places = 10 ** draw(st.integers(1, 20))
            fade = FadeSpec(
                span=draw(st.integers(1, 1000)),
                threshold=Fraction(draw(st.integers(1, places - 1)), places),
            )
    return Statement(
        kind=kind,
        promiser=promiser,
        promisee=promisee,
        type_tag=draw(_agent),
        body=Body(text=draw(_text), condition=condition),
        window=window,
        scope=scope,
        issue_time=issue_time,
        observation_time=observation_time,
        subject=subject,
        identity=identity,
        fade=fade,
        strength=strength,
    )


@settings(max_examples=300, deadline=None)
@given(statements())
def test_parse_inverts_render(s):
    """For a statement built by keyword and for the one ``parse`` builds
    from its text alike."""
    parsed = parse(render(s))
    assert parsed == s and hash(parsed) == hash(s)
    assert parse(render(parsed)) == parsed


# Edits that reach every clause: punctuation of the grammar, digits and the
# openers of optional clauses, besides strength clauses "@0" to "@12".
_PIECES = (
    list('[]{}()/,:"!@=.')
    + list("0123456789")
    + ["impose!", "suggest!", "promise!", "warn", "w=", "u=", "if", 'if"c"']
    + ["fade(", ",fade(3,0.5)", "/{p}", "adequacy(a,b)"]
)


@st.composite
def rendered_and_mutated(draw):
    """The rendering of a drawn statement, and that text after one to three
    edits: insert, delete or replace, at a random place or where clauses
    meet."""
    rendered = text = render(draw(statements()))
    for _ in range(draw(st.integers(1, 3))):
        # clauses start after "[", after a closing '"' or ")", and at "]"
        seams = [i + 1 for i, c in enumerate(text) if c in '[")'] + [text.rfind("]")]
        pos = draw(st.sampled_from(seams) | st.integers(0, len(text)))
        piece = draw(st.sampled_from(_PIECES) | st.integers(0, 12).map("@{}".format))
        op = draw(st.sampled_from(["insert", "delete", "replace"]))
        if op == "insert":
            text = text[:pos] + piece + text[pos:]
        elif op == "delete":
            text = text[:pos] + text[pos + 1 :]
        else:
            text = text[:pos] + piece + text[pos + 1 :]
    return rendered, text


def _outcome(parser, text):
    try:
        return parser(text)
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(rendered_and_mutated())
@example(('p[pi:"b"]q', 'p[suggest!pi:"b"@5]q'))  # refused: not an imposition
@example(('s[impose!pi:"b"/{q}]q', 's[impose!pi:"b"@11/{q}]q'))  # refused: > 10
@example(('p[w=3,q/pi:"b"]q', 'p[w=\u0663,q/pi:"b"]q'))  # refused: not ASCII
def test_one_pattern_parse_equals_the_scanner(texts):
    """``parse`` (its pattern on valid text, its walk of the grammar table
    on the rest) gives the reference scanner's statement, or its exception
    type and message, column included."""
    for text in texts:
        assert _outcome(parse, text) == _outcome(_scan, text)


def test_int_clauses_take_ascii_digits_only():
    """``\\d`` would take "٣" (ARABIC-INDIC DIGIT THREE) and render it as 3."""
    with pytest.raises(StatementSyntaxError, match="column 5: expected observation time"):
        parse('p[w=\u0663,q/pi:"b"]q')
    assert render(parse('p[w=3,q/pi:"b"]q')) == 'p[w=3,q/pi:"b"]q'


def test_code_lines_break_at_newlines_only():
    """"\\n", "\\r\\n" and "\\r" end a line, as ``open()`` reads one; the
    other characters ``str.splitlines`` breaks at stay in their line."""
    others = "\v\f\x1c\x1d\x1e\x85\u2028\u2029"
    text = f"a # {others}\r\nb{others}c\rd\n\ne # x\fy\n"
    assert list(code_lines(text)) == [(1, "a"), (2, f"b{others}c"), (3, "d"), (5, "e")]
