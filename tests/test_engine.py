from fractions import Fraction
from pathlib import Path

import pytest

from coopsim import cli, engine, statements
from coopsim.engine import run
from coopsim.scenario import (
    InterleavingStrategy,
    PolicyHeader,
    ScenarioError,
    load,
    load_path,
)
from coopsim.appraisal import ConsultantProfile
from coopsim.lifecycle import LifecycleState
from coopsim.trust import PTRUST, TramPolicy

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def run_file(name, **overrides):
    return run(load_path(SCENARIOS / name), **overrides)


def actions(result):
    out = []
    for line in result.trace:
        fields = dict(f.split("=", 1) for f in line.split() if "=" in f)
        if "action" in fields:
            out.append((fields["agent"], fields["action"], fields.get("detail", "")))
    return out


def trust_levels(result, subject, target):
    levels = []
    for line in result.trace:
        fields = dict(f.split("=", 1) for f in line.split() if "=" in f)
        if (
            "trust" in line.split()
            and fields.get("subject") == subject
            and fields.get("target") == target
        ):
            levels.append(int(fields["level"]))
    return levels


def test_load_rejects_unknown_directive():
    with pytest.raises(ScenarioError):
        load("tick 1\nfrobnicate a b\n")


def test_load_rejects_event_before_first_tick():
    with pytest.raises(ScenarioError):
        load("impose s q task=U\n")


def test_load_rejects_non_monotone_ticks():
    with pytest.raises(ScenarioError):
        load("tick 2\ntick 1\n")


def test_load_rejects_bad_statement_with_line_number():
    with pytest.raises(ScenarioError) as exc:
        load("tick 1\nissue p[broken\n")
    assert exc.value.line == 2


@pytest.mark.parametrize(
    "lines",
    [
        "tick 1\nimpose s q task=U strength=x",
        "tick 1\nimpose s q task=U strength=99",
        "tick 1\nsurvey w group=a,b about=p window=x",
        "tick 1\nsurvey w group= about=p",
        "tick 1\nsurvey w group=a,,b about=p",
        "attr program-quality program=P = 1\nattr bogus program=P = 1",
        "policy gate=0.5\npolicy gate=2",
        "tick 1\nsurvey s group=a about=",
        "tick 1\nlor-request q p about=",
        "trust q r = 0\ntrust q p task= = 1",
        "trust q r = 0\ntrust q p program= = 1",
        "trust q r = 0\ntrust q p foo=bar = 1",
        "profile q independent=no\nprofile p independent=maybe",
        "attr program-quality program=P = 1\nattr program-quality agent=P = 1",
        "attr program-quality program=P = 1\nattr program-quality task= = 1",
        "tick 1\nsurvey w group=a,b about=p bogus=1",
        "trust q r = 0\ntrust q p! = 1",
        "tick 1\nlor-request q! p about=r",
        "tick 1\nsurvey w group=a,b! about=p",
        "tick 1\nsurvey w group=a about=p/",
        "tick 1\noutcome q! program=P task=U result=success",
        "tick 1\nwithdraw p@ token=1-0",
        "tick 1\nreply s q. proceed",
        "profile q\nprofile p% independent=true",
        "tick 1\nsurvey w group=a,a,b about=p",
        "tick 1\nimpose s q task=",
        "tick 1\nimpose s q task=U(x",
        "tick 1\noutcome q program= task=U result=success",
        "tick 1\noutcome q program=P task= result=success",
        "tick 1\nwithdraw p token=",
        "tick 1\nsurvey w group=a,b about=p window=-3",
        "policy gate=0.5\npolicy recent-window=-4",
        'tick 1\nissue p[w=1,q/pi:"b"]q',
        'tick 1\nissue p[u=1,pi:"b"]q',
        'tick 1\nissue p[pi:(1,"b",3)]q',
        'tick 1\nissue p[pi:(1,"b"if"c",3)]q',
    ],
    ids=[
        "strength-not-int",
        "strength-out-of-range",
        "window-not-int",
        "empty-group",
        "empty-group-member",
        "unknown-attribute",
        "gate-out-of-range",
        "empty-survey-about",
        "empty-lor-about",
        "empty-trust-task",
        "empty-trust-program",
        "unknown-trust-qualifier",
        "profile-not-boolean",
        "attr-unknown-entity-kind",
        "attr-empty-entity",
        "survey-unknown-setting",
        "bad-id-trust",
        "bad-id-lor",
        "bad-id-survey-member",
        "bad-id-survey-about",
        "bad-id-outcome",
        "bad-id-withdraw",
        "bad-id-reply",
        "bad-id-profile",
        "survey-repeated-member",
        "empty-impose-task",
        "impose-task-not-token",
        "empty-outcome-program",
        "empty-outcome-task",
        "empty-withdraw-token",
        "negative-survey-window",
        "negative-recent-window",
        "issue-subject",
        "issue-time",
        "issue-window",
        "issue-window-condition",
    ],
)
def test_load_fails_closed_with_line_number(lines, tmp_path):
    text = f"trust q p = 1\n{lines}\n"  # the last line is the bad one
    with pytest.raises(ScenarioError) as exc:
        load(text)
    assert exc.value.line == 3
    bad = tmp_path / "bad.coop"
    bad.write_text(text)
    with pytest.raises(SystemExit) as exit_:
        cli.main(["run", str(bad)])
    assert exit_.value.code == 2


# One case per ``raise ScenarioError`` in engine.py: (id, the lines after a
# leading comment line, the line load() names, its exact message).
LOAD_MESSAGES = [
    ("profile-not-boolean", "profile p independent=maybe", 2, "expected boolean, got 'maybe'"),
    ("tick-not-int", "tick x", 2, "expected tick, got 'x'"),
    ("level-not-int", "trust q p = x", 2, "expected trust level, got 'x'"),
    ("survey-window-not-int", "tick 1\nsurvey w group=a,b about=p window=x", 3,
     "expected window, got 'x'"),
    ("level-out-of-range", "trust q p = 3", 2, "level 3 outside [-2,2]"),
    ("policy-malformed", "policy tram", 2, "malformed policy setting 'tram'"),
    ("policy-gate-range", "policy gate=2", 2, "gate 2 outside [0,1]"),
    ("policy-negative-recent-window", "policy recent-window=-1", 2,
     "negative recent-window -1"),
    ("policy-unknown-setting", "policy seed=0", 2, "unknown policy setting 'seed'"),
    ("policy-bad-value", "policy fade-span=0", 2, "bad policy value 'fade-span=0'"),
    ("policy-tram-recency", "policy tram=recency", 2, "bad policy value 'tram=recency'"),
    ("tick-arity", "tick 1 2", 2, "tick takes one argument"),
    ("tick-not-after", "tick 2\ntick 2", 3, "tick 2 not after previous tick 2"),
    ("tick-negative", "tick -1", 2, "negative tick -1"),
    ("event-before-tick", "impose s q task=U", 2,
     "directive 'impose' not allowed before the first tick"),
    ("unknown-before-tick", "frobnicate a b", 2,
     "directive 'frobnicate' not allowed before the first tick"),
    ("unknown-directive", "tick 1\nfrobnicate a b", 3, "unknown directive 'frobnicate'"),
    ("policy-after-tick", "tick 1\npolicy gate=0.5", 3, "unknown directive 'policy'"),
    ("attr-after-tick", "tick 1\nattr program-quality program=P = 1", 3,
     "unknown directive 'attr'"),
    ("bad-agent-id", "trust q p! = 1", 2, "invalid agent id: 'p!'"),
    ("bad-statement", 'tick 1\nissue p[pi "b"]q', 3, "bad statement: column 5: expected ':'"),
    ("issue-subject", 'tick 1\nissue p[w=1,q/pi:"b"]q', 3,
     "issued statements may not carry a subject"),
    ("issue-time", 'tick 1\nissue p[u=1,pi:"b"]q', 3, "issued statements may not carry u="),
    ("issue-window", 'tick 1\nissue p[pi:(1,"b",3)]q', 3,
     "issued statements may not carry a validity window"),
    ("trust-arity", "trust q p 1", 2, "malformed trust directive"),
    ("trust-qualifier", "expect-trust q p foo=bar = 1", 2, "malformed expect-trust directive"),
    ("trust-empty-qualifier", "trust q p task= = 1", 2, "empty task= value"),
    ("attr-usage", "attr program-quality program=P 1", 2,
     "usage: attr <name> <entity>=<id> = <level>"),
    ("attr-unknown", "attr bogus program=P = 1", 2, "unknown attribute 'bogus'"),
    ("attr-level-out-of-range", "attr program-quality program=P = 3", 2,
     "level 3 outside [-2,2]"),
    ("attr-entity-kind", "attr program-quality agent=P = 1", 2,
     "attr entity must be program= or task="),
    ("attr-empty-entity", "attr program-quality task= = 1", 2, "empty task= value"),
    ("profile-no-agent", "profile", 2, "profile requires an agent"),
    ("profile-malformed-setting", "profile p independent", 2,
     "malformed profile setting 'independent'"),
    ("profile-unknown-setting", "profile p bogus=1", 2, "unknown profile setting 'bogus'"),
    ("impose-usage", "tick 1\nimpose s q U", 3,
     "usage: impose <from> <to> task=<T> [strength=<1..10>]"),
    ("impose-malformed", "tick 1\nimpose s q task=U strength=2 extra", 3,
     "malformed impose directive"),
    ("impose-empty-task", "tick 1\nimpose s q task=", 3, "empty task= value"),
    ("impose-task-not-token", "tick 1\nimpose s q task=U(x", 3,
     "bad imposition: invalid task: 'U(x'"),
    ("impose-bad-id", "tick 1\nimpose s! q task=U", 3, "bad imposition: invalid agent id: 's!'"),
    ("impose-strength-range", "tick 1\nimpose s q task=U strength=11", 3,
     "bad imposition: imposition strength must be in 1..10"),
    ("impose-bad-target", "tick 1\nimpose s q! task=U", 3,
     "bad imposition: invalid agent id: 'q!'"),
    # the task is named before the ids, and the ids before the strength
    ("impose-task-before-ids", "tick 1\nimpose s! q task=U(x", 3,
     "bad imposition: invalid task: 'U(x'"),
    ("impose-ids-before-strength", "tick 1\nimpose s! q task=U strength=11", 3,
     "bad imposition: invalid agent id: 's!'"),
    ("impose-strength-zero", "tick 1\nimpose s q task=U strength=0", 3,
     "bad imposition: imposition strength must be in 1..10"),
    ("outcome-usage", "tick 1\noutcome q program=P task=U", 3,
     "usage: outcome <agent> program=<P> task=<T> result=success|failure"),
    ("outcome-bad-result", "tick 1\noutcome q program=P task=U result=maybe", 3,
     "bad result 'maybe'"),
    ("outcome-empty-value", "tick 1\noutcome q program= task=U result=success", 3,
     "empty program= value"),
    ("withdraw-usage", "tick 1\nwithdraw p 1-0", 3, "usage: withdraw <promiser> token=<id>"),
    ("withdraw-empty-token", "tick 1\nwithdraw p token=", 3, "empty token= value"),
    ("lor-usage", "tick 1\nlor-request q p r", 3,
     "usage: lor-request <asker> <peer> about=<target>"),
    ("survey-usage", "tick 1\nsurvey w group=a,b", 3,
     "usage: survey <surveyor> group=<a,b> about=<target> [window=<n>]"),
    ("survey-empty-member", "tick 1\nsurvey w group=a,,b about=p", 3,
     "survey group has an empty member"),
    ("survey-repeated-member", "tick 1\nsurvey w group=a,a about=p", 3,
     "survey group repeats a member"),
    ("survey-negative-window", "tick 1\nsurvey w group=a,b about=p window=-3", 3,
     "negative window -3"),
    ("reply-usage", "tick 1\nreply s q maybe", 3, "usage: reply <from> <to> proceed|withdraw"),
    ("trust-task-not-token", "trust q p task=U(x = 2", 2, "invalid task: 'U(x'"),
    ("expect-trust-program-not-token", "expect-trust q p program=P; = 0", 2,
     "invalid program: 'P;'"),
    ("outcome-program-not-token", "tick 1\noutcome q program=P( task=U result=success", 3,
     "invalid program: 'P('"),
    ("outcome-task-not-token", "tick 1\noutcome q program=P task=U! result=failure", 3,
     "invalid task: 'U!'"),
    ("attr-entity-not-token", "attr program-quality program=P/Q = 1", 2,
     "invalid program: 'P/Q'"),
    ("withdraw-token-not-token", "tick 1\nwithdraw p token=a,agent=q", 3,
     "invalid token: 'a,agent=q'"),
]

# Every scenario integer and decimal is ASCII: int() and Fraction() would
# read "٣" (ARABIC-INDIC DIGIT THREE) as 3.
NON_ASCII_NUMBERS = [
    ("tick", "tick \u0663", 2, "expected tick, got '\u0663'"),
    ("trust-level", "trust q p = \u0661", 2, "expected trust level, got '\u0661'"),
    ("attr-level", "attr program-quality program=P = \u0661", 2,
     "expected trust level, got '\u0661'"),
    ("survey-window", "tick 1\nsurvey w group=a,b about=p window=\u0663", 3,
     "expected window, got '\u0663'"),
    ("impose-strength", "tick 1\nimpose s q task=U strength=\u0663", 3,
     "expected strength, got '\u0663'"),
    ("fade-span", "policy fade-span=\u0663", 2, "bad policy value 'fade-span=\u0663'"),
    ("recent-window", "policy recent-window=\uff13", 2,
     "bad policy value 'recent-window=\uff13'"),
    ("gate", "policy gate=0.\u0665", 2, "bad policy value 'gate=0.\u0665'"),
    ("fade-threshold", "policy fade-threshold=0.\u0665", 2,
     "bad policy value 'fade-threshold=0.\u0665'"),
]
LOAD_MESSAGES += [("non-ascii-" + case[0], *case[1:]) for case in NON_ASCII_NUMBERS]

# Python literal forms that int() and Fraction() read but the scenario
# grammar does not: integers are -?[0-9]+, decimals [0-9]+(.[0-9]+|/[0-9]+)?.
PYTHON_LITERAL_NUMBERS = [
    ("tick-underscore", "tick 1_0", 2, "expected tick, got '1_0'"),
    ("tick-plus", "tick +3", 2, "expected tick, got '+3'"),
    ("trust-level-plus", "trust q p = +1", 2, "expected trust level, got '+1'"),
    ("attr-level-plus", "attr program-quality program=P = +1", 2,
     "expected trust level, got '+1'"),
    ("gate-exponent", "policy gate=1e-1", 2, "bad policy value 'gate=1e-1'"),
    ("gate-leading-point", "policy gate=.5", 2, "bad policy value 'gate=.5'"),
    ("fade-threshold-underscore", "policy fade-threshold=0.0_5", 2,
     "bad policy value 'fade-threshold=0.0_5'"),
    ("fade-span-underscore", "policy fade-span=1_0", 2,
     "bad policy value 'fade-span=1_0'"),
    ("recent-window-plus", "policy recent-window=+5", 2,
     "bad policy value 'recent-window=+5'"),
    ("survey-window-underscore", "tick 1\nsurvey w group=a,b about=p window=0_5", 3,
     "expected window, got '0_5'"),
    ("impose-strength-plus", "tick 1\nimpose s q task=U strength=+3", 3,
     "expected strength, got '+3'"),
]
LOAD_MESSAGES += [("literal-" + case[0], *case[1:]) for case in PYTHON_LITERAL_NUMBERS]


@pytest.mark.parametrize(
    "lines,line,message", [case[1:] for case in PYTHON_LITERAL_NUMBERS],
    ids=[case[0] for case in PYTHON_LITERAL_NUMBERS],
)
def test_python_literal_number_exits_2(lines, line, message, tmp_path, capsys):
    bad = tmp_path / "bad.coop"
    bad.write_text(f"# pinned\n{lines}\n")
    with pytest.raises(SystemExit) as exit_:
        cli.main(["check", str(bad)])
    assert exit_.value.code == 2
    assert capsys.readouterr().err == f"coopsim: {bad}: line {line}: {message}\n"


def test_scenario_numbers_in_grammar_form_load():
    scenario = load(
        "policy gate=1/20 fade-span=007 fade-threshold=0.25 recent-window=0\n"
        "trust q p = -2\n"
        "tick 0\n"
        "survey w group=a,b about=p window=10\n"
        "impose s q task=U strength=10\n"
    )
    assert scenario.header.gate_floor == Fraction(1, 20)
    assert (scenario.header.fade_span, scenario.header.recent_window) == (7, 0)
    assert scenario.header.fade_threshold == Fraction(1, 4)
    assert scenario.initial[0].args[-1] == -2
    assert [d.args[-1] for d in scenario.events] == [10, "U"]
    assert scenario.events[1].statement.strength == 10


@pytest.mark.parametrize(
    "lines,line,message", [case[1:] for case in LOAD_MESSAGES],
    ids=[case[0] for case in LOAD_MESSAGES],
)
def test_load_message_is_pinned(lines, line, message):
    with pytest.raises(ScenarioError) as exc:
        load(f"# pinned\n{lines}\n")
    assert exc.value.line == line
    assert str(exc.value) == f"line {line}: {message}"


@pytest.mark.parametrize(
    "line,body",
    [
        ('issue p[pi:"task #1"]q', "task #1"),
        ('issue p[pi:"task #1"]q  # a comment with a "quote"', "task #1"),
        ('issue p[pi:"a"]q # "#" in a comment', "a"),
    ],
    ids=["in-body", "body-and-comment", "comment-only"],
)
def test_hash_starts_a_comment_only_outside_a_quoted_string(line, body):
    result = run(load(f"tick 1\n{line}\n"))
    assert [rec.statement.body.text for rec in result.agents["q"].fragments] == [body]
    # load reads the body as ``parse`` reads the statement alone
    assert statements.parse(line[len("issue ") : line.index("]q") + 2]).body.text == body


def test_policy_parsing():
    scenario = load(
        "policy tram=recency-history gate=0.75 interleave=round-robin\n"
    )
    assert scenario.header.tram is TramPolicy.RECENCY
    assert scenario.header.interleave is InterleavingStrategy.ROUND_ROBIN
    for bad in ("warp=1", "fade-span=0", "fade-threshold=3", "seed=0"):
        with pytest.raises(ScenarioError) as exc:
            load(f"# header\npolicy {bad}\n")
        assert exc.value.line == 2


def test_attr_and_profile_lines_set_the_header():
    """``attr`` and ``profile`` lines set the header as the scenario loads
    and make no directive; a run with overrides keeps both maps."""
    scenario = load(
        "attr provider-size program=R = -2\n"
        "attr program-size program=R = 2\n"
        "profile p independent=false\n"
        "trust q b = 2\n"
        "expect-trust q b = 2\n"
        "tick 1\n"
        'issue b[adequacy(R,U):"r is adequate for task u"]q\n'
        'issue p[pi:"b"]q\n'
    )
    assert [d.name for d in scenario.initial] == ["trust", "expect-trust"]
    assert scenario.header.attrs == {
        ("program", "R"): {"provider-size": -2, "program-size": 2}
    }
    assert scenario.header.profiles == {"p": ConsultantProfile(independent=False)}
    result = run(scenario, tram=TramPolicy.RECENCY)
    assert actions(result) == [("q", "refuse-install", "program=R,task=U")]
    assert "t=1 lifecycle token=1-1 subject=q state=active fade=1 rate=4" in result.trace


def test_thread1_actions_and_trust():
    result = run_file("thread1.coop")
    assert [e.passed for e in result.expects] == [True, True]
    acted = [(a, d) for _, a, d in actions(result)]
    assert acted == [
        ("prepare", "program=P,task=U"),
        ("use", "program=P,task=U"),
        ("refuse-install", "program=Q,task=V"),
    ]
    assert trust_levels(result, "q", "p") == [1, 0]


def test_run_is_deterministic():
    first = run_file("thread3.coop").trace_text()
    assert all(
        run_file("thread3.coop").trace_text() == first for _ in range(3)
    )


def test_overrides_replace_header_fields():
    result = run_file("thread1.coop", tram=TramPolicy.RECENCY)
    # recency: the single broken experience yields -1 instead of 0
    assert trust_levels(result, "q", "p") == [1, -1]


def test_run_sets_no_header_field_but_tram_and_interleave():
    """Every other header field is read by ``load``, which checks it; ``run``
    has no way to set one past that check."""
    scenario = load_path(SCENARIOS / "thread1.coop")
    with pytest.raises(TypeError):
        run(scenario, gate_floor=Fraction(3, 2))
    with pytest.raises(TypeError):
        run(scenario, TramPolicy.RECENCY)  # keyword-only


def test_reissue_refreshes_instead_of_duplicating():
    text = (
        "policy fade-span=10 fade-threshold=0.5\n"
        "trust q p = 1\n"
        "tick 1\n"
        'issue p[adequacy(P,U):"p is adequate for task u"]q\n'
        "tick 4\n"
        'issue p[adequacy(P,U):"p is adequate for task u"]q\n'
    )
    result = run(load(text))
    q_records = result.agents["q"].fragments
    assert len(q_records) == 1
    assert q_records[0].fade_level == 1
    refresh_lines = [
        line for line in result.trace if "lifecycle" in line and "t=4" in line
    ]
    assert any("state=active fade=1" in line for line in refresh_lines)


@pytest.mark.parametrize(
    "reissue,refreshed",
    [
        ('p[pi:"Keep  The   Promise"]q', True),  # case and whitespace
        ('p[pi:"keep the promise"/{r}]q', True),  # scope
        ('p[pi:"keep another promise"]q', False),  # body
    ],
    ids=["case-whitespace", "scope", "other-body"],
)
def test_reissue_refreshes_by_equivalence_key_alone(reissue, refreshed):
    """The engine finds the record to refresh by an equal equivalence key:
    case, whitespace and scope do not matter, the body does."""
    text = (
        "policy fade-span=10 fade-threshold=0.5\n"
        "tick 1\n"
        'issue p[pi:"keep the promise"]q\n'
        f"tick 4\nissue {reissue}\n"
    )
    result = run(load(text))
    tokens = sorted(rec.token for rec in result.agents["q"].fragments)
    assert tokens == (["1-0"] if refreshed else ["1-0", "4-1"])
    assert any(
        line.startswith("t=4 lifecycle token=1-0 subject=q state=active fade=1 ")
        for line in result.trace
    ) is refreshed


def test_whitespace_only_body_runs_and_its_reissue_refreshes():
    """The grammar allows any non-empty quoted body, spaces alone too, and
    delivery checks nothing again, so the run completes.  Bodies compare
    lower-cased with whitespace runs collapsed and trimmed, so a tab-only
    reissue is equivalent to a space-only issue and refreshes it."""
    text = 'tick 1\nissue p[pi:"   "]q\ntick 2\nissue p[pi:"\t"]q\n'
    result = run(load(text))
    assert [rec.token for rec in result.agents["q"].fragments] == ["1-0"]
    assert "t=2 lifecycle token=1-0 subject=q state=active fade=1 rate=1" in result.trace


def test_incredible_promiser_is_fast_discarded():
    text = (
        "policy penalize-incredible=true\n"
        "trust q p = 1\n"
        "profile p independent=false\n"
        "tick 1\n"
        'issue p[adequacy(P,U):"p is adequate for task u"]q\n'
    )
    result = run(load(text))
    assert ("P", "U") not in result.agents["q"].prepared
    rate = result.agents["q"].fragments[0].fade_rate_multiplier
    assert rate == 4 and type(rate) is int
    assert any("rate=4" in line for line in result.trace)
    # penalization counts as a broken experience
    assert result.agents["q"].trust_in("p") == 0


def test_fading_terminates_and_announces_termination():
    text = (
        "policy fade-span=2 fade-threshold=0.6\n"
        "tick 1\n"
        'issue p[note:"remember this"]q\n'
        "tick 3\n"
        "expect-trust q p = 0\n"  # fading advances only on scripted ticks
    )
    result = run(load(text))
    faded = [line for line in result.trace if "state=faded" in line]
    assert len(faded) == 2  # one fragment each for p and q
    assert any(line.startswith("t=3 terminated") for line in result.trace)


def test_bare_tick_fades_and_terminates():
    """A tick with no directive after it still runs its closing steps: the
    fragments of t=1, which live 2 ticks, fade at t=9 and the token ends."""
    text = 'policy fade-span=2 fade-threshold=0.5\ntick 1\nissue p[pi:"b"]q\ntick 9\n'
    scenario = load(text)
    assert (scenario.ticks, [d.tick for d in scenario.events]) == ([1, 9], [1])
    result = run(scenario)
    assert result.trace[3:] == [
        "t=9 lifecycle token=1-0 subject=p state=faded fade=0 rate=1",
        "t=9 lifecycle token=1-0 subject=q state=faded fade=0 rate=1",
        "t=9 terminated token=1-0",
    ]
    assert not any(state.fragments for state in result.agents.values())


@pytest.mark.parametrize(
    "later,expected",
    [
        (
            "tick 4\nexpect-trust p r = 0\ntick 5\nexpect-trust p r = 0\n",
            [
                "t=4 lifecycle token=1-0 subject=r state=faded fade=0.25 rate=1",
                "t=4 lifecycle token=1-0 subject=s state=faded fade=0.25 rate=1",
                "t=5 lifecycle token=1-0 subject=p state=faded fade=0.25 rate=1",
                "t=5 terminated token=1-0",
            ],
        ),
        (  # both fade-queue entries of the token come due at one fade tick
            "tick 5\nexpect-trust p r = 0\n",
            [
                "t=5 lifecycle token=1-0 subject=p state=faded fade=0.25 rate=1",
                "t=5 lifecycle token=1-0 subject=r state=faded fade=0 rate=1",
                "t=5 lifecycle token=1-0 subject=s state=faded fade=0 rate=1",
                "t=5 terminated token=1-0",
            ],
        ),
    ],
    ids=["cohort-first", "one-fade-tick"],
)
def test_partial_cohort_fades_and_terminates_after_its_last_fragment(later, expected):
    """A refresh takes one recipient's fragment out of its delivery's
    cohort: the others fade together at the cohort's deadline, and the token
    terminates once, only when the refreshed fragment has ended too."""
    text = (
        "policy fade-span=4 fade-threshold=0.5\n"  # fades 3 ticks after origin
        "tick 1\n"
        'issue p[note:"b"/{r,s}]p\n'  # fragments for p, r and s
        "tick 2\n"
        'issue p[note:"b"]p\n'  # equivalent, other scope: refreshes p only
        + later
    )
    eng = engine._Engine(load(text))
    trace = eng.run().trace
    assert "t=2 lifecycle token=1-0 subject=p state=active fade=1 rate=1" in trace
    assert [
        line for line in trace if line.split()[1] in ("lifecycle", "terminated")
    ][1:] == expected
    assert eng.live == {} and eng.refreshable == {}
    assert all(state.fragments == [] for state in eng.agents.values())


class PerRecordLines(engine._Engine):
    """An engine that writes each lifecycle line ``deliver`` and
    ``fade_step`` write per cohort again for each member from the cohort's
    fields, with a format that uses no memo, and checks that the two agree.
    ``cohorts`` keeps (tick, token, members) per cohort that one ``retire``
    call faded, and ``checked`` counts the lines checked."""

    def __init__(self, scenario):
        super().__init__(scenario)
        self.cohorts, self.checked, self.due = [], 0, []

    def per_record(self, tick, members):
        """The lifecycle lines of ``members``, (cohort, subject) pairs."""
        fmt = statements._fmt_fraction
        lines = [
            f"t={tick} lifecycle token={cohort.token} subject={subject} "
            f"state={cohort.state.value} fade={fmt(cohort.fade_level)} "
            f"rate={fmt(cohort.fade_rate_multiplier)}"
            for cohort, subject in sorted(
                members, key=lambda member: (member[1], member[0].token)
            )
        ]
        self.checked += len(lines)
        return lines

    def deliver(self, stmt, tick):
        start, tokens = len(self.trace), set(self.live)
        super().deliver(stmt, tick)
        (token,) = self.live.keys() - tokens or (None,)
        fresh = []
        if token:  # the cohort of the fresh fragments, made at this tick
            cohort = self.live[token][2][tick]
            fresh = [(cohort, subject) for subject in cohort.subjects]
        written = [
            line
            for line in self.trace[start:]
            if line.startswith(f"t={tick} lifecycle token={token} ")
        ]
        discard = self.route(stmt) is engine.Route.DISCARD_FAST
        assert written == (self.per_record(tick, fresh) if discard else [])

    def retire(self, cohort, state):
        super().retire(cohort, state)
        if state is LifecycleState.FADED:
            self.cohorts.append((self.fade_tick, cohort.token, len(cohort.subjects)))
            self.due.extend((cohort, subject) for subject in cohort.subjects)

    def fade_step(self, tick):
        start, self.due = len(self.trace), []
        super().fade_step(tick)
        assert self.trace[start:] == self.per_record(tick, self.due)


@pytest.mark.parametrize(
    "text,cohorts,checked",
    [
        (  # r and s fade at 4 without p, which the reissue refreshed at 2
            "policy fade-span=4 fade-threshold=0.5\n"
            'tick 1\nissue p[note:"b"/{r,s}]p\n'
            'tick 2\nissue p[note:"b"]p\n'
            "tick 4\nexpect-trust p r = 0\ntick 5\nexpect-trust p r = 0\n",
            [(4, "1-0", 2), (5, "1-0", 1)],
            3,
        ),
        (  # both entries of 1-0 due at 9: 8 ticks faded (fade 0) and 7 (1/8)
            "policy fade-span=8 fade-threshold=0.2\n"
            'tick 1\nissue p[note:"b"/{r,s}]p\n'
            'tick 2\nissue p[note:"b"]p\n'
            "tick 9\nexpect-trust p r = 0\n",
            [(9, "1-0", 2), (9, "1-0", 1)],
            3,
        ),
        (  # rate 4 clamps at 2 ticks faded; x's rate-1 cohort is due too
            "policy fade-span=8 fade-threshold=0.2\n"
            "profile p independent=false\n"
            'tick 1\nissue p[note:"b"/{r}]q\nissue x[note:"c"]q\n'
            "tick 9\nexpect-trust q p = 0\n",
            [(9, "1-0", 3), (9, "1-1", 2)],
            3 + 5,
        ),
        (  # discard lines at delivery, between deliver and penalty lines
            "policy penalize-incredible=true\n"
            "profile p independent=false\ntrust q p = 1\n"
            'tick 1\nissue p[note:"b"/{r}]q\n'
            'tick 2\nissue p[note:"b"/{r,s,t}]q\n',
            [],
            3 + 2,
        ),
    ],
    ids=[
        "partial-cohort", "two-entries-one-tick", "rate-4-clamped", "discard-penalize"
    ],
)
def test_cohort_lifecycle_text_equals_each_records_line(text, cohorts, checked):
    eng = PerRecordLines(load(text))
    eng.run()
    assert sorted(eng.cohorts) == sorted(cohorts)
    assert eng.checked == checked


def test_one_reissue_refreshing_two_fragments_fades_them_as_one_cohort():
    """The reissue at 2 refreshes p and r of token 1-0: they share an origin
    and fade at 6 as one cohort, while s fades alone at 4."""
    eng = PerRecordLines(
        load(
            "policy fade-span=4 fade-threshold=0.5\n"
            'tick 1\nissue p[note:"b"/{r,s}]p\n'
            'tick 2\nissue p[note:"b"/{r}]p\n'
            "tick 4\nexpect-trust p r = 0\ntick 6\nexpect-trust p r = 0\n"
        )
    )
    assert eng.run().trace == [
        "t=1 issue promiser=p promisee=p kind=promise type=note token=1-0",
        "t=1 deliver token=1-0 subject=p",
        "t=1 deliver token=1-0 subject=r",
        "t=1 deliver token=1-0 subject=s",
        "t=2 issue promiser=p promisee=p kind=promise type=note token=2-1",
        "t=2 deliver token=2-1 subject=p",
        "t=2 lifecycle token=1-0 subject=p state=active fade=1 rate=1",
        "t=2 deliver token=2-1 subject=r",
        "t=2 lifecycle token=1-0 subject=r state=active fade=1 rate=1",
        "t=4 lifecycle token=1-0 subject=s state=faded fade=0.25 rate=1",
        "t=6 lifecycle token=1-0 subject=p state=faded fade=0 rate=1",
        "t=6 lifecycle token=1-0 subject=r state=faded fade=0 rate=1",
        "t=6 terminated token=1-0",
    ]
    assert eng.cohorts == [(4, "1-0", 1), (6, "1-0", 2)]
    assert eng.checked == 3


def test_outcome_ends_assessed_records_kept_or_broken():
    """``agents.on_outcome`` leaves the matching promises active; the engine
    splits each off its cohort and ends it kept or broken in its own
    ``retire``, before its line.  The promiser's fragment of each token
    stays live."""
    text = (
        "trust q p = 1\ntrust q r = 1\n"
        "tick 1\n"
        'issue p[adequacy(P,U):"p is adequate for task u"]q\n'
        'issue r[adequacy(P,U):"r is adequate for task u"]q\n'
        'issue p[adequacy(V,U):"p is adequate for task u"]q\n'
        "tick 2\noutcome q program=P task=U result=success\n"
        "tick 3\noutcome q program=V task=U result=failure\n"
    )
    eng = engine._Engine(load(text))
    ended = []

    def recording(cohort, state):
        ended.append(
            (cohort.token, [(s, cohort.state) for s in cohort.subjects], state)
        )
        return engine._Engine.retire(eng, cohort, state)

    eng.retire = recording
    trace = eng.run().trace
    active, kept, broken = (
        LifecycleState.ACTIVE, LifecycleState.KEPT, LifecycleState.BROKEN
    )
    assert ended == [
        ("1-0", [("q", active)], kept),
        ("1-1", [("q", active)], kept),
        ("1-2", [("q", active)], broken),
    ]
    assert [line for line in trace if " lifecycle " in line] == [
        "t=2 lifecycle token=1-0 subject=q state=kept fade=1 rate=1",
        "t=2 lifecycle token=1-1 subject=q state=kept fade=1 rate=1",
        "t=3 lifecycle token=1-2 subject=q state=broken fade=0.99 rate=1",
    ]
    assert eng.agents["q"].fragments == [] and eng.agents["q"].promises == {}
    assert [rec.token for rec in eng.agents["p"].fragments] == ["1-0", "1-2"]
    assert [rec.token for rec in eng.agents["r"].fragments] == ["1-1"]


def test_withdraw_terminates_everywhere():
    text = (
        "trust q p = 1\n"
        "tick 1\n"
        'issue p[adequacy(P,U):"p is adequate for task u"/{r}]q\n'
        "tick 2\n"
        "withdraw p token=1-0\n"
    )
    result = run(load(text))
    withdrawn = [line for line in result.trace if "state=withdrawn" in line]
    assert len(withdrawn) == 3  # p, q, r fragments
    assert any("terminated token=1-0" in line for line in result.trace)
    # a withdrawn promise no longer backs the prepared program
    assert result.agents["q"].promisers_for("P", "U") == set()


@pytest.mark.parametrize(
    "ending,state",
    [
        ("outcome q program=P task=U result=success", "kept"),
        ("withdraw p token=1-0", "withdrawn"),
        ("expect-trust q p = 1", "faded"),  # a scripted tick lets it fade
    ],
    ids=["outcome", "withdraw", "fade"],
)
def test_ended_record_is_not_held_and_not_refreshed(ending, state):
    ended = (
        "policy fade-span=2 fade-threshold=0.6\n"
        "trust q p = 1\n"
        "tick 1\n"
        'issue p[adequacy(P,U):"p is adequate for task u"]q\n'
        f"tick 2\n{ending}\n"
    )
    result = run(load(ended))
    assert any(
        line.startswith(f"t=2 lifecycle token=1-0 subject=q state={state}")
        for line in result.trace
    )
    assert result.agents["q"].fragments == []
    # an equivalent re-issue now creates a new record instead of a refresh
    result = run(
        load(ended + 'tick 3\nissue p[adequacy(P,U):"p is adequate for task u"]q\n')
    )
    assert [rec.token for rec in result.agents["q"].fragments] == ["3-1"]
    assert not any(line.startswith("t=3 lifecycle token=1-0") for line in result.trace)


def test_withdraw_by_stranger_is_rejected_as_warning():
    """Neither a withdraw by another agent nor one of a token with no live
    fragment moves a record; each writes one pinned warning line."""
    text = (
        "trust q p = 1\n"
        "tick 1\n"
        'issue p[adequacy(P,U):"p is adequate for task u"]q\n'
        "tick 2\n"
        "withdraw q token=1-0\n"
        "withdraw p token=9-9\n"
    )
    result = run(load(text))
    assert result.trace[-2:] == [
        "t=2 warning agent=q detail=withdraw-rejected,token=1-0,"
        "reason=only the promiser may withdraw (not 'q')",
        "t=2 warning agent=p detail=withdraw-no-active-fragment,token=9-9",
    ]
    fragments = [rec for state in result.agents.values() for rec in state.fragments]
    assert sorted(
        (rec.subjects, rec.state.value, rec.shown_at) for rec in fragments
    ) == [(["p"], "active", 2), (["q"], "active", 2)]


def test_withdraw_of_a_token_split_by_a_refresh_ends_each_cohort_once():
    """A refresh leaves token 1-0 with two cohorts: p's at origin 2, r's
    and s's at 1.  One withdraw ends both, each in one ``retire``; every
    fragment shows its own level, the lines come in subject order and the
    token terminates once."""
    eng = engine._Engine(
        load(
            "policy fade-span=4 fade-threshold=0.5\n"
            'tick 1\nissue p[note:"b"/{r,s}]p\n'
            'tick 2\nissue p[note:"b"]p\n'
            "tick 3\nwithdraw p token=1-0\n"
        )
    )
    retired = []

    def recording(cohort, state):
        retired.append((cohort.token, cohort.origin, list(cohort.subjects), state))
        return engine._Engine.retire(eng, cohort, state)

    eng.retire = recording
    trace = eng.run().trace
    assert trace[-4:] == [
        "t=3 lifecycle token=1-0 subject=p state=withdrawn fade=1 rate=1",
        "t=3 lifecycle token=1-0 subject=r state=withdrawn fade=0.75 rate=1",
        "t=3 lifecycle token=1-0 subject=s state=withdrawn fade=0.75 rate=1",
        "t=3 terminated token=1-0",
    ]
    withdrawn = LifecycleState.WITHDRAWN
    assert sorted(retired) == [
        ("1-0", 1, ["r", "s"], withdrawn), ("1-0", 2, ["p"], withdrawn)
    ]
    assert eng.live == {} and eng.refreshable == {}


def test_a_reissue_files_one_deadline_per_token_and_origin():
    """A reissue that refreshes every fragment of token 1-0 moves them into
    one cohort at origin 2 and files its fade deadline once."""
    eng = engine._Engine(
        load(
            'tick 1\nissue p[note:"b"/{r,s,t}]p\n'
            'tick 2\nissue p[note:"b"/{r,s,t}]p\n'
        )
    )
    first, second = eng.scenario.events
    eng.apply_event(first)
    eng.apply_event(second)
    assert [entry for entry in eng.deadlines if entry[1:] == (2, "1-0")] == [
        (2 + eng.fade.life(1), 2, "1-0")
    ]
    (cohort,) = eng.live["1-0"][2].values()
    assert (cohort.origin, cohort.subjects) == (2, ["p", "r", "s", "t"])
    assert "2-1" not in eng.live


def test_round_robin_interleaving_alternates_sources():
    text = (
        "policy interleave=round-robin\n"
        "tick 1\n"
        'issue a[x1:"m"]q\n'
        'issue a[x2:"m"]q\n'
        'issue b[y1:"m"]q\n'
        'issue b[y2:"m"]q\n'
    )
    result = run(load(text))
    issued = [
        line.split("type=")[1].split()[0]
        for line in result.trace
        if " issue " in line
    ]
    assert issued == ["x1", "y1", "x2", "y2"]


def test_no_matching_fragment_outcome_warns():
    text = (
        "trust q p = 1\n"
        "tick 1\n"
        "outcome q program=P task=U result=failure\n"
    )
    result = run(load(text))
    assert any("warning" in line and "no-matching-fragment" in line for line in result.trace)
    assert result.agents["q"].trust_in("p") == 1


def test_outcome_and_termination_lines_follow_token_string_order():
    """An outcome writes its assessed records in token order, which is string
    order: the promise delivered at tick 10 (``10-1``) comes before the one
    delivered at tick 9 (``9-0``).  Tokens that terminate in one tick are
    announced in the same order, whatever order the withdrawals came in."""
    text = (
        "trust q p = 1\n"
        "trust q r = 1\n"
        "tick 9\n"
        'issue p[adequacy(P,U):"p is adequate for task u"]q\n'
        "tick 10\n"
        'issue r[adequacy(P,U):"p is adequate for task u"]q\n'
        "tick 11\n"
        "outcome q program=P task=U result=success\n"
        "withdraw p token=9-0\n"
        "withdraw r token=10-1\n"
    )
    result = run(load(text))
    assert [line for line in result.trace if line.startswith("t=11 ")] == [
        "t=11 lifecycle token=10-1 subject=q state=kept fade=1 rate=1",
        "t=11 trust subject=q target=r kind=general-trust level=2 cause=kept",
        "t=11 lifecycle token=9-0 subject=q state=kept fade=0.99 rate=1",
        "t=11 trust subject=q target=p kind=general-trust level=2 cause=kept",
        "t=11 lifecycle token=9-0 subject=p state=withdrawn fade=0.99 rate=1",
        "t=11 lifecycle token=10-1 subject=r state=withdrawn fade=1 rate=1",
        "t=11 terminated token=10-1",
        "t=11 terminated token=9-0",
    ]


def test_outcome_prunes_the_assessed_pair_before_the_unload_rule():
    """An outcome that takes a sole promiser to -2 unloads the other pair it
    backs.  The assessed pair's index entry is pruned first, so that pair has
    no promiser left and stays prepared."""
    text = (
        "trust q p = 1\n"
        "tick 1\n"
        'issue p[adequacy(P,U):"p is adequate for task u"]q\n'
        'issue p[adequacy(R,V):"r is adequate for task v"]q\n'
        "tick 2\n"
        "trust q p = -1\n"
        "outcome q program=P task=U result=failure\n"
    )
    result = run(load(text))
    assert actions(result) == [
        ("q", "prepare", "program=P,task=U"),
        ("q", "prepare", "program=R,task=V"),
        ("q", "unload", "program=R,task=V"),
    ]
    q = result.agents["q"]
    assert q.trust_in("p") == -2
    assert list(q.prepared) == [("P", "U")]
    assert q.adequacy_index == {("R", "V"): {"p": 1}}
    assert list(q.promises) == [("R", "V")]


def test_expect_trust_reads_the_qualified_key():
    text = (
        "tick 1\n"
        "trust q p program=P = 1\n"
        "expect-trust q p program=P = 1\n"
        "expect-trust q p = 0\n"
    )
    assert [e for e in run(load(text)).expects if not e.passed] == []


@pytest.mark.parametrize(
    "qualifier,kind,other,other_kind",
    [
        ("task=X", "task-trust", "program=X", "program-trust"),
        ("program=X", "program-trust", "task=X", "task-trust"),
        ("program=X task=Y", "confidence", "program=Y task=X", "confidence"),
    ],
)
def test_qualified_trust_kinds_end_to_end(qualifier, kind, other, other_kind):
    """A qualified ``trust`` line writes its own kind, names it in the trace
    and leaves general trust alone, and ``expect-trust`` reads back exactly
    what was written.  The same id as a task and as a program addresses two
    keys: a key's fields are positional, not a bag of ids."""
    text = (
        "trust q p = -1\n"
        "tick 1\n"
        f"trust q p {qualifier} = 2\n"
        f"expect-trust q p {qualifier} = 2\n"
        f"expect-trust q p {other} = 0\n"
        "expect-trust q p = -1\n"
        "tick 2\n"
        f"trust q p {other} = -2\n"
        f"expect-trust q p {qualifier} = 2\n"
        f"expect-trust q p {other} = -2\n"
        "expect-trust q p = -1\n"
    )
    result = run(load(text))
    assert result.trace == [
        "t=0 trust subject=q target=p kind=general-trust level=-1 cause=init",
        f"t=1 trust subject=q target=p kind={kind} level=2 cause=init",
        f"t=2 trust subject=q target=p kind={other_kind} level=-2 cause=init",
    ]
    assert [(e.expected, e.actual) for e in result.expects] == [
        (2, 2), (0, 0), (-1, -1), (2, 2), (-2, -2), (-1, -1),
    ]
    assert result.agents["q"].trust_in("p") == -1


def test_expect_check_reports_failures():
    text = "trust q p = 1\ntick 1\nexpect-trust q p = 2\n"
    failures = [e for e in run(load(text)).expects if not e.passed]
    assert len(failures) == 1
    assert (failures[0].expected, failures[0].actual) == (2, 1)


def test_attr_applies_to_its_entity_kind_only():
    """An attribute given for task P does not describe program P."""
    text = (
        "trust q a = -1\n"
        "attr program-quality {kind}=P = 1\n"
        "attr program-dependability {kind}=P = 1\n"
        "attr program-user-base-size {kind}=P = 1\n"
        "tick 1\n"
        'issue a[adequacy(P,U):"p is adequate for task u"]q\n'
    )
    verdicts = {
        kind: [a for _, a, _ in actions(run(load(text.format(kind=kind))))]
        for kind in ("program", "task")
    }
    assert verdicts == {"program": ["prepare"], "task": ["refuse-install"]}


def test_task_attribute_wins_over_the_programs():
    """The verdict reads the program's and the task's attributes as one;
    where both set an attribute, the task's level counts."""
    text = (
        "trust q a = -1\n"
        "attr program-quality program=P = 1\n"
        "attr program-dependability program=P = 1\n"
        "attr program-user-base-size program=P = 1\n"
        "{task}"
        "tick 1\n"
        'issue a[adequacy(P,U):"p is adequate for task u"]q\n'
    )
    verdicts = [
        [a for _, a, _ in actions(run(load(text.format(task=task))))]
        for task in ("", "attr program-quality task=U = -1\n")
    ]
    assert verdicts == [["prepare"], ["refuse-install"]]


def test_issue_holds_one_shared_statement_per_recipient():
    scenario = load('tick 7\nissue p[pi:"b"/{q,r}]q\nissue p[pi:"c"]q\n')
    result = run(scenario)
    first = scenario.events[0].statement
    held = {
        agent_id: [rec for rec in state.fragments if rec.token == "7-0"]
        for agent_id, state in result.agents.items()
    }
    assert sorted(held) == ["p", "q", "r"]
    for agent_id, (rec,) in held.items():
        assert rec.statement is first
        assert rec.subjects == [agent_id]
        assert rec.fade == PolicyHeader().default_fade and rec.shown_at == 7
    assert [rec.token for rec in result.agents["q"].fragments] == ["7-0", "7-1"]
    issued = [line.split("token=")[1] for line in result.trace if " issue " in line]
    assert issued == ["7-0", "7-1"]


def test_run_checks_no_agent_id(monkeypatch):
    """``load`` checks every agent id; delivery re-checks none, however
    wide the scope."""
    scope = ",".join(f"a{i}" for i in range(16))
    scenarios = [load_path(path) for path in sorted(SCENARIOS.glob("*.coop"))]
    scenarios.append(load(f'tick 1\nissue p[pi:"b"/{{{scope}}}]q\n'))
    checked = []
    real = statements.check_agent_id

    def counting(name):
        checked.append(name)
        return real(name)

    monkeypatch.setattr(statements, "check_agent_id", counting)
    monkeypatch.setattr("coopsim.scenario.check_agent_id", counting)
    for scenario in scenarios:
        run(scenario)
    assert checked == []


def test_credibility_is_gated_once_per_delivery(monkeypatch):
    """The gate depends on the statement and the header only, so a delivery
    gates once, however many recipients it has."""
    scope = ",".join(f"a{i}" for i in range(16))
    scenarios = [load(f'tick 1\nissue p[pi:"b"/{{{scope}}}]q\n')]
    scenarios += [load_path(path) for path in sorted(SCENARIOS.glob("*.coop"))]
    gated = []
    real = engine.credibility_gate

    def counting(score, floor):
        gated.append(score)
        return real(score, floor)

    monkeypatch.setattr(engine, "credibility_gate", counting)
    for scenario in scenarios:
        gated.clear()
        result = run(scenario)
        deliveries = sum(" issue " in line for line in result.trace)
        assert len(gated) <= deliveries


# A profile per credibility level of its agent for focus "pi"
LEVEL_PROFILES = {
    2: "experienced=pi range=pi reputation=pi",
    1: "experienced=pi range=pi",
    0: "experienced=pi",
    -1: "",
    -2: "affiliated=pi",
}


@pytest.mark.parametrize("floor", ["0", "1/20", "1/4", "1/2", "19/20", "1"])
def test_memoized_route_equals_the_gate(floor, monkeypatch):
    """Each credibility level, and an unprofiled promiser (score 1/2), gates
    once per run to ``credibility_gate(score, floor)``; every floor but 0
    and 1 equals a score."""
    agents = {level: f"c{i}" for i, level in enumerate(LEVEL_PROFILES)}
    text = f"policy gate={floor}\n" + "".join(
        f"profile {agents[level]} {fields}\n" for level, fields in LEVEL_PROFILES.items()
    )
    text += "tick 1\n" + "".join(
        f'issue {promiser}[pi:"b"]q\nissue {promiser}[pi:"c"]q\n'
        for promiser in [*agents.values(), "u"]
    )
    gated = []
    real = engine.credibility_gate

    def counting(score, floor):
        gated.append(score)
        return real(score, floor)

    monkeypatch.setattr(engine, "credibility_gate", counting)
    eng = engine._Engine(load(text))
    eng.run()
    scores = {level: PTRUST[level] for level in LEVEL_PROFILES}
    scores[None] = Fraction(1, 2)
    assert sorted(gated) == sorted(scores.values())  # once per level
    assert eng.routes == {
        level: real(score, Fraction(floor)) for level, score in scores.items()
    }
    for directive in eng.scenario.events:
        promiser = directive.statement.promiser
        level = next((lv for lv, a in agents.items() if a == promiser), None)
        assert eng.route(directive.statement) is real(scores[level], Fraction(floor))


def test_surveys_with_one_sum_and_size_share_their_outcome(monkeypatch):
    """Two groups with the same trust sum and size emit the same average and
    reinitialized level, which the run computes once."""
    text = (
        "trust a p = 1\ntrust b p = 0\ntrust c p = 2\ntrust d p = -1\n"
        "tick 1\n"
        "survey w group=a,b about=p\n"
        "survey w group=c,d about=p\n"
    )
    reinit = []
    real = engine.survey_reinit
    monkeypatch.setattr(
        engine, "survey_reinit", lambda average: reinit.append(average) or real(average)
    )
    result = run(load(text))
    averages = [line.split("average=")[1] for line in result.trace if "kind=survey" in line]
    assert averages == ["0.5", "0.5"]
    assert reinit == [Fraction(1, 2)]
    assert [trust_levels(result, m, "p")[-1] for m in "abcd"] == [0, 0, 0, 0]


def test_round_robin_queues_expect_trust_under_its_subject():
    """Under round-robin an ``expect-trust`` queues under its subject, not
    after the statements listed above it: with the check in the tick of Z's
    two statements, A (before Z) is checked before Z's statements, which
    each take A's trust in Z one step down, are delivered."""
    draft = (SCENARIOS / "parking.coop").read_text().replace(
        'issue Z[propose!assist(P7):"z pushes the stuck barrier if asked"]A\n',
        'issue Z[propose!assist(P7):"z pushes the stuck barrier if asked"]A\n'
        "expect-trust A Z = -2\n",
    )
    assert draft.count("expect-trust A Z = -2") == 2
    scenario = load(draft)
    checks = {
        order: [(e.tick, e.actual) for e in run(scenario, interleave=order).expects
                if e.target == "Z"]
        for order in InterleavingStrategy
    }
    assert checks == {
        InterleavingStrategy.FILE_ORDER: [(3, -2), (6, -2)],
        InterleavingStrategy.ROUND_ROBIN: [(3, 0), (6, -2)],
    }
