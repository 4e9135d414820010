"""Load/run property: a scenario drawn from the directive grammar, with empty
values, malformed agent ids and out-of-range numbers mixed in, either fails
to load with ``ScenarioError`` or runs to completion, and then every agent
the run knows has a well-formed id and holds only active records, and
terminal states absorb (``check_absorption``).  On the well-formed half,
each agent's end-of-run ``fragments`` are the live ones the trace names
(``check_fragments``), and after every tick the engine's cohorts and
deadline heap are well-formed and each agent's filed promises are its live
adequacy-promise fragments (``CheckedEngine``).

So that records end, well-formed lines are drawn too: adequacy issues,
outcomes that match them, withdraws of the tokens a run allots
(``<tick>-<seq>``) and fade spans of 1 to 3 ticks."""

import re
from dataclasses import replace

from hypothesis import given, settings, strategies as st

from coopsim.agents import files
from coopsim.engine import _Engine, run
from coopsim.scenario import InterleavingStrategy, Scenario, ScenarioError, load
from coopsim.lifecycle import LifecycleState
from coopsim.statements import _TOKEN_RE
from coopsim.trust import TramPolicy

agents = st.sampled_from(["p", "q", "r", "s", "", "q!", "a-b"])
names = st.sampled_from(["P", "U", "V", ""])
levels = st.sampled_from(["-3", "-2", "-1", "0", "1", "2", "3", "x", ""])
numbers = st.sampled_from(["-1", "0", "1", "5", "11", "99", "x", ""])
fractions = st.sampled_from(["0", "1/2", "1", "2", "-1", "1/0", "x", ""])


def opt(strategy):
    return st.one_of(st.just(""), strategy.map(lambda s: " " + s))


def line(template, **parts):
    return st.builds(template.format, **parts)


trust_line = line(
    "{name} {s} {t}{qualifiers} = {level}",
    name=st.sampled_from(["trust", "expect-trust"]),
    s=agents,
    t=agents,
    qualifiers=st.lists(
        st.builds(
            "{}={}".format, st.sampled_from(["program", "task", "foo"]), names
        ),
        max_size=2,
    ).map(lambda qs: "".join(" " + q for q in qs)),
    level=levels,
)
policy_line = line(
    "policy {key}={value}",
    key=st.sampled_from(
        [
            "tram",
            "gate",
            "fade-span",
            "fade-threshold",
            "interleave",
            "penalize-incredible",
            "recent-window",
            "seed",
        ]
    ),
    value=st.sampled_from(
        ["recency-history", "incremental", "round-robin", "true", "maybe"]
    )
    | fractions
    | numbers,
)
attr_line = line(
    "attr {name} {kind}={entity} = {level}",
    name=st.sampled_from(["program-quality", "provider-size", "task-ubiquity", "x"]),
    kind=st.sampled_from(["program", "task", "agent"]),
    entity=names,
    level=levels,
)
profile_line = line(
    "profile {agent}{settings}",
    agent=agents,
    settings=st.lists(
        st.builds(
            "{}={}".format,
            st.sampled_from(
                ["independent", "experienced", "range", "affiliated", "bogus"]
            ),
            st.sampled_from(["true", "no", "maybe", "P", "P,U", ""]),
        ),
        max_size=3,
    ).map(lambda ss: "".join(" " + s for s in ss)),
)
issue_line = line(
    'issue {p}[{kind}{tag}:"{body}"{scope}]{q}',
    p=agents,
    kind=st.sampled_from(["", "suggest!", "impose!"]),
    tag=st.sampled_from(["adequacy(P,U)", "adequacy(V,U)", "note", "adequacy(,U)"]),
    body=st.sampled_from(["p is adequate", "", "  ", "P  IS\tadequate"]),
    scope=st.sampled_from(["", "/{r}", "/{r,s}", "/{}"]),
    q=agents,
)
event_lines = st.one_of(
    issue_line,
    line(
        "impose {s} {q} task={task}{strength}",
        s=agents,
        q=agents,
        task=names,
        strength=opt(numbers.map("strength={}".format)),
    ),
    line(
        "outcome {q} program={program} task={task} result={result}",
        q=agents,
        program=names,
        task=names,
        result=st.sampled_from(["success", "failure", "maybe"]),
    ),
    line(
        "withdraw {p} token={token}",
        p=agents,
        token=st.sampled_from(["1-0", "2-1", "", "x"]),
    ),
    line("lor-request {a} {b} about={c}", a=agents, b=agents, c=agents),
    line(
        "survey {w} group={group} about={c}{window}",
        w=agents,
        group=st.lists(agents, min_size=1, max_size=3).map(",".join),
        c=agents,
        window=opt(numbers.map("window={}".format)),
    ),
    line(
        "reply {a} {b} {decision}",
        a=agents,
        b=agents,
        decision=st.sampled_from(["proceed", "withdraw", "maybe"]),
    ),
    trust_line,
)
live_agents = st.sampled_from(["p", "q", "r", "s"])
promisers = st.sampled_from(["p", "q"])
adequacy_pairs = st.sampled_from([("P", "U"), ("V", "U")])
ending_lines = st.one_of(
    st.builds(
        lambda p, pair, scope, q: (
            f'issue {p}[adequacy({pair[0]},{pair[1]}):"adequate"{scope}]{q}'
        ),
        promisers,
        adequacy_pairs,
        st.sampled_from(["", "/{r}", "/{q,s}"]),
        live_agents,
    ),
    st.builds(
        lambda q, pair, result: (
            f"outcome {q} program={pair[0]} task={pair[1]} result={result}"
        ),
        live_agents,
        adequacy_pairs,
        st.sampled_from(["success", "failure"]),
    ),
    line(
        "withdraw {p} token={tick}-{seq}",
        p=promisers,
        tick=st.integers(1, 5),
        seq=st.integers(0, 9),
    ),
)
fade_span_line = line("policy fade-span={span}", span=st.integers(1, 3))
header_lines = st.one_of(
    trust_line, policy_line, attr_line, profile_line, fade_span_line
)
ending_headers = st.builds(
    lambda fade, trusts: [fade] + trusts,
    fade_span_line,
    st.lists(
        line(
            "trust {s} {t} = {level}",
            s=live_agents,
            t=live_agents,
            level=st.integers(-2, 2),
        ),
        max_size=4,
    ),
)


def scenario_texts(headers, event_lines):
    return st.builds(
        lambda header, ticks: "\n".join(
            header
            + [f"tick {t}\n" + "\n".join(lines) for t, lines in enumerate(ticks, 1)]
        ),
        headers,
        st.lists(st.lists(event_lines, min_size=1, max_size=4), max_size=5),
    )


# Half the scenarios mix every line kind; the other half draw only
# well-formed lines with a short fade span, so most of them end records.
well_formed = scenario_texts(ending_headers, ending_lines)
scenarios = scenario_texts(
    st.lists(header_lines, max_size=6), st.one_of(event_lines, ending_lines)
) | well_formed


def check_absorption(trace):
    """Terminal states absorb, read from a whole trace: each (token,
    subject) has at most one lifecycle line in a state other than active,
    and no line names that pair after it; each token's ``terminated`` line
    comes once, after its last ending line, and no line names the token
    after it."""
    ended, ended_tokens, terminated = set(), set(), set()
    for text in trace:
        _, kind, *words = text.split(" ")
        fields = dict(word.split("=", 1) for word in words if "=" in word)
        token = fields.get("token")
        if token is None:
            continue
        pair = token, fields.get("subject")
        assert token not in terminated and pair not in ended, text
        if kind == "terminated":
            assert token in ended_tokens, text
            terminated.add(token)
        elif kind == "lifecycle" and fields["state"] != "active":
            ended.add(pair)
            ended_tokens.add(token)


def live_from_trace(trace) -> dict:
    """agent -> the tokens of its live records, in issue order, read from the
    trace alone.  A ``deliver`` makes a record unless the next line is a
    refresh: that subject's active lifecycle line for an older token (a
    ``deliver`` last in its tick may be followed by a fade of an older
    one).  A record is live until a kept, broken, withdrawn or faded
    lifecycle line names it."""
    issued, made, ended = {}, [], set()
    for index, line in enumerate(trace):
        _, kind, *words = line.split(" ")
        if kind not in ("issue", "deliver", "lifecycle"):
            continue
        fields = dict(word.split("=", 1) for word in words)
        pair = fields.get("subject"), fields["token"]
        if kind == "issue":
            issued[pair[1]] = len(issued)
        elif kind == "lifecycle" and fields["state"] != "active":
            ended.add(pair)
        elif kind == "deliver":
            following = trace[index + 1].split(" ") if index + 1 < len(trace) else []
            refresh = following[1:2] == ["lifecycle"] and (
                following[3] == f"subject={pair[0]}"
                and following[2] != f"token={pair[1]}"
                and following[4] == "state=active"
            )
            if not refresh:
                made.append(pair)
    live = {}
    for subject, token in sorted(set(made) - ended, key=lambda p: issued[p[1]]):
        live.setdefault(subject, []).append(token)
    return live


def check_fragments(scenario, result):
    """Each agent's ``fragments`` are the live records of ``live_from_trace``,
    each a cohort of that agent alone, shown as of the last tick of the
    scenario."""
    last = max(scenario.ticks, default=-1)
    held = {
        agent_id: [rec.token for rec in state.fragments]
        for agent_id, state in result.agents.items()
        if state.fragments
    }
    assert held == live_from_trace(result.trace)
    for agent_id, state in result.agents.items():
        assert all(rec.subjects == [agent_id] for rec in state.fragments)
        assert all(rec.shown_at == last for rec in state.fragments)


@settings(max_examples=400, deadline=None)
@given(text=scenarios)
def test_load_rejects_or_run_completes(text):
    try:
        scenario = load(text)
    except ScenarioError:
        return
    for tram in TramPolicy:
        for interleave in InterleavingStrategy:
            result = run(scenario, tram=tram, interleave=interleave)
            for agent_id, state in result.agents.items():
                assert _TOKEN_RE.fullmatch(agent_id), agent_id
                assert all(
                    rec.state is LifecycleState.ACTIVE for rec in state.fragments
                )
            check_absorption(result.trace)


class CheckedEngine(_Engine):
    """An engine that checks, after every tick, that every live cohort is
    active and non-empty, filed under its token and its origin, so that a
    token's cohorts have distinct origins, and that each of its subjects
    refreshes into it; that the deadline heap holds no cohort: each entry
    is an int deadline, an int origin and a token string; and that each
    agent's ``promises`` are, by pair, the ``{token: promiser}`` of the live
    adequacy-promise cohorts that list it as a subject."""

    def termination_step(self, tick):
        super().termination_step(tick)
        filed = {}  # agent -> pair -> {token: promiser}
        for token, (_, holders, cohorts) in self.live.items():
            assert cohorts
            for origin, cohort in cohorts.items():
                assert (cohort.token, cohort.origin) == (token, origin)
                assert cohort.subjects and cohort.state is LifecycleState.ACTIVE
                assert all(holders[s] is cohort for s in cohort.subjects)
                stmt = cohort.statement
                if files(stmt):
                    for subject in cohort.subjects:
                        pairs = filed.setdefault(subject, {})
                        pairs.setdefault(stmt.adequacy, {})[token] = stmt.promiser
        for agent_id, state in self.agents.items():
            assert state.promises == filed.get(agent_id, {}), agent_id
        for deadline, origin, token in self.deadlines:
            assert type(deadline) is int and type(origin) is int
            assert type(token) is str and re.fullmatch(r"[0-9]+-[0-9]+", token)


@settings(max_examples=200, deadline=None)
@given(text=well_formed)
def test_live_records_are_active_and_deadlines_name_tokens(text):
    scenario = load(text)
    for interleave in InterleavingStrategy:
        header = replace(scenario.header, interleave=interleave)
        ordered = Scenario(header, scenario.initial, scenario.events, scenario.ticks)
        check_fragments(ordered, CheckedEngine(ordered).run())
