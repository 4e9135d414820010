import itertools

import pytest
from hypothesis import given, settings, strategies as st

from coopsim.agents import (
    Action,
    ActionKind,
    AgentState,
    apply_unload_rule,
    files,
    on_adequacy_promise,
    on_imposition,
    on_outcome,
    on_task_request,
    resolve_reply,
)
from coopsim.scenario import PolicyHeader
from coopsim.lifecycle import Cohort
from coopsim.statements import (
    Body,
    DirectionalKind,
    Statement,
    parse,
)
from coopsim.trust import Outcome, TramPolicy

FADE = PolicyHeader().default_fade


def make_agent(name="q", **trust):
    state = AgentState(id=name)
    for target, level in trust.items():
        state.trust.set(target, level)
    return state


def adequacy(promiser, program, task):
    return parse(f'{promiser}[adequacy({program},{task}):"adequate"/{{q}}]q')


def give_promise(state, promiser, program, task, counter, now=0):
    promise = adequacy(promiser, program, task)
    state.hold(promise, f"{now}-{next(counter)}")
    return on_adequacy_promise(state, promise, now)


def test_adequacy_tag_parsing():
    """``Statement.adequacy`` is the (program, task) of an adequacy(P,U) tag
    whatever the kind, and None for any other tag."""
    assert parse('p[adequacy(P,U):"x"]q').adequacy == ("P", "U")
    assert parse('p[suggest!adequacy(P-1,U_2):"x"]q').adequacy == ("P-1", "U_2")
    for tag in ("perform(U)", "adequacy(P)", "adequacy(P,U,V)", "adequacy"):
        assert parse(f'p[{tag}:"x"]q').adequacy is None
    built = Statement(DirectionalKind.PROMISE, "p", "q", "adequacy(P,U", Body("x"))
    assert built.adequacy is None


def test_positive_trust_prepares():
    state = make_agent(p=1)
    actions = give_promise(state, "p", "P", "U", itertools.count())
    assert actions == [Action(ActionKind.PREPARE, program="P", task="U")]
    assert ("P", "U") in state.prepared


def test_nonpositive_trust_refuses():
    for level in (0, -1):
        state = make_agent(p=level)
        actions = give_promise(state, "p", "P", "U", itertools.count())
        assert actions == [Action(ActionKind.REFUSE_INSTALL, program="P", task="U")]
        assert ("P", "U") not in state.prepared


def test_repeat_promise_is_idempotent_on_prepare():
    state = make_agent(p=1)
    counter = itertools.count()
    give_promise(state, "p", "P", "U", counter)
    assert give_promise(state, "p", "P", "U", counter, now=1) == []


def test_distrusted_sole_promiser_unloads():
    state = make_agent(p=1)
    counter = itertools.count()
    give_promise(state, "p", "P", "U", counter)
    state.trust.set("p", -2)
    actions = give_promise(state, "p", "P", "U", counter, now=1)
    assert actions == [Action(ActionKind.UNLOAD, program="P", task="U")]
    assert ("P", "U") not in state.prepared


def test_unload_spared_when_other_promiser_remains():
    state = make_agent(p=1, p2=1)
    counter = itertools.count()
    give_promise(state, "p", "P", "U", counter)
    give_promise(state, "p2", "P", "U", counter)
    state.trust.set("p", -2)
    assert apply_unload_rule(state) == []
    assert ("P", "U") in state.prepared


def test_unload_sweep_after_trust_change():
    state = make_agent(p=1)
    give_promise(state, "p", "P", "U", itertools.count())
    state.trust.set("p", -2)
    assert apply_unload_rule(state) == [
        Action(ActionKind.UNLOAD, program="P", task="U")
    ]


def test_task_request_no_candidate_fails():
    state = make_agent()
    assert on_task_request(state, "U") == Action(ActionKind.FAIL, task="U")


@pytest.mark.parametrize(
    "level,used_before,expected",
    [
        (2, False, ActionKind.USE),
        (1, False, ActionKind.USE),
        (0, False, ActionKind.USE),
        (-1, False, ActionKind.FAIL),
        (-1, True, ActionKind.USE),
        (-2, False, ActionKind.FAIL),
        (-2, True, ActionKind.FAIL),
    ],
)
def test_single_candidate_trust_rules(level, used_before, expected):
    state = make_agent(p=1)
    give_promise(state, "p", "P", "U", itertools.count())
    state.prepared[("P", "U")] = used_before
    state.trust.set("p", level)
    assert on_task_request(state, "U").kind is expected


def test_argmax_prefers_highest_promiser_trust():
    state = make_agent(p1=2, p2=1)
    counter = itertools.count()
    give_promise(state, "p1", "A", "U", counter)
    give_promise(state, "p2", "B", "U", counter)
    assert on_task_request(state, "U") == Action(ActionKind.USE, program="A", task="U")


def test_argmax_tie_breaks_on_trust_sum():
    state = make_agent(p1=1, p2=1, p3=1)
    counter = itertools.count()
    give_promise(state, "p1", "A", "U", counter)
    give_promise(state, "p2", "B", "U", counter)
    give_promise(state, "p3", "B", "U", counter)
    assert on_task_request(state, "U").program == "B"


def test_argmax_tie_breaks_on_recency_then_name():
    state = make_agent(p1=1, p2=1)
    counter = itertools.count()
    give_promise(state, "p1", "A", "U", counter, now=1)
    give_promise(state, "p2", "B", "U", counter, now=3)
    assert on_task_request(state, "U").program == "B"

    state2 = make_agent(p1=1, p2=1)
    counter2 = itertools.count()
    give_promise(state2, "p1", "A", "U", counter2, now=2)
    give_promise(state2, "p2", "B", "U", counter2, now=2)
    assert on_task_request(state2, "U").program == "A"


def balancing_case(trust_s, trust_p):
    state = make_agent(p=1, s=trust_s)
    give_promise(state, "p", "P", "U", itertools.count())
    state.trust.set("p", trust_p)
    return state, on_imposition(state, "s", "U")


def test_balancing_full_trust_in_impositioner():
    _, actions = balancing_case(2, 2)
    assert actions[0].kind is ActionKind.USE
    state, actions = balancing_case(2, 1)
    assert actions == [Action(ActionKind.WARN, task="U", target="s")]
    assert "U" in state.pending
    for trust_p in (0, -1, -2):
        _, actions = balancing_case(2, trust_p)
        assert actions == [
            Action(ActionKind.PROPOSE_WITHDRAW, task="U", target="s")
        ]


def test_balancing_partial_trust_in_impositioner():
    for trust_p in (1, 2):
        _, actions = balancing_case(1, trust_p)
        assert actions[0].kind is ActionKind.USE
    for trust_p in (0, -1, -2):
        _, actions = balancing_case(1, trust_p)
        assert actions == [
            Action(ActionKind.PROPOSE_WITHDRAW, task="U", target="s")
        ]


def test_untrusted_impositioner_falls_through():
    _, actions = balancing_case(0, 1)
    assert actions == [Action(ActionKind.USE, program="P", task="U")]
    _, actions = balancing_case(-1, -1)
    assert actions == [Action(ActionKind.FAIL, task="U")]


def test_reply_resolution():
    state, _ = balancing_case(2, 1)
    action = resolve_reply(state, "s", proceed=True)
    assert action == Action(ActionKind.USE, program="P", task="U")
    assert state.pending == {}

    state, _ = balancing_case(2, 1)
    assert resolve_reply(state, "s", proceed=False) is None
    assert state.pending == {}
    assert resolve_reply(state, "s", proceed=True) is None


def test_outcome_updates_trust_and_leaves_records_active():
    state = make_agent(p=1)
    give_promise(state, "p", "P", "U", itertools.count())
    (token,) = state.promises[("P", "U")]
    assessed = on_outcome(state, "P", "U", Outcome.BROKEN, 5, TramPolicy.INCREMENTAL)
    assert assessed == [(token, "p")]
    assert state.trust_in("p") == 0
    assert state.prepared[("P", "U")] is True  # used before
    # the engine ends the assessed records, kept or broken, and updates the
    # file and index (tests/test_engine.py)
    assert state.promises == {("P", "U"): {token: "p"}}
    assert state.promisers_for("P", "U") == {"p"}


def rescan_prune(index, fragments):
    """The reference prune: one pass over every live record finds the
    (type tag, promiser) pairs with a live promise, and an index entry stays
    only while its pair has one."""
    live = {
        (rec.statement.type_tag, rec.statement.promiser)
        for rec in fragments
        if rec.statement.kind is DirectionalKind.PROMISE
    }
    pruned = {}
    for (program, task), entries in index.items():
        tag = f"adequacy({program},{task})"
        kept = {p: t for p, t in entries.items() if (tag, p) in live}
        if kept:
            pruned[program, task] = kept
    return pruned


KEYS = list(itertools.product(["P", "R"], ["U", "V"]))
TAG_KEYS = {f"adequacy({p},{t})": (p, t) for p, t in KEYS}
holders = st.sampled_from(["q", "r"])
steps = st.one_of(
    st.tuples(
        st.just("hold"),
        holders,
        st.sampled_from(["a", "b", "c"]),
        st.sampled_from(["", "suggest!", "warn!"]),
        st.sampled_from([*TAG_KEYS, "note"]),
        st.booleans(),
    ),
    st.tuples(st.just("release"), holders, st.integers(0, 11)),
    st.tuples(st.just("prune"), holders),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(steps, max_size=30))
def test_incremental_prune_equals_full_rescan(script):
    """Random holds (of any kind and tag; the agent files the adequacy
    promises, optionally indexed, as the engine indexes what the promisee
    engages), releases and prunes on two agents: after every step each index
    equals a reference index that applies the same additions and, at each
    prune, the full rescan of the agent's live records."""
    states = {name: AgentState(id=name) for name in ("q", "r")}
    reference = {name: {} for name in states}
    held = {name: [] for name in states}  # each agent's live records, every kind
    counter = itertools.count()
    for tick, (op, name, *args) in enumerate(script):
        state = states[name]
        if op == "hold":
            promiser, kind_tag, type_tag, indexed = args
            stmt = parse(f'{promiser}[{kind_tag}{type_tag}:"x"]q')
            rec = Cohort(stmt, [name], f"{tick}-{next(counter)}", FADE, tick, 1)
            held[name].append(rec)
            if files(stmt):
                state.hold(stmt, rec.token)
            if indexed and stmt.kind is DirectionalKind.PROMISE and type_tag != "note":
                on_adequacy_promise(state, stmt, tick)
                reference[name].setdefault(TAG_KEYS[type_tag], {})[promiser] = tick
        elif op == "release" and held[name]:
            rec = held[name].pop(args[0] % len(held[name]))
            adequacy_promise = (
                rec.statement.kind is DirectionalKind.PROMISE
                and rec.statement.type_tag in TAG_KEYS
            )
            assert files(rec.statement) == adequacy_promise  # only these need a prune
            if adequacy_promise:
                state.release(rec.statement, rec.token)
        elif op == "prune":
            state.prune_adequacy_index()
            reference[name] = rescan_prune(reference[name], held[name])
        for other in states.values():
            assert other.adequacy_index == reference[other.id]
            for program, task in KEYS:
                tag = f"adequacy({program},{task})"
                assert other.active_adequacy_records(program, task) == [
                    (rec.token, rec.statement.promiser)
                    for rec in held[other.id]
                    if rec.statement.kind is DirectionalKind.PROMISE
                    and rec.statement.type_tag == tag
                ]
