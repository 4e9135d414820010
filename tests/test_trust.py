import inspect
import sys
import pytest
from enum import Enum
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings, strategies as st

from coopsim.agents import AgentState
from coopsim.engine import run
from coopsim.scenario import ScenarioError, load, load_path
from coopsim.statements import Body
from coopsim.trust import (
    _KINDS,
    LEVELS,
    PTRUST,
    AppreciationKind,
    Outcome,
    TramPolicy,
    TrustStore,
    clamp_level,
    level_from_history,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def test_scale_and_ptrust():
    assert LEVELS == (-2, -1, 0, 1, 2)
    assert PTRUST[0] == Fraction(1, 2)
    assert PTRUST[2] == 1 - PTRUST[-2]
    assert PTRUST[1] == 1 - PTRUST[-1]
    assert all(0 < PTRUST[v] < 1 for v in LEVELS)


def test_key_field_requirements():
    """A level's kind is the one its qualifiers name, and each kind is its
    own level; an empty qualifier is rejected by ``load`` with its line;
    general trust records assessments."""
    table = [
        ({}, AppreciationKind.GENERAL_TRUST),
        ({"task": "U"}, AppreciationKind.TASK_TRUST),
        ({"program": "P"}, AppreciationKind.PROGRAM_TRUST),
        ({"program": "P", "task": "U"}, AppreciationKind.CONFIDENCE),
    ]
    store = TrustStore()
    for level, (qualifiers, kind) in zip((-2, -1, 1, 2), table):
        assert _KINDS["program" in qualifiers, "task" in qualifiers] is kind
        store.set("p", level, **qualifiers)
    for level, (qualifiers, _) in zip((-2, -1, 1, 2), table):
        assert store.get("p", **qualifiers) == level
    assert TrustStore().record_assessment("p", Outcome.KEPT, 1) == 1
    for name, qualifier in [("program", "program= task=U"), ("task", "task=")]:
        for directive in ("trust", "expect-trust"):
            with pytest.raises(ScenarioError, match=f"^line 2: empty {name}= value$"):
                load(f"tick 0\n{directive} q p {qualifier} = 1\n")


def python_calls(action):
    """The code objects of the Python-level functions entered while
    ``action`` runs (``action`` itself included); functions written in C are
    not listed."""
    called = []

    def profile(frame, event, arg):
        if event == "call":
            called.append(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        action()
    finally:
        sys.setprofile(previous)
    return called


def test_trust_keys_hash_and_compare_in_c():
    """Every trust-store read and write runs no Python-level ``__hash__`` or
    ``__eq__``: general trust is keyed by the target's name and qualified
    levels by a plain tuple, which hash and compare in C.  Reads use equal
    keys that are not the written objects, so a hit compares keys as well as
    hashing them."""
    state = AgentState(id="q")
    store = state.trust
    target = "".join(["p", "x"])  # not the literal's interned object
    store.set("px", 0)
    actions = {
        "set": lambda: store.set("px", 1, task="U"),
        "get": lambda: store.get(target, task="U"),
        "general get": lambda: store.get(target),
        "record_assessment": lambda: store.record_assessment(target, Outcome.KEPT, 1),
        "recent": lambda: store.recent.get(target),
        "trust_in": lambda: state.trust_in(target),
    }
    for name, action in actions.items():
        for _ in range(2):
            called = [code.co_name for code in python_calls(action)]
            assert called[0] == "<lambda>"  # the hook was live
            assert not {"__hash__", "__eq__"} & set(called), (name, called)
    assert store.get("px", task="U") == 1 and state.trust_in("px") == 2


def test_run_calls_no_enum_hash():
    """Lifecycle states and directional kinds hash by identity, so loading
    and running a shipped scenario and rendering its trace enter no
    ``Enum.__hash__``: not for the lifecycle-text memo key, nor for the
    ``equivalence_key`` a delivery and a retirement hash."""
    def load_and_run():
        run(load_path(SCENARIOS / "parking.coop")).trace_text()

    called = python_calls(load_and_run)
    assert called[0].co_name == "load_and_run"  # the hook was live
    names = {code.co_name for code in called}
    assert {"deliver", "retire", "lifecycle_text", "equivalence_key"} <= names
    assert Enum.__hash__.__code__ not in called


def test_run_enters_no_body_method():
    """``load`` has checked every statement, so a run and its trace build
    no validated object again: the equivalence key is plain strings, and
    the attribute verdict reads plain dicts.  Running and rendering a
    scenario of attribute rules and equivalent reissues enters no method of
    ``statements.Body``."""
    scenario = load_path(SCENARIOS / "attr_rules.coop")
    body_methods = {
        getattr(Body, name).__code__
        for name in ("__init__", "__hash__", "__eq__")
    }

    def run_and_render():
        run(scenario).trace_text()

    called = python_calls(run_and_render)
    assert called[0].co_name == "run_and_render"  # the hook was live
    assert {"deliver", "attribute_install_decision"} <= {c.co_name for c in called}
    assert body_methods.isdisjoint(called)


def test_unwritten_keys_read_neutral():
    assert TrustStore().get("p") == 0
    assert TrustStore().get("p", "P", "U") == 0


def test_incremental_steps_and_saturation():
    store = TrustStore()
    store.set("p", 1)
    assert store.record_assessment("p", Outcome.KEPT, 1) == 2
    # "provided an increase is still possible": saturated at the top
    assert store.record_assessment("p", Outcome.KEPT, 2) == 2
    assert store.record_assessment("p", Outcome.BROKEN, 3) == 1
    for tick in range(4, 9):
        store.record_assessment("p", Outcome.BROKEN, tick)
    assert store.get("p") == -2


def test_assessment_rejects_non_trust_kinds():
    """Only general trust is assessed: an assessment names a target and no
    qualifier, and leaves the qualified levels of that target alone."""
    assert _KINDS[True, True] is AppreciationKind.CONFIDENCE
    assert list(inspect.signature(TrustStore.record_assessment).parameters) == [
        "self", "target", "outcome", "tick", "policy"
    ]
    store = TrustStore()
    qualified = [("P", "U", 2), ("P", None, -1), (None, "U", 1)]
    for program, task, level in qualified:
        store.set("p", level, program, task)
    assert store.record_assessment("p", Outcome.KEPT, 1) == 1
    for program, task, level in qualified:
        assert store.get("p", program, task) == level
    assert store.recent["p"][0] == 1


def test_experience_and_last_tick():
    store = TrustStore()
    assert "p" not in store.recent
    store.record_assessment("p", Outcome.KEPT, 3)
    store.record_assessment("p", Outcome.BROKEN, 9)
    assert store.recent["p"][0] == 9


K, B = Outcome.KEPT, Outcome.BROKEN


@pytest.mark.parametrize(
    "history,level",
    [
        ([], 0),
        ([K], 1),
        ([B, K], 1),
        ([K, K], 2),
        ([B, K, K], 2),
        ([B], -1),
        ([K, B], -1),
        ([B, K, B], -1),  # only one recent negative
        ([B, B], -2),
        ([K, B, B], -2),
        ([B, K, B, B], -2),
    ],
)
def test_recency_level_cases(history, level):
    assert level_from_history(history) == level


def oracle_recency(history):
    # independent re-derivation used by the fuzz check
    if not history:
        return 0
    if history[-1] is K:
        return 2 if len(history) > 1 and history[-2] is K else 1
    broken = history.count(B)
    if broken >= 2 and len(history) > 1 and history[-2] is B:
        return -2
    return -1


@settings(max_examples=500, deadline=None)
@given(
    st.lists(st.sampled_from([K, B]), max_size=30),
    st.sampled_from(LEVELS),
)
def test_both_policies_stay_on_scale(history, start):
    for policy in TramPolicy:
        store = TrustStore()
        store.set("p", start)
        for tick, outcome in enumerate(history):
            level = store.record_assessment("p", outcome, tick, policy)
            assert -2 <= level <= 2
        if policy is TramPolicy.RECENCY and history:
            assert store.get("p") == oracle_recency(history)


def test_clamp():
    assert clamp_level(7) == 2
    assert clamp_level(-7) == -2
    assert clamp_level(1) == 1


targets = st.sampled_from(["p", "q", "P"])
qualifiers = st.sampled_from(["P", "U", "p"])
addresses = st.tuples(targets, st.none() | qualifiers, st.none() | qualifiers)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("set"), addresses, st.sampled_from(LEVELS)),
        st.tuples(st.just("assess"), targets, st.sampled_from([K, B]),
                  st.integers(0, 2)),
        st.tuples(st.just("get"), addresses),
    ),
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(ops=operations, policy=st.sampled_from(TramPolicy))
def test_store_matches_dict_reference(ops, policy):
    """Random writes, assessments and reads on general and qualified
    addresses agree with one dict over ``(target, program, task)``: general
    trust in ``p`` is ``(p, None, None)`` and never aliases a qualified level
    of ``p``, and levels stay on -2..2."""
    store = TrustStore()
    levels = {}  # (target, program, task) -> level
    history = {}  # target -> [(tick, outcome), ...]
    tick = 0
    for op in ops:
        if op[0] == "set":
            (target, program, task), level = op[1:]
            store.set(target, level, program, task)
            levels[target, program, task] = level
        elif op[0] == "assess":
            target, outcome, step = op[1:]
            tick += step
            seen = history.setdefault(target, [])
            seen.append((tick, outcome))
            if policy is TramPolicy.INCREMENTAL:
                old = levels.get((target, None, None), 0)
                expected = max(-2, min(2, old + (1 if outcome is K else -1)))
            else:
                expected = oracle_recency([o for _, o in seen])
            levels[target, None, None] = expected
            assert store.record_assessment(target, outcome, tick, policy) == expected
        else:
            assert store.get(*op[1]) == levels.get(op[1], 0)
        for target in ("p", "q", "P"):
            seen = history.get(target)
            assert store.recent.get(target, (None,))[0] == (
                seen[-1][0] if seen else None
            )
        assert store.general == {
            t: v for (t, p, k), v in levels.items() if p is None and k is None
        }
        assert store.qualified == {
            a: v for a, v in levels.items() if a[1:] != (None, None)
        }
        assert {*store.general.values(), *store.qualified.values()} <= set(LEVELS)
    for address in levels:
        assert store.get(*address) == levels[address]
