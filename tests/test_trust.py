import sys
import pytest
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from coopsim.agents import AgentState
from coopsim.trust import (
    LEVELS,
    PTRUST,
    AppreciationKey,
    AppreciationKind,
    Outcome,
    TramPolicy,
    TrustKeyError,
    TrustStore,
    clamp_level,
    level_from_history,
)


def gkey(target="p"):
    return AppreciationKey(target)


def test_scale_and_ptrust():
    assert LEVELS == (-2, -1, 0, 1, 2)
    assert PTRUST[0] == Fraction(1, 2)
    assert PTRUST[2] == 1 - PTRUST[-2]
    assert PTRUST[1] == 1 - PTRUST[-1]
    assert all(0 < PTRUST[v] < 1 for v in LEVELS)


def test_key_field_requirements():
    """A key's kind is the one its qualifiers name; an empty id raises; the
    three trust kinds record assessments."""
    table = [
        ({}, AppreciationKind.GENERAL_TRUST),
        ({"task": "U"}, AppreciationKind.TASK_TRUST),
        ({"program": "P"}, AppreciationKind.PROGRAM_TRUST),
        ({"program": "P", "task": "U"}, AppreciationKind.CONFIDENCE),
    ]
    for qualifiers, kind in table:
        key = AppreciationKey("p", **qualifiers)
        assert key.kind is kind
        assert (key.program, key.task) == (
            qualifiers.get("program"), qualifiers.get("task")
        )
        if kind is not AppreciationKind.CONFIDENCE:
            assert TrustStore().record_assessment(key, Outcome.KEPT, 1) == 1
    message = r"^target, program and task may not be empty$"
    for target, qualifiers in [
        ("", {}), ("p", {"program": ""}), ("p", {"task": ""}),
        ("", {"program": "P", "task": "U"}),
    ]:
        with pytest.raises(TrustKeyError, match=message):
            AppreciationKey(target, **qualifiers)


def python_calls(action):
    """The names of the Python-level functions entered while ``action`` runs
    (``action`` itself included); functions written in C are not listed."""
    names = []

    def profile(frame, event, arg):
        if event == "call":
            names.append(frame.f_code.co_name)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        action()
    finally:
        sys.setprofile(previous)
    return names


def test_trust_keys_hash_and_compare_in_c():
    """Building a key, and every trust-store read and write, runs no
    Python-level ``__hash__`` or ``__eq__``: keys and kinds hash and compare
    in C.  Reads use equal keys that are not the written objects, so a hit
    compares keys as well as hashing them."""
    state = AgentState(id="q")
    store = state.trust
    written = AppreciationKey("p", task="U")
    read = AppreciationKey("p", task="U")
    store.set(gkey("p"), 1)
    actions = {
        "key build": lambda: AppreciationKey("p", program="P", task="U"),
        "set": lambda: store.set(written, 1),
        "get": lambda: store.get(read),
        "record_assessment": lambda: store.record_assessment(read, Outcome.KEPT, 1),
        "last_experience_tick": lambda: store.last_experience_tick(read),
        "trust_in": lambda: state.trust_in("p"),
    }
    for name, action in actions.items():
        for _ in range(2):  # trust_in builds its key once, then reuses it
            called = python_calls(action)
            assert called[0] == "<lambda>"  # the hook was live
            assert not {"__hash__", "__eq__"} & set(called), (name, called)
    assert store.get(read) == 2 and state.trust_in("p") == 1


def test_unwritten_keys_read_neutral():
    assert TrustStore().get(gkey()) == 0


def test_incremental_steps_and_saturation():
    store = TrustStore()
    key = gkey()
    store.set(key, 1)
    assert store.record_assessment(key, Outcome.KEPT, 1) == 2
    # "provided an increase is still possible": saturated at the top
    assert store.record_assessment(key, Outcome.KEPT, 2) == 2
    assert store.record_assessment(key, Outcome.BROKEN, 3) == 1
    for tick in range(4, 9):
        store.record_assessment(key, Outcome.BROKEN, tick)
    assert store.get(key) == -2


def test_assessment_rejects_non_trust_kinds():
    store = TrustStore()
    key = AppreciationKey("p", program="P", task="U")
    assert key.kind is AppreciationKind.CONFIDENCE
    with pytest.raises(TrustKeyError, match="^confidence is not a trust kind$"):
        store.record_assessment(key, Outcome.KEPT, 1)


def test_assessment_rejects_time_travel():
    store = TrustStore()
    store.record_assessment(gkey(), Outcome.KEPT, 5)
    with pytest.raises(TrustKeyError):
        store.record_assessment(gkey(), Outcome.KEPT, 4)


def test_experience_and_last_tick():
    store = TrustStore()
    key = gkey()
    assert store.last_experience_tick(key) is None
    store.record_assessment(key, Outcome.KEPT, 3)
    store.record_assessment(key, Outcome.BROKEN, 9)
    assert store.last_experience_tick(key) == 9


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
        store.set(gkey(), start)
        for tick, outcome in enumerate(history):
            level = store.record_assessment(gkey(), outcome, tick, policy)
            assert -2 <= level <= 2
        if policy is TramPolicy.RECENCY and history:
            assert store.get(gkey()) == oracle_recency(history)


def test_clamp():
    assert clamp_level(7) == 2
    assert clamp_level(-7) == -2
    assert clamp_level(1) == 1


names = st.sampled_from(["", "p", "q", "P", "U"])
key_fields = st.tuples(names, st.none() | names, st.none() | names)


def well_formed(target, program, task):
    return bool(target) and program != "" and task != ""


@settings(max_examples=500, deadline=None)
@given(fields=key_fields, other=key_fields, level=st.sampled_from(LEVELS))
def test_interned_keys_match_fresh_keys(fields, other, level):
    """Keys are immutable and compare and hash as their fields do; an agent's
    interned general-trust key reads what a freshly built key wrote; a
    malformed key still raises."""
    if not well_formed(*fields):
        with pytest.raises(TrustKeyError):
            AppreciationKey(*fields)
        return
    key = AppreciationKey(*fields)
    fresh = AppreciationKey(*fields)
    assert key == fresh and hash(key) == hash(fresh)
    values = (*other, AppreciationKind.CONFIDENCE)
    for name, value in zip(("target", "program", "task", "kind"), values):
        with pytest.raises(AttributeError):
            setattr(key, name, value)
    assert key == fresh
    if well_formed(*other):
        assert (AppreciationKey(*other) == key) == (other == fields)
    target, program, task = fields
    if program is None and task is None:
        state = AgentState(id="q")
        interned = state.general_key(target)
        assert interned == fresh and hash(interned) == hash(fresh)
        assert state.general_key(target) is interned
        state.trust.set(fresh, level)  # the trust directive's path
        assert state.trust_in(target) == level
