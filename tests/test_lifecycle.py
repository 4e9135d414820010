from itertools import accumulate
from operator import attrgetter
from unittest import mock

import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from coopsim import engine as engine_module
from coopsim.engine import _Engine
from coopsim.scenario import load
from coopsim.lifecycle import (
    LifecycleError,
    LifecycleRecord,
    LifecycleState,
    fade_cohort,
)
from coopsim.statements import FadeSpec, _fmt_fraction, parse
from coopsim.trust import Outcome


def fresh(
    fade=FadeSpec(span=100, threshold=Fraction(1, 20)), origin=0, rate=1, subject="q"
):
    stmt = parse('p[pi:"b"/{q}]q')
    return LifecycleRecord(
        stmt, subject, f"{origin}-0", fade, origin, fade_rate_multiplier=rate
    )


def test_linear_fade_values():
    rec = fresh()
    rec.step_fade(25)
    assert rec.fade_level == Fraction(3, 4)
    rec.step_fade(50)
    assert rec.fade_level == Fraction(1, 2)
    assert rec.state is LifecycleState.ACTIVE


def test_fade_below_threshold_terminates():
    rec = fresh()
    rec.step_fade(96)
    assert rec.fade_level == Fraction(1, 25)
    assert rec.state is LifecycleState.FADED
    assert rec.terminal


def test_fade_exactly_at_threshold_stays_active():
    rec = fresh()
    rec.step_fade(95)
    assert rec.fade_level == Fraction(1, 20)
    assert rec.state is LifecycleState.ACTIVE


def test_fade_never_negative():
    rec = fresh()
    rec.step_fade(1000)
    assert rec.fade_level == 0
    assert rec.state is LifecycleState.FADED


def test_fast_discard_multiplier():
    rec = fresh()
    rec.fade_rate_multiplier = Fraction(4)
    rec.step_fade(10)
    assert rec.fade_level == Fraction(3, 5)


def test_fade_cannot_run_backwards():
    rec = fresh()
    rec.step_fade(10)
    with pytest.raises(LifecycleError):
        rec.step_fade(9)


def test_terminal_transition_shows_the_level_at_the_last_fade_tick():
    kept, withdrawn, fresh_this_tick = fresh(), fresh(), fresh(origin=30)
    kept.assess(Outcome.KEPT, fade_to=25)
    withdrawn.withdraw("p", fade_to=25)
    fresh_this_tick.withdraw("p", fade_to=25)  # issued after tick 25
    for rec in (kept, withdrawn):
        assert (rec.fade_level, rec.shown_at) == (Fraction(3, 4), 25)
    assert fresh_this_tick.fade_level == 1


def test_rejected_withdraw_leaves_the_level_alone():
    rec = fresh()
    with pytest.raises(LifecycleError):
        rec.withdraw("q", fade_to=25)
    assert (rec.fade_level, rec.shown_at) == (1, 0)


def test_assessment_outcomes():
    rec = fresh()
    rec.assess(Outcome.KEPT)
    assert rec.state is LifecycleState.KEPT
    rec2 = fresh()
    rec2.assess(Outcome.BROKEN)
    assert rec2.state is LifecycleState.BROKEN


def test_withdraw_promiser_only():
    rec = fresh()
    with pytest.raises(LifecycleError):
        rec.withdraw("q")
    rec.withdraw("p")
    assert rec.state is LifecycleState.WITHDRAWN


def test_terminal_states_absorb():
    rec = fresh()
    rec.assess(Outcome.KEPT)
    for op in (
        lambda: rec.step_fade(2),
        lambda: rec.assess(Outcome.BROKEN),
        lambda: rec.withdraw("p"),
        lambda: rec.refresh_on_repetition(2),
    ):
        with pytest.raises(LifecycleError):
            op()
    assert rec.state is LifecycleState.KEPT


def test_refresh_resets_fading():
    rec = fresh()
    rec.step_fade(50)
    rec.refresh_on_repetition(60)
    assert rec.fade_level == Fraction(1)
    assert rec.state is LifecycleState.ACTIVE


def fading_engine(spec):
    return _Engine(
        load(f"policy fade-span={spec.span} fade-threshold={spec.threshold}")
    )


def file_fresh(engine, recs):
    """File ``recs``, the fresh records of one token, each with its own
    subject, in ``engine`` as ``deliver`` files them."""
    first = recs[0]
    key = ("key", first.token)
    holders = engine.refreshable[key] = {rec.subject: rec for rec in recs}
    engine.live[first.token] = (key, holders, list(recs))
    engine.file_deadline(first)


def fade_step(engine, tick):
    """Run ``engine``'s fade step at ``tick`` and return the members of the
    cohorts it faded, after checking that each cohort is a non-empty list of
    records sharing a token and an origin, that no two share both, and that
    the step wrote each member's lifecycle line in (subject, token) order,
    and nothing else."""
    cohorts = []

    def recording(recs, origin, now):
        cohort = fade_cohort(recs, origin, now)
        if cohort:
            cohorts.append(cohort)
        return cohort

    start = len(engine.trace)
    with mock.patch.object(engine_module, "fade_cohort", recording):
        engine.fade_step(tick)
    shared = [{(rec.token, rec.origin) for rec in cohort} for cohort in cohorts]
    assert all(len(pairs) == 1 for pairs in shared)
    assert len(set().union(*shared)) == len(cohorts)
    faded = [rec for cohort in cohorts for rec in cohort]
    by_subject = sorted(faded, key=attrgetter("subject", "token"))
    assert engine.trace[start:] == [engine.lifecycle_line(tick, r) for r in by_subject]
    return faded


@st.composite
def fading_runs(draw):
    """A fade spec, a rate, an origin, strictly increasing sparse fade ticks
    from the origin on, and the index of the tick (if any) whose directives
    refresh the record."""
    spec = FadeSpec(
        span=draw(st.integers(1, 60)),
        threshold=draw(
            st.fractions(min_value=0, max_value=1, max_denominator=40).filter(
                lambda t: 0 < t < 1
            )
        ),
    )
    rate = draw(st.sampled_from([1, 4]))
    origin = draw(st.integers(0, 50))
    gaps = draw(st.lists(st.integers(1, 15), max_size=30))
    ticks = list(accumulate(gaps, initial=origin))
    refresh_at = draw(st.none() | st.integers(0, len(ticks) - 1))
    return spec, rate, origin, ticks, refresh_at


@settings(max_examples=400, deadline=None)
@given(fading_runs())
def test_fade_queue_equals_stepping_at_every_tick(run):
    spec, rate, origin, ticks, refresh_at = run
    dense = fresh(spec, origin, rate)
    while dense.state is LifecycleState.ACTIVE:
        dense.step_fade(dense.shown_at + 1)
    assert dense.shown_at == fresh(spec, origin, rate).fade_deadline()

    engine = fading_engine(spec)
    ref, fast = fresh(spec, origin, rate), fresh(engine.fade, origin, rate)
    file_fresh(engine, [fast])
    for index, tick in enumerate(ticks):
        if index == refresh_at and not ref.terminal:
            ref.refresh_on_repetition(tick)
            fast.refresh_on_repetition(tick)
            engine.file_deadline(fast)
        if not ref.terminal:
            ref.step_fade(tick)
        faded = fade_step(engine, tick)
        if ref.state is LifecycleState.FADED and ref.shown_at == tick:
            assert len(faded) == 1 and faded[0] is fast
        else:
            assert faded == []
        assert fast.state is ref.state
        assert (fast.token in engine.live) is not fast.terminal
        if ref.terminal:
            assert (fast.fade_level, fast.shown_at) == (
                ref.fade_level,
                ref.shown_at,
            )
        else:  # the level a kept, broken or withdrawn line would show
            decay = Fraction(rate * (tick - fast.origin), spec.span)
            assert max(Fraction(0), 1 - decay) == ref.fade_level
    if not fast.terminal:  # as the engine shows a live record at the end of a run
        fast.fade_to(ticks[-1])
    assert (fast.state, fast.fade_level, fast.shown_at) == (
        ref.state,
        ref.fade_level,
        ref.shown_at,
    )


@settings(max_examples=400, deadline=None)
@given(fading_runs())
def test_integer_fade_clock_equals_the_fraction_recurrence(run):
    """Reference: the level is a ``Fraction`` stepped at each fade tick by
    ``level <- max(0, level - rate*(now - last)/span)``, the record fades once
    the level is below the threshold, and a refresh sets the level to 1."""
    spec, rate, origin, ticks, refresh_at = run
    engine = _Engine(
        load(f"policy fade-span={spec.span} fade-threshold={spec.threshold}")
    )
    rec = fresh(engine.fade, origin, rate)
    level, last, faded = Fraction(1), origin, False

    def step(level, last, now):
        return max(Fraction(0), level - rate * Fraction(now - last, spec.span))

    def first_faded_tick(level, last):
        while level >= spec.threshold:
            level, last = step(level, last, last + 1), last + 1
        return last

    deadline = first_faded_tick(level, last)
    for index, tick in enumerate(ticks):
        if index == refresh_at and not faded:
            rec.refresh_on_repetition(tick)
            level, last = Fraction(1), tick
            deadline = first_faded_tick(level, last)
        if not faded:
            assert rec.fade_deadline() == deadline
            rec.step_fade(tick)
            level, last = step(level, last, tick), tick
            faded = level < spec.threshold
        assert rec.state is (LifecycleState.FADED if faded else LifecycleState.ACTIVE)
        assert rec.fade_level == level
        engine.emit_lifecycle(tick, rec)
        assert engine.trace[-1].endswith(
            f" fade={_fmt_fraction(level)} rate={_fmt_fraction(Fraction(rate))}"
        )


@st.composite
def cohort_runs(draw):
    """A fading run as above and, for each of k records filed as one cohort,
    what happens to it: nothing, or a refresh, a kept assessment or a
    withdrawal at one of the fade ticks."""
    spec, rate, origin, ticks, _ = draw(fading_runs())
    events = draw(
        st.lists(
            st.none()
            | st.tuples(
                st.sampled_from(["refresh", "assess", "withdraw"]),
                st.integers(0, len(ticks) - 1),
            ),
            min_size=1,
            max_size=6,
        )
    )
    return spec, rate, origin, ticks, events


@settings(max_examples=300, deadline=None)
@given(cohort_runs())
def test_fade_queue_cohort_equals_stepping_each_record(run):
    spec, rate, origin, ticks, events = run
    engine = fading_engine(spec)
    refs = [fresh(spec, origin, rate) for _ in events]
    recs = [fresh(engine.fade, origin, rate, f"q{i}") for i in range(len(events))]
    file_fresh(engine, recs)
    for index, tick in enumerate(ticks):
        last_fade_tick = ticks[index - 1] if index else None
        for ref, rec, event in zip(refs, recs, events):
            if event is None or event[1] != index or ref.terminal:
                continue
            for r in (ref, rec):
                if event[0] == "refresh":
                    r.refresh_on_repetition(tick)
                elif event[0] == "assess":
                    r.assess(Outcome.KEPT, fade_to=last_fade_tick)
                else:
                    r.withdraw("p", fade_to=last_fade_tick)
            if event[0] == "refresh":  # filed anew under its new origin
                engine.file_deadline(rec)
            else:  # as an outcome or a withdraw ends it
                engine.retire(rec.token, (rec,))
        expected = []
        for ref, rec in zip(refs, recs):
            if not ref.terminal:
                ref.step_fade(tick)
                if ref.state is LifecycleState.FADED:
                    expected.append(rec)
        faded = fade_step(engine, tick)
        assert sorted(map(id, faded)) == sorted(map(id, expected))
        for rec in faded:  # at the first fade tick at or after its deadline
            assert rec.state is LifecycleState.FADED
            assert rec.fade_deadline() <= tick
            assert index == 0 or last_fade_tick < rec.fade_deadline()
        live = engine.live.get(recs[0].token, (None, None, []))[2]
        assert sorted(map(id, live)) == sorted(id(r) for r in recs if not r.terminal)
    for ref, rec in zip(refs, recs):
        if not rec.terminal:  # as the engine shows a live record at the end of a run
            rec.fade_to(ticks[-1])
        assert (rec.state, rec.fade_level, rec.shown_at) == (
            ref.state,
            ref.fade_level,
            ref.shown_at,
        )
