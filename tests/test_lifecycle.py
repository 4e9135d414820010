import re
from itertools import accumulate
from operator import attrgetter
from pathlib import Path
from unittest import mock

import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from coopsim.engine import _Engine
from coopsim.scenario import load
from coopsim.lifecycle import Cohort, LifecycleState
from coopsim.statements import FadeSpec, _fmt_fraction, parse

ACTIVE, FADED = LifecycleState.ACTIVE, LifecycleState.FADED
STATEMENT = parse('p[pi:"b"/{q}]q')  # not an adequacy promise: no agent files it


def fresh(
    fade=FadeSpec(span=100, threshold=Fraction(1, 20)), origin=0, rate=1, subject="q"
):
    """A one-subject cohort, as the stepping reference's record."""
    return Cohort(
        STATEMENT, [subject], f"{origin}-0", fade, origin, fade_rate_multiplier=rate
    )


def step_fade(rec, now):
    """The stepping reference for the engine's fade queue: advance the
    fading of ``rec``, an active one-subject cohort, to ``now``; it becomes
    faded once ``now`` reaches its fade deadline."""
    assert rec.state is ACTIVE
    if now < rec.shown_at:
        raise ValueError("fading cannot run backwards")
    rec.shown_at = now
    if now >= rec.fade_deadline():
        rec.state = FADED
    return rec


def refresh(rec, now):
    """Reset the fading of ``rec`` at ``now``, as an equivalent reissue in
    ``_Engine.deliver`` does."""
    rec.origin = rec.shown_at = now


def test_readme_names_every_record_field():
    """README's cohort paragraph names the fields of a cohort, in slot
    order, each before its description in parentheses."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    sentence = re.search(r"A cohort has the fields (.*?)\.\s+`fade_level`", readme, re.S)
    named = re.findall(r"`(\w+)`", re.sub(r"\([^()]*\)", "", sentence.group(1)))
    assert tuple(named) == Cohort.__slots__


def test_linear_fade_values():
    rec = fresh()
    step_fade(rec, 25)
    assert rec.fade_level == Fraction(3, 4)
    step_fade(rec, 50)
    assert rec.fade_level == Fraction(1, 2)
    assert rec.state is ACTIVE


def test_fade_below_threshold_terminates():
    rec = fresh()
    step_fade(rec, 96)
    assert rec.fade_level == Fraction(1, 25)
    assert rec.state is FADED


def test_fade_exactly_at_threshold_stays_active():
    rec = fresh()
    step_fade(rec, 95)
    assert rec.fade_level == Fraction(1, 20)
    assert rec.state is ACTIVE


def test_fade_never_negative():
    rec = fresh()
    step_fade(rec, 1000)
    assert rec.fade_level == 0
    assert rec.state is FADED


def test_integer_fade_life_equals_the_fraction_form():
    """``life`` works in the threshold's numerator and denominator; it is
    the ticks ``(1 - threshold) * span // rate + 1`` of the fraction form."""
    thresholds = {Fraction(n, d) for d in range(2, 41) for n in range(1, d)}
    for threshold in sorted(thresholds):
        rest = 1 - threshold
        for span in range(1, 201):
            fade = FadeSpec(span, threshold)
            for rate in (1, 4):
                assert fade.life(rate) == rest * span // rate + 1, (fade, rate)


def test_fast_discard_multiplier():
    rec = fresh()
    rec.fade_rate_multiplier = Fraction(4)
    step_fade(rec, 10)
    assert rec.fade_level == Fraction(3, 5)


def test_fade_cannot_run_backwards():
    rec = fresh()
    step_fade(rec, 10)
    with pytest.raises(ValueError):
        step_fade(rec, 9)


def test_terminal_transition_shows_the_level_at_the_last_fade_tick():
    """``retire`` shows an ending cohort's level as of the last tick fading
    ran at, or at full level for a cohort issued since.  A fragment split
    off its cohort ends on its own, and the rest of the cohort later."""
    engine = fading_engine(fresh().fade)
    withdrawn = file_fresh(engine, "0-0", 0, ["q", "r"])
    fresh_this_tick = file_fresh(engine, "30-0", 30, ["q"])
    engine.fade_tick = 25
    kept = engine.split(withdrawn, "q")
    engine.retire(kept, LifecycleState.KEPT)
    assert engine.live["0-0"][2] == {0: withdrawn} and engine.terminated == set()
    engine.retire(withdrawn, LifecycleState.WITHDRAWN)
    engine.retire(fresh_this_tick, LifecycleState.WITHDRAWN)
    assert (kept.subjects, withdrawn.subjects) == (["q"], ["r"])
    for cohort in (kept, withdrawn):
        assert (cohort.fade_level, cohort.shown_at) == (Fraction(3, 4), 25)
    assert (fresh_this_tick.fade_level, fresh_this_tick.shown_at) == (1, 30)
    assert [c.state.value for c in (kept, withdrawn, fresh_this_tick)] == [
        "kept", "withdrawn", "withdrawn"
    ]
    assert engine.live == {} and engine.terminated == {"0-0", "30-0"}
    assert engine.refreshable == {}


def withdrawn_at_25(withdrawer):
    """An engine whose last fade step ran at 24, after ``withdrawer`` tried
    at 25 to withdraw token 1-0, which ``p`` issued at 1; and its cohort."""
    engine = _Engine(
        load(
            'tick 1\nissue p[pi:"b"]q\n'
            f"tick 25\nwithdraw {withdrawer} token=1-0\n"
        )
    )
    issue, withdraw = engine.scenario.events
    engine.apply_event(issue)
    (cohort,) = engine.live["1-0"][2].values()
    engine.fade_tick = 24
    engine.apply_event(withdraw)
    return engine, cohort


def test_rejected_withdraw_leaves_the_level_alone():
    engine, cohort = withdrawn_at_25("q")
    assert engine.live["1-0"][2] == {1: cohort}
    assert (cohort.subjects, cohort.state, cohort.shown_at) == (["p", "q"], ACTIVE, 1)


def test_withdraw_promiser_only():
    engine, cohort = withdrawn_at_25("p")
    assert "1-0" not in engine.live and engine.terminated == {"1-0"}
    assert (cohort.subjects, cohort.state, cohort.shown_at) == (
        ["p", "q"], LifecycleState.WITHDRAWN, 24
    )


def test_refresh_resets_fading():
    result = _Engine(
        load(
            "policy fade-span=100 fade-threshold=0.05\n"
            'tick 1\nissue p[pi:"b"]q\ntick 50\nissue p[pi:"b"]q\n'
        )
    ).run()
    assert "t=50 lifecycle token=1-0 subject=q state=active fade=1 rate=1" in (
        result.trace
    )
    (rec,) = result.agents["q"].fragments
    assert (rec.origin, rec.fade_level, rec.state) == (50, 1, ACTIVE)


def fading_engine(spec):
    return _Engine(
        load(f"policy fade-span={spec.span} fade-threshold={spec.threshold}")
    )


def file_fresh(engine, token, origin, subjects, rate=1):
    """File in ``engine`` a fresh cohort of ``token`` that ``subjects`` hold,
    as ``deliver`` files one, and return it."""
    cohort = Cohort(STATEMENT, list(subjects), token, engine.fade, origin, rate)
    key = ("key", token)
    holders = engine.refreshable[key] = dict.fromkeys(subjects, cohort)
    engine.live[token] = (key, holders, {origin: cohort})
    engine.file_deadline(cohort)
    return cohort


def fade_step(engine, tick):
    """Run ``engine``'s fade step at ``tick`` and return the members, as
    (cohort, subject) pairs, of the cohorts it faded, after checking that
    each cohort is non-empty, that no two share a token and an origin, and
    that the step wrote each member's lifecycle line in (subject, token)
    order, and nothing else.  A cohort is what one ``retire`` call ends."""
    cohorts = []

    def recording(cohort, state):
        assert state is FADED and cohort.subjects
        cohorts.append(cohort)
        _Engine.retire(engine, cohort, state)

    start = len(engine.trace)
    with mock.patch.object(engine, "retire", recording):
        engine.fade_step(tick)
    assert len({(cohort.token, cohort.origin) for cohort in cohorts}) == len(cohorts)
    faded = [(cohort, subject) for cohort in cohorts for subject in cohort.subjects]
    by_subject = sorted(faded, key=lambda member: (member[1], member[0].token))
    assert engine.trace[start:] == [
        f"t={tick} lifecycle token={cohort.token} subject={subject} "
        f"state=faded fade={_fmt_fraction(cohort.fade_level)} "
        f"rate={_fmt_fraction(cohort.fade_rate_multiplier)}"
        for cohort, subject in by_subject
    ]
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
    while dense.state is ACTIVE:
        step_fade(dense, dense.shown_at + 1)
    assert dense.shown_at == fresh(spec, origin, rate).fade_deadline()

    engine = fading_engine(spec)
    ref = fresh(spec, origin, rate)
    fast = file_fresh(engine, ref.token, origin, ["q"], rate)
    for index, tick in enumerate(ticks):
        if index == refresh_at and ref.state is ACTIVE:
            refresh(ref, tick)
            engine.refresh(fast, "q", tick)  # into the cohort at its new origin
            fast = engine.live[ref.token][1]["q"]
        if ref.state is ACTIVE:
            step_fade(ref, tick)
        faded = fade_step(engine, tick)
        if ref.state is FADED and ref.shown_at == tick:
            assert faded == [(fast, "q")]
        else:
            assert faded == []
        assert fast.state is ref.state
        assert (fast.token in engine.live) is (fast.state is ACTIVE)
        if ref.state is FADED:
            assert (fast.fade_level, fast.shown_at) == (
                ref.fade_level,
                ref.shown_at,
            )
        else:  # the level a kept, broken or withdrawn line would show
            decay = Fraction(rate * (tick - fast.origin), spec.span)
            assert max(Fraction(0), 1 - decay) == ref.fade_level
    if fast.state is ACTIVE:  # as the end-of-run pass shows a live fragment
        fast.shown_at = ticks[-1]
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
            refresh(rec, tick)
            level, last = Fraction(1), tick
            deadline = first_faded_tick(level, last)
        if not faded:
            assert rec.fade_deadline() == deadline
            step_fade(rec, tick)
            level, last = step(level, last, tick), tick
            faded = level < spec.threshold
        assert rec.state is (FADED if faded else ACTIVE)
        assert rec.fade_level == level
        engine.emit_lifecycle(tick, rec, *rec.subjects)
        assert engine.trace[-1].endswith(
            f" fade={_fmt_fraction(level)} rate={_fmt_fraction(Fraction(rate))}"
        )


@st.composite
def cohort_runs(draw):
    """A fading run as above and, for each of k fragments filed as one
    cohort, what happens to it: nothing, or a refresh, a kept assessment or
    a withdrawal at one of the fade ticks."""
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


ENDINGS = {"assess": LifecycleState.KEPT, "withdraw": LifecycleState.WITHDRAWN}


@settings(max_examples=300, deadline=None)
@given(cohort_runs())
def test_fade_queue_cohort_equals_stepping_each_record(run):
    """Each member of one delivered cohort against its own stepped record:
    a refresh moves a member into its token's cohort at the new origin, an
    assessment or a withdrawal splits it off and ends it alone, and every
    member fades, with the cohort it was last put in, at the first fade tick
    at or after its deadline."""
    spec, rate, origin, ticks, events = run
    engine = fading_engine(spec)
    subjects = [f"q{i}" for i in range(len(events))]
    refs = [fresh(spec, origin, rate) for _ in events]
    token = refs[0].token
    where = dict.fromkeys(subjects, file_fresh(engine, token, origin, subjects, rate))
    for index, tick in enumerate(ticks):
        for ref, subject, event in zip(refs, subjects, events):
            if event is None or event[1] != index or ref.state is not ACTIVE:
                continue
            if event[0] == "refresh":
                refresh(ref, tick)
                engine.refresh(where[subject], subject, tick)
                where[subject] = engine.live[token][1][subject]
            else:  # as an outcome ends one fragment
                # ref was stepped to the last fade tick, or issued since
                ref.state = ending = ENDINGS[event[0]]
                where[subject] = engine.split(where[subject], subject)
                engine.retire(where[subject], ending)
        expected = []
        for ref, subject in zip(refs, subjects):
            if ref.state is ACTIVE:
                step_fade(ref, tick)
                if ref.state is FADED:
                    expected.append(subject)
        last_fade_tick = engine.fade_tick
        faded = fade_step(engine, tick)
        assert sorted(subject for _, subject in faded) == sorted(expected)
        for cohort, subject in faded:  # at the first fade tick at or after its deadline
            assert cohort is where[subject] and cohort.state is FADED
            assert cohort.fade_deadline() <= tick
            assert last_fade_tick < cohort.fade_deadline()
        live = engine.live.get(token, (None, None, {}))[2]
        assert sorted(s for cohort in live.values() for s in cohort.subjects) == [
            subject for ref, subject in zip(refs, subjects) if ref.state is ACTIVE
        ]
    for ref, subject in zip(refs, subjects):
        cohort = where[subject]
        if cohort.state is ACTIVE:  # as the end-of-run pass shows a live fragment
            cohort.shown_at = ticks[-1]
        assert (cohort.state, cohort.fade_level, cohort.shown_at) == (
            ref.state,
            ref.fade_level,
            ref.shown_at,
        )
