import math
import pytest
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from coopsim.engine import run
from coopsim.scenario import load
from coopsim.reputation import lor_update, survey_reinit
from coopsim.trust import LEVELS


@pytest.mark.parametrize(
    "asker,peer,expected",
    [
        (2, -2, -1),
        (0, -2, -1),
        (-2, -2, -2),  # min keeps the worse level
        (1, -1, None),
        (1, 0, None),
        (2, 1, 0),
        (-2, 1, 0),
        (1, 2, 1),
        (-1, 2, 1),
    ],
)
def test_lor_table(asker, peer, expected):
    assert lor_update(asker, peer) == expected


def test_survey_reinit_floors_average():
    assert survey_reinit(Fraction(2, 3)) == 0
    assert survey_reinit(Fraction(5, 3)) == 1
    assert survey_reinit(Fraction(-1, 2)) == -1
    assert survey_reinit(Fraction(2)) == 2


def test_survey_reinit_of_every_group_average_is_on_the_scale():
    """A group of n members at levels on the scale sums to -2n..2n, so the
    floor of its average is on the scale: ``survey_reinit`` clamps nothing."""
    for n in range(1, 17):
        for total in range(-2 * n, 2 * n + 1):
            average = Fraction(total, n)
            level = survey_reinit(average)
            assert level == math.floor(average) and level in LEVELS, (total, n)


SURVEY_AFTER_OBSERVATION = """\
policy recent-window=5
trust q p = 1
trust r p = 1
trust s p = -2
tick 1
issue p[adequacy(P,U):"adequate"]q
tick 2
outcome q program=P task=U result=success
tick {tick}
survey w group=q,r,s about=p
"""


def test_survey_keeps_recently_observed_members():
    """q last observed p at tick 2: a survey within the window of 5 ticks
    leaves its level alone, one tick later reinitializes it to the floor of
    the group average, (2 + 1 - 2) / 3."""
    for tick, q_level in ((7, 2), (8, 0)):
        result = run(load(SURVEY_AFTER_OBSERVATION.format(tick=tick)))
        levels = {s: result.agents[s].trust_in("p") for s in "qrs"}
        assert levels == {"q": q_level, "r": 0, "s": 0}


@settings(max_examples=300, deadline=None)
@given(levels=st.lists(st.sampled_from(LEVELS), min_size=1, max_size=10))
def test_survey_approximates_from_below(levels):
    average = Fraction(sum(levels), len(levels))
    out = survey_reinit(average)
    assert out <= average
    assert -2 <= out <= 2
