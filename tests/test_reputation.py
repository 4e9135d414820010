import pytest
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from coopsim.reputation import lor_update, survey_reinit
from coopsim.trust import LEVELS, TrustKeyError


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


def test_lor_rejects_off_scale_levels():
    with pytest.raises(TrustKeyError):
        lor_update(3, 0)
    with pytest.raises(TrustKeyError):
        lor_update(0, -3)


def test_survey_reinit_floors_average():
    assert survey_reinit(2, Fraction(2, 3), False) == 0
    assert survey_reinit(-2, Fraction(5, 3), False) == 1
    assert survey_reinit(0, Fraction(-1, 2), False) == -1
    assert survey_reinit(0, Fraction(2), False) == 2


def test_survey_keeps_recently_observed_members():
    assert survey_reinit(2, Fraction(-2), True) == 2


def test_survey_rejects_off_scale_average():
    with pytest.raises(ValueError):
        survey_reinit(0, Fraction(5, 2), False)


@settings(max_examples=300, deadline=None)
@given(
    member=st.sampled_from(LEVELS),
    levels=st.lists(st.sampled_from(LEVELS), min_size=1, max_size=10),
)
def test_survey_approximates_from_below(member, levels):
    average = Fraction(sum(levels), len(levels))
    out = survey_reinit(member, average, False)
    assert out <= average
    assert -2 <= out <= 2
