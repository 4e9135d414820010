import pytest
from fractions import Fraction

from coopsim.appraisal import (
    ATTRIBUTE_CATALOG,
    DEFAULT_GATE_FLOOR,
    INSTALL_RULES,
    REFUSE_RULES,
    ConsultantProfile,
    InstallVerdict,
    Route,
    attribute_install_decision,
    credibility_gate,
    credibility_level,
    credibility_score,
)


def test_catalog_shape():
    assert len(ATTRIBUTE_CATALOG) == 28
    assert len(set(ATTRIBUTE_CATALOG)) == 28
    assert all("-" in name for name in ATTRIBUTE_CATALOG)


def profile(**kw):
    defaults = dict(
        independent=True,
        experienced_with=frozenset({"U"}),
        consulted_range=frozenset(),
        recognized_reputation=frozenset(),
        producer_affiliation=frozenset(),
    )
    defaults.update(kw)
    return ConsultantProfile(**defaults)


def test_credibility_levels():
    assert credibility_level(profile(), "U") == 0
    assert credibility_level(profile(consulted_range=frozenset({"U"})), "U") == 1
    assert (
        credibility_level(
            profile(
                consulted_range=frozenset({"U"}),
                recognized_reputation=frozenset({"U"}),
            ),
            "U",
        )
        == 2
    )
    # affiliated with the producer and no own experience: worst level
    assert (
        credibility_level(
            profile(experienced_with=frozenset(), producer_affiliation=frozenset({"U"})),
            "U",
        )
        == -2
    )
    # affiliation also cancels independence even with experience
    assert (
        credibility_level(profile(producer_affiliation=frozenset({"U"})), "U") == -1
    )
    assert credibility_level(profile(independent=False), "U") == -1
    assert credibility_level(profile(), "V") == -1  # no experience with V


def test_gate_boundary_inclusive():
    assert credibility_gate(Fraction(1, 2)) is Route.ENGAGE
    assert credibility_gate(Fraction(49, 100)) is Route.DISCARD_FAST
    assert credibility_gate(Fraction(1, 4), floor=Fraction(1, 4)) is Route.ENGAGE


def test_scores_follow_levels():
    assert credibility_score(2) == Fraction(19, 20)
    assert credibility_score(-2) == Fraction(1, 20)
    assert credibility_gate(credibility_score(0), DEFAULT_GATE_FLOOR) is Route.ENGAGE
    assert credibility_gate(credibility_score(-1), DEFAULT_GATE_FLOOR) is Route.DISCARD_FAST


def test_no_rule_on_neutral_attributes():
    assert attribute_install_decision({}) is InstallVerdict.NO_RULE


@pytest.mark.parametrize("rule", REFUSE_RULES)
def test_each_refuse_rule_fires(rule):
    assert attribute_install_decision(rule) is InstallVerdict.REFUSE_INSTALL


@pytest.mark.parametrize("rule", INSTALL_RULES)
def test_each_install_rule_fires(rule):
    assert attribute_install_decision(rule) is InstallVerdict.INSTALL


def test_matching_is_exact_equality():
    rule = REFUSE_RULES[0]
    attrs = dict(rule)
    name = next(iter(rule))
    attrs[name] = rule[name] - 1 if rule[name] > -2 else rule[name] + 1
    assert attribute_install_decision(attrs) is not InstallVerdict.REFUSE_INSTALL


def test_refusal_block_checked_first():
    # REFUSE_RULES[0] and INSTALL_RULES[0] name disjoint attributes, so a
    # vector can satisfy both; the refusal block must win
    merged = {**INSTALL_RULES[0], **REFUSE_RULES[0]}
    assert attribute_install_decision(INSTALL_RULES[0]) is InstallVerdict.INSTALL
    assert attribute_install_decision(merged) is InstallVerdict.REFUSE_INSTALL
