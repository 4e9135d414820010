"""Credibility appraisal: consultant profiles, gating, attribute rules.

Attribute values use the same five-level ordinal scale as trust: very low is
-2, low is -1, moderate is 0, high is +1, very high is +2.  The rules read
a plain dict of attribute name to level, which ``load`` has checked; an
attribute a scenario does not set reads as 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

from .trust import PTRUST

__all__ = [
    "ATTRIBUTE_CATALOG",
    "ConsultantProfile",
    "Route",
    "InstallVerdict",
    "DISCARD_FAST_MULTIPLIER",
    "DEFAULT_GATE_FLOOR",
    "credibility_level",
    "credibility_score",
    "credibility_gate",
    "attribute_install_decision",
]

ATTRIBUTE_CATALOG = (
    "program-development-time",
    "program-development-cost",
    "program-quality",
    "program-process-documentation-availability",
    "program-system-specificity",
    "program-testability",
    "program-maintainability",
    "program-user-base-size",
    "program-size",
    "program-dependability",
    "task-description-availability",
    "task-ubiquity",
    "task-complexity",
    "task-safety-criticality",
    "task-evolution-speed",
    "user-awareness-of-task-functionality",
    "user-dependency-on-task",
    "user-access-to-alternative-providers",
    "user-failure-diagnosis-competence",
    "provider-task-track-record",
    "provider-size",
    "provider-profitability-and-stability",
    "provider-reputation",
    "provider-certification",
    "provider-process-documentation-availability",
    "provider-process-maturity-level",
    "provider-formal-methods-use",
    "provider-market-dependence",
)

DEFAULT_GATE_FLOOR = Fraction(1, 2)
DISCARD_FAST_MULTIPLIER = 4


@dataclass(frozen=True)
class ConsultantProfile:
    """What is known about an agent in its capacity as a consultant.

    ``experienced_with`` should already include the "close relatives" of a
    task or program the agent knows; no similarity metric is applied here.
    """

    independent: bool = True
    experienced_with: frozenset = field(default_factory=frozenset)
    consulted_range: frozenset = field(default_factory=frozenset)
    recognized_reputation: frozenset = field(default_factory=frozenset)
    producer_affiliation: frozenset = field(default_factory=frozenset)

    def independent_for(self, focus: str) -> bool:
        return self.independent and focus not in self.producer_affiliation


def credibility_level(profile: ConsultantProfile, focus: str) -> int:
    """Credibility of a consultant for a task or program, on the five-level
    scale.  Most specific positive clause wins."""
    experienced = focus in profile.experienced_with
    independent = profile.independent_for(focus)
    if independent and experienced:
        if focus in profile.consulted_range:
            if focus in profile.recognized_reputation:
                return 2
            return 1
        return 0
    if not experienced and focus in profile.producer_affiliation:
        return -2
    return -1


def credibility_score(level: int) -> Fraction:
    """Map a credibility level to a rational score in [0,1]."""
    return PTRUST[level]


class Route(Enum):
    ENGAGE = "engage"
    DISCARD_FAST = "discard-fast"


def credibility_gate(score, floor=DEFAULT_GATE_FLOOR) -> Route:
    """Directionals lacking credibility are not engaged with: their fragments
    fade at 4x rate and the promisee does not react.  The promisee still
    files a discarded adequacy promise, so a later outcome assesses it
    (``scenarios/discarded.coop``).  ``score`` is a ``PTRUST`` weight and
    ``load`` bounds the floor to [0,1], so neither is checked here."""
    return Route.ENGAGE if score >= floor else Route.DISCARD_FAST


class InstallVerdict(Enum):
    REFUSE_INSTALL = "refuse-install"
    INSTALL = "install"
    NO_RULE = "no-rule"


# Condition combinations under which an adequacy promise is refused or
# followed regardless of promiser trust.  Evaluated in listed order, refusal
# block first; a combination matches when every named attribute has exactly
# the stated value.
REFUSE_RULES = (
    {"provider-size": -2, "program-size": 2},
    {
        "program-development-cost": -2,
        "program-user-base-size": -1,
        "user-dependency-on-task": 1,
        "task-ubiquity": -1,
        "program-development-time": 1,
    },
    {
        "program-dependability": -1,
        "task-safety-criticality": 1,
        "user-dependency-on-task": 1,
    },
    {
        "program-maintainability": -1,
        "task-evolution-speed": 1,
        "user-awareness-of-task-functionality": -1,
        "user-access-to-alternative-providers": 1,
    },
)

INSTALL_RULES = (
    {
        "program-quality": 1,
        "program-dependability": 1,
        "program-user-base-size": 1,
        "user-dependency-on-task": 0,
    },
    {
        "program-dependability": 1,
        "task-safety-criticality": 1,
        "user-dependency-on-task": 1,
        "user-access-to-alternative-providers": -1,
    },
    {
        "program-maintainability": 1,
        "task-evolution-speed": -1,
        "user-awareness-of-task-functionality": 1,
        "user-access-to-alternative-providers": -1,
        "provider-reputation": 0,
        "program-development-cost": 0,
        "program-development-time": 0,
        "task-description-availability": 1,
    },
    {
        "provider-task-track-record": 1,
        "task-safety-criticality": -1,
        "user-failure-diagnosis-competence": 1,
        "task-ubiquity": -1,
    },
    {
        "provider-task-track-record": 1,
        "task-safety-criticality": 1,
        "user-awareness-of-task-functionality": 1,
        "user-failure-diagnosis-competence": 1,
        "user-dependency-on-task": 1,
        "task-ubiquity": -1,
    },
)


def _matches(attrs: dict, rule: dict) -> bool:
    return all(attrs.get(name, 0) == value for name, value in rule.items())


def attribute_install_decision(attrs: dict) -> InstallVerdict:
    """First fully satisfied condition combination wins; refusal block is
    checked before the install block."""
    for rule in REFUSE_RULES:
        if _matches(attrs, rule):
            return InstallVerdict.REFUSE_INSTALL
    for rule in INSTALL_RULES:
        if _matches(attrs, rule):
            return InstallVerdict.INSTALL
    return InstallVerdict.NO_RULE
