"""Five-level trust stores with pluggable update policies.

Appreciation (general, task and program trust, confidence) is measured on
the ordinal scale {-2, -1, 0, 1, 2}; 0 is neutral and the default for keys
that were never written.  Two update policies are supported:

* ``incremental`` -- each kept/broken assessment moves the level one step,
  saturating at the scale bounds.
* ``recency-history`` -- the level is a pure function of the two most
  recent outcomes.

A level's address in an agent's store is an ``AppreciationKey``: a named
tuple of the target, the optional program and task, and the kind those
qualifiers name (``_KINDS``).  Keys and kinds hash and compare in C, so a
trust-store read or write runs no Python code to hash its key.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import NamedTuple, Optional

__all__ = [
    "SCALE_MIN",
    "SCALE_MAX",
    "LEVELS",
    "PTRUST",
    "AppreciationKind",
    "AppreciationKey",
    "Outcome",
    "TramPolicy",
    "TrustStore",
    "TrustKeyError",
    "clamp_level",
    "level_from_history",
]

SCALE_MIN = -2
SCALE_MAX = 2
LEVELS = (-2, -1, 0, 1, 2)

# Probability-like weight per trust level, symmetric around 0.5 and never
# certain at the extremes.
PTRUST = {
    -2: Fraction(1, 20),
    -1: Fraction(1, 4),
    0: Fraction(1, 2),
    1: Fraction(3, 4),
    2: Fraction(19, 20),
}


class TrustKeyError(ValueError):
    """Malformed appreciation key or wrong kind for the operation."""


class AppreciationKind(Enum):
    """Members are singletons, so equality is identity and the identity hash
    agrees with it; hashing in C keeps a Python frame out of every key hash."""

    GENERAL_TRUST = "general-trust"
    TASK_TRUST = "task-trust"
    PROGRAM_TRUST = "program-trust"
    CONFIDENCE = "confidence"

    __hash__ = object.__hash__


# (program given, task given) -> the kind a key's qualifiers name
_KINDS = {
    (False, False): AppreciationKind.GENERAL_TRUST,
    (False, True): AppreciationKind.TASK_TRUST,
    (True, False): AppreciationKind.PROGRAM_TRUST,
    (True, True): AppreciationKind.CONFIDENCE,
}


class _KeyFields(NamedTuple):
    # a NamedTuple may not define __new__, so AppreciationKey subclasses this
    target: str
    program: Optional[str]
    task: Optional[str]
    kind: AppreciationKind


class AppreciationKey(_KeyFields):
    """One appreciation level's address in an agent's store: an immutable
    named tuple that takes its kind from the qualifiers given, compares by
    value and hashes in C on each trust-store lookup.  Agents keep their
    general-trust keys (``AgentState.general_key``) so the hot trust reads
    build none."""

    __slots__ = ()

    def __new__(cls, target, program=None, task=None):
        if not target or program == "" or task == "":
            raise TrustKeyError("target, program and task may not be empty")
        kind = _KINDS[program is not None, task is not None]
        return tuple.__new__(cls, (target, program, task, kind))


class Outcome(Enum):
    KEPT = "kept"
    BROKEN = "broken"


class TramPolicy(Enum):
    INCREMENTAL = "incremental"
    RECENCY = "recency-history"


def clamp_level(value: int) -> int:
    return max(SCALE_MIN, min(SCALE_MAX, value))


def level_from_history(outcomes) -> int:
    """Level implied by an ordered outcome sequence (oldest first).

    Only the two most recent outcomes count.  No experience is neutral.  A
    positive most recent outcome gives 1, or 2 when the one before was also
    positive; a negative one gives -1, or -2 when the one before was also
    negative.
    """
    if not outcomes:
        return 0
    last = outcomes[-1]
    prev = outcomes[-2] if len(outcomes) >= 2 else None
    if last is Outcome.KEPT:
        return 2 if prev is Outcome.KEPT else 1
    return -2 if prev is Outcome.BROKEN else -1


class TrustStore:
    """Appreciation levels plus the recent experience of one agent.

    Absent keys read as neutral (0).  Per key only the tick of the last
    assessment and the last two outcomes are kept: that is all the survey
    recency check and the recency policy read.
    """

    def __init__(self):
        self._levels: dict = {}
        self._recent: dict = {}  # key -> (last tick, last two outcomes)

    def get(self, key: AppreciationKey) -> int:
        return self._levels.get(key, 0)

    def set(self, key: AppreciationKey, level: int):
        if level not in LEVELS:
            raise TrustKeyError(f"level {level} outside scale")
        self._levels[key] = level

    def last_experience_tick(self, key: AppreciationKey) -> Optional[int]:
        recent = self._recent.get(key)
        return recent[0] if recent else None

    def record_assessment(
        self,
        key: AppreciationKey,
        outcome: Outcome,
        tick: int,
        policy: TramPolicy = TramPolicy.INCREMENTAL,
    ) -> int:
        """Record an outcome and return the updated level."""
        if key.kind is AppreciationKind.CONFIDENCE:
            raise TrustKeyError("confidence is not a trust kind")
        last_tick, outcomes = self._recent.get(key, (None, ()))
        if last_tick is not None and tick < last_tick:
            raise TrustKeyError("experience ticks must be non-decreasing")
        outcomes = outcomes[-1:] + (outcome,)
        self._recent[key] = (tick, outcomes)
        if policy is TramPolicy.INCREMENTAL:
            delta = 1 if outcome is Outcome.KEPT else -1
            level = clamp_level(self.get(key) + delta)
        else:
            level = level_from_history(outcomes)
        self._levels[key] = level
        return level
