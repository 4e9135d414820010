"""Five-level trust stores with pluggable update policies.

Appreciation (general, task and program trust, confidence) is measured on
the ordinal scale {-2, -1, 0, 1, 2}; 0 is neutral and the default for levels
that were never written.  Two update policies are supported:

* ``incremental`` -- each kept/broken assessment moves the level one step,
  saturating at the scale bounds.
* ``recency-history`` -- the level is a pure function of the two most
  recent outcomes.

An agent's store keeps general trust, the level the behaviour rules read and
outcomes assess, by the target's name alone; a task, program or confidence
level, which only ``trust`` and ``expect-trust`` lines address, is kept apart
under ``(target, program, task)``.  The kind a level's qualifiers name
(``_KINDS``) is looked up only where a trust line is written.  ``load`` reads
every level on the scale and a run's ticks go forward, so neither is checked.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction

__all__ = [
    "SCALE_MIN",
    "SCALE_MAX",
    "LEVELS",
    "PTRUST",
    "AppreciationKind",
    "Outcome",
    "TramPolicy",
    "TrustStore",
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


class AppreciationKind(Enum):
    GENERAL_TRUST = "general-trust"
    TASK_TRUST = "task-trust"
    PROGRAM_TRUST = "program-trust"
    CONFIDENCE = "confidence"


# (program given, task given) -> the kind a level's qualifiers name
_KINDS = {
    (False, False): AppreciationKind.GENERAL_TRUST,
    (False, True): AppreciationKind.TASK_TRUST,
    (True, False): AppreciationKind.PROGRAM_TRUST,
    (True, True): AppreciationKind.CONFIDENCE,
}


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

    ``general`` maps a target to its general-trust level and ``qualified``
    maps ``(target, program, task)`` to a task, program or confidence level,
    so general trust in ``p`` never aliases a qualified level.  Absent levels
    read as neutral (0).  Only general trust is assessed, and per target
    ``recent`` keeps the tick of the last assessment and the last two
    outcomes: that is all the survey recency check and the recency policy
    read.  The engine's hot paths read and write ``general`` and ``recent``
    directly.
    """

    def __init__(self):
        self.general: dict = {}  # target -> level
        self.recent: dict = {}  # target -> (last tick, last two outcomes)
        self.qualified: dict = {}  # (target, program, task) -> level

    def get(self, target: str, program=None, task=None) -> int:
        if program is None and task is None:
            return self.general.get(target, 0)
        return self.qualified.get((target, program, task), 0)

    def set(self, target: str, level: int, program=None, task=None):
        if program is None and task is None:
            self.general[target] = level
        else:
            self.qualified[target, program, task] = level

    def record_assessment(
        self,
        target: str,
        outcome: Outcome,
        tick: int,
        policy: TramPolicy = TramPolicy.INCREMENTAL,
    ) -> int:
        """Record an outcome of general trust in ``target`` at ``tick``, no
        earlier than the last one, and return the updated level."""
        _, outcomes = self.recent.get(target, (None, ()))
        outcomes = outcomes[-1:] + (outcome,)
        self.recent[target] = (tick, outcomes)
        if policy is TramPolicy.INCREMENTAL:
            delta = 1 if outcome is Outcome.KEPT else -1
            level = clamp_level(self.general.get(target, 0) + delta)
        else:
            level = level_from_history(outcomes)
        self.general[target] = level
        return level
