"""Per-fragment life-cycle: active until kept, broken, withdrawn, or faded.

A fragment is an issued statement as one agent holds it.  The engine
stores fragments by cohort: a ``Cohort`` is the live fragments of one token
that share one origin, so one delivery is one cohort however many agents
it reaches.  A fragment leaves its cohort only when it diverges: an
equivalent reissue moves it into its token's cohort for the new origin,
and an outcome that assesses it splits it off.  The engine ends a cohort,
once, in ``_Engine.retire``, and nothing ends it after that.  At the end of
a run each live fragment is shown as a cohort of one.  While active, a
fragment's vividness (``fade_level``) decays linearly from 1 toward 0; once
it drops below the fragment's fading threshold the fragment ends as faded.

A refresh resets the level to 1 and the rate is fixed, so the level is
``max(0, 1 - rate*(t - origin)/span)`` with ``origin`` the tick of issue or
last refresh.  Cohorts therefore keep whole ticks only; their ``Fraction``
level is built when read.  A fragment at ``rate`` stays active for
``FadeSpec.life(rate)`` ticks, so the tick at which it fades
(``fade_deadline``) is known as soon as it is issued or refreshed, and the
engine looks at a cohort only when it fades instead of at every tick.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction

from .statements import FadeSpec, Statement

__all__ = ["LifecycleState", "Cohort"]


class LifecycleState(Enum):
    ACTIVE = "active"
    KEPT = "kept"
    BROKEN = "broken"
    WITHDRAWN = "withdrawn"
    FADED = "faded"

    # members are singletons: the identity hash agrees with equality and
    # keeps a Python frame out of the lifecycle-text memo key
    __hash__ = object.__hash__


# Bound once: on CPython 3.11 each read of a member off its class costs
# about 0.1 us.
_ACTIVE = LifecycleState.ACTIVE


class Cohort:
    """The live fragments of one ``token`` that share one ``origin``, held
    by ``subjects``; they share the statement, rate and fade deadline, and
    end together.  Plain data: ``_Engine.retire`` alone sets an ending
    ``state``.  Cohorts compare by identity.

    Fading is kept in whole ticks: ``origin`` is the tick of issue or of the
    last refresh and ``shown_at`` the tick the shown level is taken at,
    ``origin`` until the cohort ends or the run does, and then the last tick
    fading ran at.  ``fade_level`` is built from them only when it is read."""

    __slots__ = (
        "statement", "subjects", "token", "fade", "state",
        "fade_rate_multiplier", "origin", "shown_at",
    )

    def __init__(
        self,
        statement: Statement,
        subjects: list,
        token: str,
        fade: FadeSpec,
        origin: int,
        fade_rate_multiplier: int,
    ):
        self.statement = statement
        self.subjects = subjects
        self.token = token
        self.fade = fade
        self.origin = self.shown_at = origin
        self.state = _ACTIVE
        self.fade_rate_multiplier = fade_rate_multiplier

    @property
    def fading_ticks(self) -> int:
        """Ticks of fading behind the shown level, up to where it reaches 0."""
        rate, span = self.fade_rate_multiplier, self.fade.span
        return min(self.shown_at - self.origin, -(-span // rate))

    @property
    def fade_level(self) -> Fraction:
        """The shown level: 1 less ``rate/span`` per tick, never below 0."""
        return self.fade.level(self.fade_rate_multiplier, self.fading_ticks)

    def fade_deadline(self) -> int:
        """The first tick at which the fragments fade: the level stays at or
        above the threshold for ``fade.life`` ticks."""
        return self.origin + self.fade.life(self.fade_rate_multiplier)
