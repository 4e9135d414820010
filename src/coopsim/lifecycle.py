"""Per-fragment life-cycle: active until kept, broken, withdrawn, or faded.

Terminal states are absorbing.  While active, the fragment's vividness
(``fade_level``) decays linearly from 1 toward 0; once it drops below the
fragment's fading threshold the fragment terminates locally as faded.

A refresh resets the level to 1 and the rate is fixed, so the level is
``max(0, 1 - rate*(t - origin)/span)`` with ``origin`` the tick of issue or
last refresh.  A record therefore keeps whole ticks only; its ``Fraction``
level is built when read.  A record at ``rate`` stays active for
``FadeSpec.life(rate)`` ticks, so the tick at which it fades
(``LifecycleRecord.fade_deadline``) is known as soon as it is issued or
refreshed, and the engine steps a record only when it fades instead of at
every tick.  The records of one token that share an ``origin`` share that
tick, a cohort, and ``fade_cohort`` makes a due cohort faded in one loop.
At the end of a run the engine shows each live record's level as of the
last fade tick with ``fade_to``.  ``step_fade`` steps one record at a time;
the tests take it as the reference.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import Optional

from .statements import FadeSpec, Statement
from .trust import Outcome

__all__ = [
    "LifecycleState",
    "LifecycleError",
    "LifecycleRecord",
    "fade_cohort",
]


class LifecycleState(Enum):
    ACTIVE = "active"
    KEPT = "kept"
    BROKEN = "broken"
    WITHDRAWN = "withdrawn"
    FADED = "faded"

    # members are singletons: the identity hash agrees with equality and
    # keeps a Python frame out of the lifecycle-text memo key
    __hash__ = object.__hash__


# Enum members bound once: on CPython 3.11 each read of one off its class
# costs about 0.1 us.
_ACTIVE, _FADED = LifecycleState.ACTIVE, LifecycleState.FADED


class LifecycleError(RuntimeError):
    """Illegal operation on a life-cycle record (e.g. mutating a terminal)."""


class LifecycleRecord:
    """A fragment: the issued ``statement`` as its ``subject`` holds it.
    Every recipient's record shares the one statement and its ``token``.

    Fading is kept in whole ticks: ``origin`` is the tick of issue or of the
    last refresh and ``shown_at`` the tick the shown level is taken at, the
    last tick fading ran at while the record is active.  ``fade_level`` is
    built from them only when it is read.  Records compare by identity, so
    removing one from a list compares no fields."""

    __slots__ = (
        "statement", "subject", "token", "fade", "state",
        "fade_rate_multiplier", "origin", "shown_at",
    )

    def __init__(
        self,
        statement: Statement,
        subject: str,
        token: str,
        fade: FadeSpec,
        origin: int,
        fade_rate_multiplier: int = 1,
    ):
        self.statement = statement
        self.subject = subject
        self.token = token
        self.fade = fade
        self.origin = self.shown_at = origin
        self.state = _ACTIVE
        self.fade_rate_multiplier = fade_rate_multiplier

    @property
    def terminal(self) -> bool:
        return self.state is not _ACTIVE

    def _require_active(self):
        if self.state is not _ACTIVE:
            raise LifecycleError(f"record is terminal ({self.state.value})")

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
        """The first tick at which ``step_fade`` makes the record faded: the
        level stays at or above the threshold for ``fade.life`` ticks."""
        return self.origin + self.fade.life(self.fade_rate_multiplier)

    def step_fade(self, now: int) -> "LifecycleRecord":
        """Advance fading to ``now``; becomes faded below the threshold."""
        self._require_active()
        if now < self.shown_at:
            raise LifecycleError("fading cannot run backwards")
        self.shown_at = now
        if now >= self.fade_deadline():
            self.state = _FADED
        return self

    def fade_to(self, tick: Optional[int]):
        """Show the level as of ``tick``, the last tick fading ran at."""
        if tick is not None and tick > self.shown_at:
            self.shown_at = tick

    def assess(
        self, verdict: Outcome, *, fade_to: Optional[int] = None
    ) -> "LifecycleRecord":
        """Terminal fulfillment assessment: kept or broken.  ``fade_to`` (also
        on ``withdraw``) first brings the fade level up to that tick."""
        self._require_active()
        self.fade_to(fade_to)
        self.state = (
            LifecycleState.KEPT if verdict is Outcome.KEPT else LifecycleState.BROKEN
        )
        return self

    def withdraw(self, by: str, *, fade_to: Optional[int] = None) -> "LifecycleRecord":
        """Withdrawal, allowed to the promiser only.  No trust update."""
        self._require_active()
        if by != self.statement.promiser:
            raise LifecycleError(f"only the promiser may withdraw (not {by!r})")
        self.fade_to(fade_to)
        self.state = LifecycleState.WITHDRAWN
        return self

    def refresh_on_repetition(self, now: int) -> "LifecycleRecord":
        """An equivalent reissue at ``now`` resets fading; no trust change."""
        self._require_active()
        self.origin = self.shown_at = now
        return self


def fade_cohort(recs, origin: int, now: int) -> list:
    """Make faded at ``now`` the members of ``recs``, one token's live
    records, whose ``origin`` is still ``origin``: a cohort whose deadline is
    at or before ``now``.  Each fades as ``step_fade(now)`` would make it
    fade.  Returns them; the others were refreshed since."""
    faded = []
    for rec in recs:
        if rec.origin == origin:
            if now < rec.shown_at:
                raise LifecycleError("fading cannot run backwards")
            rec.shown_at = now
            rec.state = _FADED
            faded.append(rec)
    return faded
