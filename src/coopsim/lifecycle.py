"""Per-fragment life-cycle: active until kept, broken, withdrawn, or faded.

Terminal states are absorbing.  While active, the fragment's vividness
(``fade_level``) decays linearly from 1 toward 0; once it drops below the
fragment's fading threshold the fragment terminates locally as faded.

Linear decay makes the tick at which a record fades known as soon as it is
issued or refreshed (``LifecycleRecord.fade_deadline``), so ``FadeQueue``
steps a record only when it fades instead of at every tick.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from heapq import heappop, heappush
from itertools import count
from typing import Optional

from .statements import FadeSpec, Statement, equivalent
from .trust import Outcome

__all__ = [
    "LifecycleState",
    "LifecycleError",
    "LifecycleRecord",
    "FadeQueue",
]


class LifecycleState(Enum):
    ACTIVE = "active"
    KEPT = "kept"
    BROKEN = "broken"
    WITHDRAWN = "withdrawn"
    FADED = "faded"


class LifecycleError(RuntimeError):
    """Illegal operation on a life-cycle record (e.g. mutating a terminal)."""


@dataclass(eq=False)  # by identity: removing a record compares no fields
class LifecycleRecord:
    """A fragment: the issued ``statement`` as its ``subject`` holds it.
    Every recipient's record shares the one statement and its ``token``."""

    statement: Statement
    subject: str
    token: str
    fade: FadeSpec
    last_update: int
    state: LifecycleState = LifecycleState.ACTIVE
    fade_level: Fraction = Fraction(1)
    fade_rate_multiplier: Fraction = Fraction(1)

    @property
    def terminal(self) -> bool:
        return self.state is not LifecycleState.ACTIVE

    def _require_active(self):
        if self.terminal:
            raise LifecycleError(f"record is terminal ({self.state.value})")

    def fade_at(self, now: int) -> Fraction:
        """The fade level at ``now`` by linear decay since ``last_update``."""
        span = self.fade.span
        decay = self.fade_rate_multiplier * Fraction(now - self.last_update, span)
        return max(Fraction(0), self.fade_level - decay)

    def fade_deadline(self) -> int:
        """The first tick at which ``step_fade`` makes the record faded.

        Before it the level stays at or above the threshold, which is above
        0, so one step from ``last_update`` equals any chain of steps.
        """
        slack = (self.fade_level - self.fade.threshold) * self.fade.span
        return self.last_update + slack // self.fade_rate_multiplier + 1

    def step_fade(self, now: int) -> "LifecycleRecord":
        """Advance fading to ``now``; becomes faded below the threshold."""
        self._require_active()
        if now < self.last_update:
            raise LifecycleError("fading cannot run backwards")
        self.fade_level = self.fade_at(now)
        self.last_update = now
        if self.fade_level < self.fade.threshold:
            self.state = LifecycleState.FADED
        return self

    def _fade_to(self, tick: Optional[int]):
        """Show the level as of ``tick``, the last tick fading ran at."""
        if tick is not None and tick > self.last_update:
            self.fade_level = self.fade_at(tick)

    def assess(
        self, verdict: Outcome, now: int, fade_to: Optional[int] = None
    ) -> "LifecycleRecord":
        """Terminal fulfillment assessment: kept or broken.  ``fade_to`` (also
        on ``withdraw``) first brings the fade level up to that tick."""
        self._require_active()
        self._fade_to(fade_to)
        self.state = (
            LifecycleState.KEPT if verdict is Outcome.KEPT else LifecycleState.BROKEN
        )
        self.last_update = now
        return self

    def withdraw(
        self, by: str, now: int = None, fade_to: Optional[int] = None
    ) -> "LifecycleRecord":
        """Withdrawal, allowed to the promiser only.  No trust update."""
        self._require_active()
        if by != self.statement.promiser:
            raise LifecycleError(f"only the promiser may withdraw (not {by!r})")
        self._fade_to(fade_to)
        self.state = LifecycleState.WITHDRAWN
        if now is not None:
            self.last_update = now
        return self

    def refresh_on_repetition(self, reissue: Statement, now: int) -> "LifecycleRecord":
        """An equivalent reissue resets fading; no trust change."""
        self._require_active()
        if not equivalent(self.statement, reissue):
            raise LifecycleError("reissue is not equivalent to the held fragment")
        self.fade_level = Fraction(1)
        self.last_update = now
        return self


class FadeQueue:
    """Fade deadlines of records, earliest first: a pending-event set.

    ``push`` files a record under its ``fade_deadline`` together with its
    ``last_update`` at that time.  The entry goes stale once the record is
    terminal or is refreshed (its ``last_update`` moves on; the refresh pushes
    a new entry), and a stale entry is dropped when it comes due.  A record is
    stepped only when it fades, or by ``settle``.
    """

    def __init__(self):
        self._heap: list = []
        self._seq = count()  # ties on the deadline never compare records

    def push(self, rec: LifecycleRecord):
        heappush(
            self._heap, (rec.fade_deadline(), next(self._seq), rec.last_update, rec)
        )

    def fade_due(self, now: int) -> list:
        """Fade every record whose deadline is at or before ``now``; returns
        them in no particular order."""
        faded = []
        heap = self._heap
        while heap and heap[0][0] <= now:
            _, _, origin, rec = heappop(heap)
            if rec.terminal or rec.last_update != origin:
                continue
            faded.append(rec.step_fade(now))
        return faded

    def settle(self, now: int):
        """Step every record still active to ``now``, which must precede its
        deadline; the queue is spent afterwards."""
        for _, _, _, rec in self._heap:
            if not rec.terminal and rec.last_update < now:
                rec.step_fade(now)
        self._heap.clear()
