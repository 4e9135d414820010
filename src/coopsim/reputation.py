"""Reputation infection: letter-of-recommendation flow and survey averaging.

Both mechanisms read and communicate trust levels only.  A peer asked for a
letter of recommendation (LOR) refuses when its own level is -1 or 0; other
levels translate into a fixed adjustment of the asker's level.  A third
party survey computes a group's average trust in an agent; members without
recent own observations reinitialize by approximating the average from
below.  The levels and averages they take are on the scale, as ``load``
reads every level, so neither checks them.
"""

from __future__ import annotations

import math
from typing import Optional

from .trust import clamp_level

__all__ = [
    "DEFAULT_RECENT_WINDOW",
    "lor_update",
    "survey_reinit",
]

DEFAULT_RECENT_WINDOW = 50


def lor_update(asker_level: int, peer_level: int) -> Optional[int]:
    """New asker level after a LOR exchange, or None when the peer refuses.

    Peer -2 drags the asker to at most -1; peer 1 and 2 set the asker one
    step below the peer's level.
    """
    if peer_level == -2:
        return min(-1, asker_level)
    if peer_level in (-1, 0):
        return None
    if peer_level == 1:
        return 0
    return 1


def survey_reinit(average) -> int:
    """The level a surveyed average reinitializes members to, approximating
    it from below.  It is the same for every member; members with recent own
    observations are not reinitialized and keep their level."""
    return clamp_level(math.floor(average))

