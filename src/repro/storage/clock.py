"""The logical clock of the database simulator.

The simulator interleaves client sessions deterministically, so it cannot
use wall-clock time to order transactions.  Instead it advances a
:class:`LogicalClock` by one unit on every operation; transaction
start/finish timestamps, version commit timestamps, and the real-time order
of recorded histories are all expressed in this logical time.  The clock
has one rate and no skew: the simulator records exact real-time intervals.
"""

from __future__ import annotations

__all__ = ["LogicalClock"]


class LogicalClock:
    """A strictly monotonically increasing logical clock, starting at 0.0
    and advancing by 1.0 per tick."""

    def __init__(self) -> None:
        self._now = 0.0

    def now(self) -> float:
        """The current time, without advancing the clock."""
        return self._now

    def tick(self) -> float:
        """Advance the clock by one unit and return the new time."""
        self._now += 1.0
        return self._now

    def __repr__(self) -> str:
        return f"LogicalClock(now={self._now})"
