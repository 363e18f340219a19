"""Logical clocks for the database simulator.

The simulator interleaves client sessions deterministically, so it cannot
use wall-clock time to order transactions.  Instead it advances a
:class:`LogicalClock` on every operation; transaction start/finish
timestamps, version commit timestamps, and the real-time order of recorded
histories are all expressed in this logical time.

:class:`SkewedClock` adds per-session clock skew, modelling the imperfect
wall-clock timestamps a real strict-serializability checker has to cope
with (paper, Section VII).
"""

from __future__ import annotations

from typing import Dict

__all__ = ["LogicalClock", "SkewedClock"]


class LogicalClock:
    """A strictly monotonically increasing logical clock."""

    def __init__(self, start: float = 0.0, step: float = 1.0) -> None:
        self._now = float(start)
        self._step = float(step)

    def now(self) -> float:
        """The current time, without advancing the clock."""
        return self._now

    def tick(self, amount: float = None) -> float:
        """Advance the clock and return the new time."""
        self._now += self._step if amount is None else float(amount)
        return self._now

    def __repr__(self) -> str:
        return f"LogicalClock(now={self._now})"


class SkewedClock:
    """A view of a :class:`LogicalClock` with a per-session constant offset.

    Used to inject bounded clock skew into recorded start/finish timestamps
    so that SSER checking can be exercised with imperfect clocks.
    """

    def __init__(self, base: LogicalClock, skew_per_session: Dict[int, float] = None) -> None:
        self._base = base
        self._skew: Dict[int, float] = dict(skew_per_session or {})

    def now(self, session_id: int = 0) -> float:
        """The session-local current time (base time plus the session's skew)."""
        return self._base.now() + self._skew.get(session_id, 0.0)

    def tick(self, session_id: int = 0, amount: float = None) -> float:
        """Advance the underlying clock and return the session-local time."""
        self._base.tick(amount)
        return self.now(session_id)
