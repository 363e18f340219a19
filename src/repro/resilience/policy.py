"""Retry, deadline, and circuit-breaker policies.

The one place failure-handling arithmetic lives: the collector's
aborted-transaction retries, the SQLite busy path and the executor's
shard-submit recovery share these three primitives instead of
hand-rolling ``while True`` loops.

* :class:`RetryPolicy` — capped exponential backoff with decorrelated
  jitter (the AWS architecture-blog variant: each sleep is drawn from
  ``[base, prev * 3]``, which decorrelates herds without the long tails
  of full jitter).  Deterministic under a ``seed``.
* :class:`Deadline` — a monotonic budget that turns "hung" into a
  first-class, checkable state.
* :class:`CircuitBreaker` — closed → open after N consecutive failures,
  half-open probe after ``reset_after`` seconds; keeps a repeatedly
  failing dependency (a worker pool that cannot spawn) from being
  hammered in a retry loop.

Time and sleep are injectable everywhere, so the policy suites run in
microseconds with a fake clock.
"""

from __future__ import annotations

import threading
import time
from random import Random
from typing import Callable, Iterator, Optional, Tuple, Type, Union

from .. import obs

__all__ = ["CircuitBreaker", "Deadline", "DeadlineExceeded", "RetryPolicy"]


class DeadlineExceeded(TimeoutError):
    """An operation ran past its :class:`Deadline`."""


class Deadline:
    """A fixed monotonic time budget.

    >>> d = Deadline(10.0, clock=lambda: 0.0)
    >>> d.remaining(now=4.0)
    6.0
    """

    __slots__ = ("seconds", "_expires_at", "_clock")

    def __init__(
        self, seconds: float, *, clock: Callable[[], float] = time.monotonic
    ) -> None:
        if seconds <= 0:
            raise ValueError("deadline must be a positive number of seconds")
        self.seconds = seconds
        self._clock = clock
        self._expires_at = clock() + seconds

    def remaining(self, *, now: Optional[float] = None) -> float:
        """Seconds left (never negative)."""
        if now is None:
            now = self._clock()
        return max(self._expires_at - now, 0.0)

    @property
    def expired(self) -> bool:
        return self._clock() >= self._expires_at

    def check(self, what: str = "operation") -> None:
        """Raise :class:`DeadlineExceeded` once the budget is spent."""
        if self.expired:
            raise DeadlineExceeded(
                f"{what} exceeded its {self.seconds:g}s deadline"
            )

    def bound(self, timeout: Optional[float]) -> float:
        """``timeout`` clipped to the remaining budget (for blocking waits)."""
        remaining = self.remaining()
        return remaining if timeout is None else min(timeout, remaining)


class RetryPolicy:
    """Bounded retries with exponential backoff and decorrelated jitter.

    Args:
        max_attempts: total attempts, the first included (``1`` disables
            retrying entirely).
        base_delay: first backoff sleep, seconds.
        max_delay: cap on any single sleep.
        multiplier: exponential growth factor (``jitter="none"``/"full").
        jitter: ``"decorrelated"`` (default), ``"full"``, or ``"none"``
            (pure deterministic exponential — useful in tests).
        seed: seeds the jitter stream; ``None`` draws a nondeterministic
            one.  :meth:`delays` re-seeds per call so concurrent sessions
            do not share one stream.
    """

    def __init__(
        self,
        *,
        max_attempts: int = 4,
        base_delay: float = 0.05,
        max_delay: float = 2.0,
        multiplier: float = 2.0,
        jitter: str = "decorrelated",
        seed: Optional[int] = None,
    ) -> None:
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if base_delay < 0 or max_delay < base_delay:
            raise ValueError("need 0 <= base_delay <= max_delay")
        if jitter not in ("decorrelated", "full", "none"):
            raise ValueError(f"unknown jitter mode {jitter!r}")
        self.max_attempts = max_attempts
        self.base_delay = base_delay
        self.max_delay = max_delay
        self.multiplier = multiplier
        self.jitter = jitter
        self.seed = seed

    def delays(self, *, seed: Optional[int] = None) -> Iterator[float]:
        """The backoff sleeps between attempts (``max_attempts - 1`` of them)."""
        if seed is None:
            seed = self.seed
        rng = Random(seed)
        previous = self.base_delay
        for attempt in range(self.max_attempts - 1):
            if self.jitter == "decorrelated":
                delay = min(
                    self.max_delay,
                    rng.uniform(self.base_delay, max(previous * 3, self.base_delay)),
                )
            else:
                ceiling = min(
                    self.max_delay, self.base_delay * self.multiplier ** attempt
                )
                delay = rng.uniform(0, ceiling) if self.jitter == "full" else ceiling
            previous = delay
            yield delay

    def run(
        self,
        fn: Callable[[], object],
        *,
        retry_on: Union[Type[BaseException], Tuple[Type[BaseException], ...]] = Exception,
        should_retry: Optional[Callable[[BaseException], bool]] = None,
        deadline: Optional[Deadline] = None,
        sleep: Callable[[float], None] = time.sleep,
        component: str = "policy",
        seed: Optional[int] = None,
    ):
        """Call ``fn`` with retries; return its result or raise the last error.

        A failure is retried when it matches ``retry_on`` *and*
        ``should_retry`` (when given) approves it; attempts stop early
        when ``deadline`` expires (the triggering error propagates).
        Retries and scheduled backoff are recorded under
        ``repro_resilience_retries_total`` / ``_backoff_seconds_total``
        with ``component`` as the label.
        """
        delays = self.delays(seed=seed)
        while True:
            try:
                return fn()
            except retry_on as exc:  # type: ignore[misc]
                if should_retry is not None and not should_retry(exc):
                    raise
                delay = next(delays, None)
                if delay is None:
                    raise
                if deadline is not None and deadline.remaining() <= delay:
                    raise
                obs.inc("repro_resilience_retries_total", component=component)
                obs.inc("repro_resilience_backoff_seconds_total", delay)
                sleep(delay)


class CircuitBreaker:
    """A minimal three-state circuit breaker (closed / open / half-open).

    ``failure_threshold`` consecutive :meth:`record_failure` calls open
    the circuit: :meth:`allow` then answers ``False`` until
    ``reset_after`` seconds pass, when exactly one probe is let through
    (half-open).  A probe success closes the circuit; a probe failure
    re-opens it for another full ``reset_after``.  Thread-safe.
    """

    CLOSED, OPEN, HALF_OPEN = "closed", "open", "half_open"

    def __init__(
        self,
        *,
        failure_threshold: int = 3,
        reset_after: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
        name: str = "breaker",
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.failure_threshold = failure_threshold
        self.reset_after = reset_after
        self.name = name
        self._clock = clock
        self._lock = threading.Lock()
        self._state = self.CLOSED
        self._failures = 0
        self._opened_at = 0.0

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def allow(self) -> bool:
        """Whether the protected operation may be attempted right now."""
        with self._lock:
            if self._state == self.CLOSED:
                return True
            if self._state == self.OPEN:
                if self._clock() - self._opened_at >= self.reset_after:
                    self._transition(self.HALF_OPEN)
                    return True  # the single half-open probe
                return False
            return False  # half-open: a probe is already in flight

    def record_success(self) -> None:
        with self._lock:
            self._failures = 0
            if self._state != self.CLOSED:
                self._transition(self.CLOSED)

    def record_failure(self) -> None:
        with self._lock:
            self._failures += 1
            if self._state == self.HALF_OPEN or (
                self._state == self.CLOSED
                and self._failures >= self.failure_threshold
            ):
                self._opened_at = self._clock()
                self._transition(self.OPEN)
            elif self._state == self.OPEN:
                self._opened_at = self._clock()

    def reset(self) -> None:
        """Force-close (tests / explicit operator recovery)."""
        with self._lock:
            self._failures = 0
            if self._state != self.CLOSED:
                self._transition(self.CLOSED)

    def _transition(self, state: str) -> None:
        # Called with the lock held.
        self._state = state
        obs.inc(
            "repro_resilience_breaker_transitions_total",
            breaker=self.name,
            state=state,
        )
        obs.set_gauge(
            "repro_resilience_breaker_open",
            1 if state == self.OPEN else 0,
            breaker=self.name,
        )
