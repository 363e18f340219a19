"""Retry policy: bounded backoff with decorrelated jitter.

The one place failure-handling arithmetic lives: the collector's
aborted-transaction retries and the SQLite busy path share
:class:`RetryPolicy` instead of hand-rolling ``while True`` loops.  Each
sleep is drawn from ``[base, prev * 3]`` and capped (the AWS
architecture-blog variant, which decorrelates herds without the long
tails of full jitter), deterministically under a ``seed``.

The sleep is injectable, so the policy suites run in microseconds with a
fake clock.
"""

from __future__ import annotations

import time
from random import Random
from typing import Callable, Iterator, Optional, Tuple, Type, Union

from .. import obs

__all__ = ["RetryPolicy"]


class RetryPolicy:
    """Bounded retries with capped, decorrelated-jitter backoff.

    Args:
        max_attempts: total attempts, the first included (``1`` disables
            retrying entirely).
        base_delay: first backoff sleep, seconds.
        max_delay: cap on any single sleep.
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
        seed: Optional[int] = None,
    ) -> None:
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if base_delay < 0 or max_delay < base_delay:
            raise ValueError("need 0 <= base_delay <= max_delay")
        self.max_attempts = max_attempts
        self.base_delay = base_delay
        self.max_delay = max_delay
        self.seed = seed

    def delays(self, *, seed: Optional[int] = None) -> Iterator[float]:
        """The backoff sleeps between attempts (``max_attempts - 1`` of them)."""
        if seed is None:
            seed = self.seed
        rng = Random(seed)
        previous = self.base_delay
        for _ in range(self.max_attempts - 1):
            previous = min(
                self.max_delay,
                rng.uniform(self.base_delay, max(previous * 3, self.base_delay)),
            )
            yield previous

    def run(
        self,
        fn: Callable[[], object],
        *,
        retry_on: Union[Type[BaseException], Tuple[Type[BaseException], ...]] = Exception,
        should_retry: Optional[Callable[[BaseException], bool]] = None,
        sleep: Callable[[float], None] = time.sleep,
        component: str = "policy",
        seed: Optional[int] = None,
    ):
        """Call ``fn`` with retries; return its result or raise the last error.

        A failure is retried when it matches ``retry_on`` *and*
        ``should_retry`` (when given) approves it.  Retries and scheduled
        backoff are recorded under ``repro_resilience_retries_total`` /
        ``_backoff_seconds_total`` with ``component`` as the label.
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
                obs.inc("repro_resilience_retries_total", component=component)
                obs.inc("repro_resilience_backoff_seconds_total", delay)
                sleep(delay)
