"""Protocol-boundary fault injection: make any adapter lie to its clients.

:class:`~repro.db.faults.FaultyEngine` injects defects *inside* the
simulator; it cannot touch a real database.  :class:`ChaosAdapter` instead
corrupts the client protocol itself — between the collector and any
:class:`~repro.adapters.base.DatabaseAdapter`, including SQLite — which
yields *true-positive* end-to-end detections against a real engine: the
engine is healthy, the observed history is not, and the checker must catch
it from the history alone.  :class:`AsyncChaosAdapter` is the same wrapper
around an :class:`~repro.adapters.aio.AsyncDatabaseAdapter` (the simulator),
so chaos runs on whichever collector the wrapped adapter calls for.

Three defects, all classic end-to-end failure modes:

* ``lost-write`` — the client is told its commit succeeded, but the
  transaction was rolled back underneath.  The next reader of any affected
  object observes the pre-image, which under RMW mini-transaction workloads
  closes a lost-update-style dependency cycle (violates SI and SER).
* ``stale-read`` — a read returns an older committed value than the current
  one, producing causality violations / non-monotonic reads.
* ``duplicate-commit`` — the engine commits, but the client is told the
  transaction aborted; the client retries, so the logical transaction's
  effects are installed twice (once under an attempt the history records as
  aborted).  Readers of the first attempt's values trigger AbortedRead.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from .aio import AsyncAdapterSession, AsyncDatabaseAdapter
from .base import AdapterAborted, AdapterCapabilities, AdapterSession, DatabaseAdapter

__all__ = [
    "AsyncChaosAdapter",
    "AsyncChaosSession",
    "CHAOS_FAULTS",
    "ChaosAdapter",
    "ChaosPlan",
    "ChaosSession",
]

#: Protocol fault names accepted by :meth:`ChaosPlan.for_fault` and the CLI.
CHAOS_FAULTS = ("lost-write", "stale-read", "duplicate-commit")


@dataclass(frozen=True)
class ChaosPlan:
    """Probabilities of each protocol-level defect (0.0 disables one)."""

    lost_write_rate: float = 0.0
    stale_read_rate: float = 0.0
    duplicate_commit_rate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("lost_write_rate", "stale_read_rate", "duplicate_commit_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:  # NaN fails too
                raise ValueError(f"{name} is a probability in [0, 1], got {rate}")

    @classmethod
    def for_fault(cls, fault: str, rate: float = 0.2, seed: int = 0) -> "ChaosPlan":
        """A plan enabling one named defect (see :data:`CHAOS_FAULTS`)."""
        normalized = fault.lower().replace("_", "-")
        if normalized == "lost-write":
            return cls(lost_write_rate=rate, seed=seed)
        if normalized == "stale-read":
            return cls(stale_read_rate=rate, seed=seed)
        if normalized == "duplicate-commit":
            return cls(duplicate_commit_rate=rate, seed=seed)
        raise ValueError(f"unknown chaos fault {fault!r}; known: {', '.join(CHAOS_FAULTS)}")

    @property
    def any_enabled(self) -> bool:
        return any(
            rate > 0.0
            for rate in (self.lost_write_rate, self.stale_read_rate, self.duplicate_commit_rate)
        )


class _Chaos:
    """The plan, its RNG and the bookkeeping both faces share.

    ``inner`` is the wrapped adapter; ``injections`` counts how often each
    defect actually fired (for logs and tests).  The hooks take a lock
    because threaded sessions call them concurrently.
    """

    def __init__(self, inner, plan: ChaosPlan) -> None:
        self.inner = inner
        self.plan = plan
        self._rng = random.Random(plan.seed)
        self._lock = threading.Lock()
        #: Committed values per key, in bookkeeping order; the last entry is
        #: the (approximately) current value, earlier ones feed stale reads.
        self._committed: Dict[str, List[int]] = {}
        self.injections = {"lost_write": 0, "stale_read": 0, "duplicate_commit": 0}

    def capabilities(self) -> AdapterCapabilities:
        inner = self.inner.capabilities()
        return AdapterCapabilities(
            name=f"chaos[{inner.name}]",
            isolation_levels=(),  # histories are expected to violate
            concurrent_sessions=inner.concurrent_sessions,
            real_time=inner.real_time,
        )

    def committed_value(self, key: str) -> Optional[int]:
        return self.inner.committed_value(key)

    # ------------------------------------------------------------------
    # Hooks used by the sessions
    # ------------------------------------------------------------------
    def _seed(self, keys: List[str], initial_value: int) -> None:
        with self._lock:
            for key in keys:
                self._committed.setdefault(key, [initial_value])

    def _maybe_stale_value(self, key: str) -> Optional[int]:
        if self.plan.stale_read_rate <= 0.0:
            return None
        with self._lock:
            values = self._committed.get(key, ())
            if len(values) < 2 or self._rng.random() >= self.plan.stale_read_rate:
                return None
            self.injections["stale_read"] += 1
            return self._rng.choice(values[:-1])

    def _commit_fate(self, writes: Dict[str, int]) -> str:
        """``"lost"`` (acknowledge, roll back underneath), ``"duplicate"``
        (commit, report an abort) or ``"commit"``."""
        if not writes:
            return "commit"
        with self._lock:
            if self.plan.lost_write_rate > 0.0 and self._rng.random() < self.plan.lost_write_rate:
                self.injections["lost_write"] += 1
                return "lost"
            if (
                self.plan.duplicate_commit_rate > 0.0
                and self._rng.random() < self.plan.duplicate_commit_rate
            ):
                self.injections["duplicate_commit"] += 1
                return "duplicate"
        return "commit"

    def _committed_as(self, writes: Dict[str, int], fate: str) -> None:
        """Book a commit the engine accepted.  A duplicate then reaches the
        client as an abort, which it retries: the logical transaction lands
        twice."""
        if writes:
            with self._lock:
                for key, value in writes.items():
                    self._committed.setdefault(key, []).append(value)
        if fate == "duplicate":
            raise AdapterAborted("chaos: commit acknowledged as abort", retryable=True)


class ChaosSession(AdapterSession):
    """Wraps an inner session and corrupts its protocol per the plan."""

    def __init__(self, inner: AdapterSession, owner: "ChaosAdapter") -> None:
        self._inner = inner
        self._owner = owner
        self._pending_writes: Dict[str, int] = {}

    def begin(self) -> None:
        self._pending_writes = {}
        self._inner.begin()

    def read(self, key: str) -> Optional[int]:
        stale = self._owner._maybe_stale_value(key)
        if stale is not None:
            return stale
        return self._inner.read(key)

    def write(self, key: str, value: int) -> None:
        self._inner.write(key, value)
        self._pending_writes[key] = value

    def commit(self) -> None:
        writes, self._pending_writes = self._pending_writes, {}
        fate = self._owner._commit_fate(writes)
        if fate == "lost":
            self._inner.abort()
            return
        self._inner.commit()
        self._owner._committed_as(writes, fate)

    def abort(self) -> None:
        self._pending_writes = {}
        self._inner.abort()

    def close(self) -> None:
        self._inner.close()


class ChaosAdapter(_Chaos, DatabaseAdapter):
    """``ChaosAdapter(inner, plan)``: fault-injecting wrapper around a sync
    adapter (see module docstring)."""

    def session(self, session_id: int) -> ChaosSession:
        return ChaosSession(self.inner.session(session_id), self)

    def setup(self, keys: Iterable[str], initial_value: int = 0) -> None:
        keys = list(keys)
        self.inner.setup(keys, initial_value)
        self._seed(keys, initial_value)

    def teardown(self) -> None:
        self.inner.teardown()


class AsyncChaosSession(AsyncAdapterSession):
    """:class:`ChaosSession` with every call awaited."""

    def __init__(self, inner: AsyncAdapterSession, owner: "AsyncChaosAdapter") -> None:
        self._inner = inner
        self._owner = owner
        self._pending_writes: Dict[str, int] = {}

    async def begin(self) -> None:
        self._pending_writes = {}
        await self._inner.begin()

    async def read(self, key: str) -> Optional[int]:
        stale = self._owner._maybe_stale_value(key)
        if stale is not None:
            return stale
        return await self._inner.read(key)

    async def write(self, key: str, value: int) -> None:
        await self._inner.write(key, value)
        self._pending_writes[key] = value

    async def commit(self) -> None:
        writes, self._pending_writes = self._pending_writes, {}
        fate = self._owner._commit_fate(writes)
        if fate == "lost":
            await self._inner.abort()
            return
        await self._inner.commit()
        self._owner._committed_as(writes, fate)

    async def abort(self) -> None:
        self._pending_writes = {}
        await self._inner.abort()

    async def aclose(self) -> None:
        await self._inner.aclose()


class AsyncChaosAdapter(_Chaos, AsyncDatabaseAdapter):
    """``AsyncChaosAdapter(inner, plan)``: fault-injecting wrapper around a
    coroutine adapter — the plan, the defects and ``injections`` of
    :class:`ChaosAdapter`, awaited."""

    async def session(self, session_id: int) -> AsyncChaosSession:
        return AsyncChaosSession(await self.inner.session(session_id), self)

    async def setup(self, keys: Iterable[str], initial_value: int = 0) -> None:
        keys = list(keys)
        await self.inner.setup(keys, initial_value)
        self._seed(keys, initial_value)

    async def teardown(self) -> None:
        await self.inner.teardown()
