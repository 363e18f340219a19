"""Protocol-boundary fault injection: make any adapter lie to its clients.

:class:`~repro.db.faults.FaultyEngine` injects defects *inside* the
simulator; it cannot touch a real database.  :class:`ChaosAdapter` instead
corrupts the client protocol itself — between the collector and any
:class:`~repro.adapters.base.DatabaseAdapter`, including SQLite — which
yields *true-positive* end-to-end detections against a real engine: the
engine is healthy, the observed history is not, and the checker must catch
it from the history alone.

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

from .base import AdapterAborted, AdapterCapabilities, AdapterSession, DatabaseAdapter

__all__ = ["ChaosPlan", "ChaosAdapter", "ChaosSession", "CHAOS_FAULTS"]

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
        fate = self._owner._commit_fate(has_writes=bool(writes))
        if fate == "lost":
            # Acknowledge the commit to the client, drop it underneath.
            self._inner.abort()
            return
        self._inner.commit()
        self._owner._record_committed(writes)
        if fate == "duplicate":
            # The engine committed, but the client hears "aborted" and will
            # retry — the logical transaction lands twice.
            raise AdapterAborted("chaos: commit acknowledged as abort", retryable=True)

    def abort(self) -> None:
        self._pending_writes = {}
        self._inner.abort()

    def close(self) -> None:
        self._inner.close()


class ChaosAdapter(DatabaseAdapter):
    """Fault-injecting wrapper around any adapter (see module docstring)."""

    def __init__(self, inner: DatabaseAdapter, plan: ChaosPlan) -> None:
        self.inner = inner
        self.plan = plan
        self._rng = random.Random(plan.seed)
        self._lock = threading.Lock()
        #: Committed values per key, in bookkeeping order; the last entry is
        #: the (approximately) current value, earlier ones feed stale reads.
        self._committed: Dict[str, List[int]] = {}
        #: How often each defect actually fired (for logs and tests).
        self.injections = {"lost_write": 0, "stale_read": 0, "duplicate_commit": 0}

    # ------------------------------------------------------------------
    # DatabaseAdapter interface
    # ------------------------------------------------------------------
    def capabilities(self) -> AdapterCapabilities:
        inner = self.inner.capabilities()
        return AdapterCapabilities(
            name=f"chaos[{inner.name}]",
            isolation_levels=(),  # histories are expected to violate
            concurrent_sessions=inner.concurrent_sessions,
            real_time=inner.real_time,
        )

    def session(self, session_id: int) -> ChaosSession:
        return ChaosSession(self.inner.session(session_id), self)

    def setup(self, keys: Iterable[str], initial_value: int = 0) -> None:
        keys = list(keys)
        self.inner.setup(keys, initial_value)
        with self._lock:
            for key in keys:
                self._committed.setdefault(key, [initial_value])

    def teardown(self) -> None:
        self.inner.teardown()

    def committed_value(self, key: str) -> Optional[int]:
        return self.inner.committed_value(key)

    # ------------------------------------------------------------------
    # Hooks used by ChaosSession (lock-protected: sessions run in threads)
    # ------------------------------------------------------------------
    def _maybe_stale_value(self, key: str) -> Optional[int]:
        if self.plan.stale_read_rate <= 0.0:
            return None
        with self._lock:
            values = self._committed.get(key, ())
            if len(values) < 2 or self._rng.random() >= self.plan.stale_read_rate:
                return None
            self.injections["stale_read"] += 1
            return self._rng.choice(values[:-1])

    def _commit_fate(self, *, has_writes: bool) -> str:
        if not has_writes:
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

    def _record_committed(self, writes: Dict[str, int]) -> None:
        if not writes:
            return
        with self._lock:
            for key, value in writes.items():
                self._committed.setdefault(key, []).append(value)
