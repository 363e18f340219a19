"""A simple shared/exclusive lock manager with a no-wait conflict policy.

The strict two-phase locking engine (:mod:`repro.db.s2pl`) acquires shared
locks for reads and exclusive locks for writes, holding them until commit.
Because the simulator interleaves sessions in a single thread, blocking is
modelled with a *no-wait* policy: a conflicting acquisition raises
:class:`LockConflict` and the engine aborts (and the workload runner
retries) the transaction.  This matches the pessimistic-concurrency-control
cost model of the paper: longer transactions hold more locks for longer and
therefore abort/retry more often.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from typing import Dict, Iterable, Set

__all__ = ["LockKind", "LockConflict", "LockManager"]


class LockKind(enum.Enum):
    SHARED = "shared"
    EXCLUSIVE = "exclusive"


class LockConflict(Exception):
    """Raised when a lock cannot be granted under the no-wait policy."""

    def __init__(self, key: str, requested: LockKind, holder: int) -> None:
        super().__init__(f"lock conflict on {key}: {requested.value} blocked by T{holder}")
        self.key = key
        self.requested = requested
        self.holder = holder


class LockManager:
    """Tracks shared and exclusive locks per object."""

    def __init__(self) -> None:
        self._shared: Dict[str, Set[int]] = defaultdict(set)
        self._exclusive: Dict[str, int] = {}

    def acquire_shared(self, key: str, txn_id: int) -> None:
        """Grant a shared lock, or raise :class:`LockConflict`."""
        holder = self._exclusive.get(key)
        if holder is not None and holder != txn_id:
            raise LockConflict(key, LockKind.SHARED, holder)
        self._shared[key].add(txn_id)

    def acquire_exclusive(self, key: str, txn_id: int) -> None:
        """Grant (or upgrade to) an exclusive lock, or raise :class:`LockConflict`."""
        holder = self._exclusive.get(key)
        if holder is not None and holder != txn_id:
            raise LockConflict(key, LockKind.EXCLUSIVE, holder)
        readers = self._shared.get(key, set())
        other_readers = readers - {txn_id}
        if other_readers:
            raise LockConflict(key, LockKind.EXCLUSIVE, next(iter(other_readers)))
        self._exclusive[key] = txn_id

    def release_all(self, txn_id: int, keys: Iterable[str]) -> None:
        """Release every lock ``txn_id`` holds; ``keys`` are the keys it
        locked (called at commit/abort).

        Touches only those keys, and drops a reader set once it is empty,
        so a release costs the transaction's locks, not every key ever
        locked.
        """
        shared, exclusive = self._shared, self._exclusive
        for key in keys:
            readers = shared.get(key)
            if readers is not None:
                readers.discard(txn_id)
                if not readers:
                    del shared[key]
            if exclusive.get(key) == txn_id:
                del exclusive[key]
