"""Server-side transaction context used by the isolation engines."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple

__all__ = ["TxnState", "TransactionContext"]


class TxnState(enum.Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


@dataclass(slots=True)
class TransactionContext:
    """The database-internal state of one in-flight transaction.

    Attributes:
        txn_id: database-assigned transaction identifier.
        session_id: issuing client session.
        snapshot_ts: logical timestamp of the snapshot the transaction reads
            from (snapshot-based engines).
        start_ts / commit_ts: logical start and commit timestamps.
        read_set: ``key -> (value, version_commit_ts)`` of versions read.
        write_set: ``key -> value`` of buffered, uncommitted writes.
    """

    txn_id: int
    session_id: int
    snapshot_ts: float = 0.0
    start_ts: float = 0.0
    commit_ts: Optional[float] = None
    state: TxnState = TxnState.ACTIVE
    read_set: Dict[str, Tuple[int, float]] = field(default_factory=dict)
    write_set: Dict[str, int] = field(default_factory=dict)
    keys_locked: Set[str] = field(default_factory=set)

    @property
    def is_active(self) -> bool:
        return self.state is TxnState.ACTIVE

    @property
    def is_read_only(self) -> bool:
        return not self.write_set

    def record_read(self, key: str, value: int, version_ts: float) -> None:
        # Only the first (external) read of a key matters for validation.
        self.read_set.setdefault(key, (value, version_ts))

    def record_write(self, key: str, value: int) -> None:
        self.write_set[key] = value
