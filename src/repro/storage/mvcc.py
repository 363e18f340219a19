"""A multi-version key-value store.

Each object keeps a list of committed versions ordered by commit timestamp.
Snapshot-based engines read the latest version with a commit timestamp not
exceeding their snapshot; lock-based engines simply use the latest version.
Uncommitted writes never enter the store — engines buffer them in the
transaction's write set and install them atomically at commit.
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterable, List, NamedTuple, Optional

__all__ = ["Version", "VersionedStore"]


class Version(NamedTuple):
    """One committed version of an object (a plain tuple underneath)."""

    value: int
    commit_ts: float
    txn_id: int


class VersionedStore:
    """Versioned storage for a set of objects.

    Each key's versions sit beside a parallel list of their commit
    timestamps, so a snapshot read or an out-of-order install is one
    ``bisect`` rather than a scan of the key's versions.
    """

    def __init__(self) -> None:
        self._versions: Dict[str, List[Version]] = {}
        self._stamps: Dict[str, List[float]] = {}

    # ------------------------------------------------------------------
    # Loading / installing
    # ------------------------------------------------------------------
    def load_initial(self, keys: Iterable[str], value: int = 0, txn_id: int = -1) -> None:
        """Install the initial version of each object (the ``⊥T`` writes)."""
        for key in keys:
            self._versions.setdefault(key, []).insert(0, Version(value, 0.0, txn_id))
            self._stamps.setdefault(key, []).insert(0, 0.0)

    def install(self, key: str, value: int, commit_ts: float, txn_id: int) -> None:
        """Install a committed version of ``key``.

        Versions are kept sorted by commit timestamp.  In the simulator commit
        timestamps are strictly increasing, so a version not older than the
        key's last one is appended; only an out-of-order install bisects.
        """
        versions = self._versions.setdefault(key, [])
        stamps = self._stamps.setdefault(key, [])
        version = Version(value, commit_ts, txn_id)
        if not stamps or commit_ts >= stamps[-1]:
            versions.append(version)
            stamps.append(commit_ts)
            return
        index = bisect.bisect_right(stamps, commit_ts)
        versions.insert(index, version)
        stamps.insert(index, commit_ts)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def exists(self, key: str) -> bool:
        return bool(self._versions.get(key))

    def latest(self, key: str) -> Optional[Version]:
        """The most recently committed version of ``key``, or ``None``."""
        versions = self._versions.get(key)
        return versions[-1] if versions else None

    def read_at(self, key: str, snapshot_ts: float) -> Optional[Version]:
        """The latest version with ``commit_ts <= snapshot_ts``, or ``None``."""
        versions = self._versions.get(key)
        if not versions:
            return None
        index = bisect.bisect_right(self._stamps[key], snapshot_ts)
        if index == 0:
            return None
        return versions[index - 1]

    def versions(self, key: str) -> List[Version]:
        """All committed versions of ``key``, oldest first."""
        return list(self._versions.get(key, ()))

    def last_writer_after(self, key: str, timestamp: float) -> Optional[Version]:
        """The earliest version of ``key`` committed strictly after ``timestamp``."""
        versions = self._versions.get(key)
        if not versions:
            return None
        index = bisect.bisect_right(self._stamps[key], timestamp)
        if index >= len(versions):
            return None
        return versions[index]

    def keys(self) -> List[str]:
        return sorted(self._versions)

    def __len__(self) -> int:
        return len(self._versions)
