"""Serializable engine: snapshot reads with commit-time read validation.

This engine models optimistic serializable concurrency control (the style
the paper refers to as OCC, Section I): transactions read from a begin-time
snapshot, buffer writes, and validate at commit that

* no object in the write set was overwritten since the snapshot
  (first-committer-wins, as under SI), and
* no object in the read set was overwritten since the snapshot
  (backward validation).

A transaction that passes both checks behaves as if it executed atomically
at its commit point, so committed histories are (strictly) serializable.
Read validation makes long transactions abort considerably more often than
under SI — the abort-rate gap the paper measures in Figure 11.
"""

from __future__ import annotations

from .errors import TransactionAborted
from .si import SnapshotIsolationEngine
from .transaction import TransactionContext

__all__ = ["SerializableEngine"]


class SerializableEngine(SnapshotIsolationEngine):
    """Optimistic serializable concurrency control (snapshot + read validation)."""

    name = "serializable"

    def prepare_commit(self, ctx: TransactionContext) -> None:
        super().prepare_commit(ctx)
        if ctx.is_read_only:
            # A read-only transaction saw a consistent snapshot and can be
            # serialised at its snapshot point; no validation needed.
            return
        for key, (_, version_ts) in ctx.read_set.items():
            latest = self.store.latest(key)
            if latest is not None and latest.commit_ts > ctx.snapshot_ts and latest.commit_ts != version_ts:
                raise TransactionAborted(
                    ctx.txn_id,
                    f"read-write conflict on {key}: the version read at "
                    f"{version_ts} was overwritten at {latest.commit_ts}",
                )
