"""Fault injection: buggy engine variants that produce real-world anomalies.

The paper's Q4 experiments (Table II, Figures 12, 13, 14, 18) detect
isolation bugs in production databases — lost update in MariaDB Galera,
write skew and long fork in PostgreSQL, aborted reads in MongoDB and
Cassandra, a causality violation in Dgraph.  We cannot ship those databases,
so this module reproduces the *failure modes*: a :class:`FaultyEngine` wraps
any base engine and, with configurable probabilities, injects the defect
that causes each anomaly class:

* ``lost_update_rate`` — skip first-committer-wins validation, so two
  concurrent RMWs on the same object both commit (MariaDB Galera bug).
* ``write_skew_rate`` — skip read-set validation in a serializable engine,
  letting write-skew (and long-fork) patterns commit (PostgreSQL bugs).
* ``stale_read_rate`` — serve a read from an older committed version than
  the snapshot requires, producing causality violations, fractured reads,
  non-monotonic reads, and session-guarantee violations (Dgraph bug).
* ``dirty_install_rate`` — install the writes of an aborted transaction, so
  later transactions read from an aborted transaction (MongoDB/Cassandra
  bugs).

The injected defect only changes what the database *does*; detection still
happens end-to-end through the recorded history and the checkers, exactly
as in the paper's black-box setting.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .engine import IsolationEngine
from .errors import TransactionAborted
from .transaction import TransactionContext

__all__ = ["FaultPlan", "FaultyEngine"]


@dataclass(frozen=True)
class FaultPlan:
    """Probabilities of each injected defect (0.0 disables a defect)."""

    lost_update_rate: float = 0.0
    write_skew_rate: float = 0.0
    stale_read_rate: float = 0.0
    dirty_install_rate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in (
            "lost_update_rate", "write_skew_rate", "stale_read_rate", "dirty_install_rate"
        ):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:  # NaN fails too
                raise ValueError(f"{name} is a probability in [0, 1], got {rate}")

    @classmethod
    def for_anomaly(cls, anomaly: str, rate: float = 0.2, seed: int = 0) -> "FaultPlan":
        """A plan that injects the defect behind a named anomaly class."""
        anomaly = anomaly.lower().replace("_", "").replace("-", "")
        if anomaly in {"lostupdate", "divergence"}:
            return cls(lost_update_rate=rate, seed=seed)
        if anomaly in {"writeskew", "longfork"}:
            return cls(write_skew_rate=rate, lost_update_rate=0.0, seed=seed)
        if anomaly in {
            "causalityviolation",
            "fracturedread",
            "nonmonotonicread",
            "sessionguaranteeviolation",
            "staleread",
        }:
            return cls(stale_read_rate=rate, seed=seed)
        if anomaly in {"abortedread", "readuncommitted", "dirtyread"}:
            return cls(dirty_install_rate=rate, seed=seed)
        raise ValueError(f"no fault plan known for anomaly {anomaly!r}")

    @property
    def any_enabled(self) -> bool:
        return any(
            rate > 0.0
            for rate in (
                self.lost_update_rate,
                self.write_skew_rate,
                self.stale_read_rate,
                self.dirty_install_rate,
            )
        )


class FaultyEngine(IsolationEngine):
    """Wraps a base engine and injects the defects of a :class:`FaultPlan`."""

    def __init__(self, inner: IsolationEngine, plan: FaultPlan) -> None:
        super().__init__(inner.store, inner.clock, inner.locks)
        self.inner = inner
        self.plan = plan
        self.name = f"faulty-{inner.name}"
        self._rng = random.Random(plan.seed)
        #: Number of times each defect actually fired (for experiment logs).
        self.injections = {
            "lost_update": 0,
            "write_skew": 0,
            "stale_read": 0,
            "dirty_install": 0,
        }

    # ------------------------------------------------------------------
    # Engine interface, delegating to the wrapped engine
    # ------------------------------------------------------------------
    def begin(self, ctx: TransactionContext) -> None:
        self.inner.begin(ctx)

    def read(self, ctx: TransactionContext, key: str) -> Optional[int]:
        if (
            self.plan.stale_read_rate > 0.0
            and self._rng.random() < self.plan.stale_read_rate
            and ctx.write_set.get(key) is None
        ):
            stale = self._stale_version(ctx, key)
            if stale is not None:
                self.injections["stale_read"] += 1
                ctx.record_read(key, stale[0], stale[1])
                return stale[0]
        return self.inner.read(ctx, key)

    def write(self, ctx: TransactionContext, key: str, value: int) -> None:
        self.inner.write(ctx, key, value)

    def prepare_commit(self, ctx: TransactionContext) -> None:
        try:
            self.inner.prepare_commit(ctx)
        except TransactionAborted as abort:
            if "write-write conflict" in abort.reason and (
                self._rng.random() < self.plan.lost_update_rate
            ):
                self.injections["lost_update"] += 1
                return
            if "read-write conflict" in abort.reason and (
                self._rng.random() < self.plan.write_skew_rate
            ):
                self.injections["write_skew"] += 1
                return
            raise

    def apply_commit(self, ctx: TransactionContext, commit_ts: float) -> None:
        self.inner.apply_commit(ctx, commit_ts)

    def apply_abort(self, ctx: TransactionContext, abort_ts: float) -> bool:
        """Hook called by the database when a transaction aborts.

        Returns ``True`` when the aborted transaction's writes were (wrongly)
        installed, which is the dirty-install defect.
        """
        if (
            ctx.write_set
            and self.plan.dirty_install_rate > 0.0
            and self._rng.random() < self.plan.dirty_install_rate
        ):
            self.injections["dirty_install"] += 1
            self.inner.apply_commit(ctx, abort_ts)
            return True
        return False

    def cleanup(self, ctx: TransactionContext) -> None:
        self.inner.cleanup(ctx)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _stale_version(self, ctx: TransactionContext, key: str):
        """Pick a committed version older than the one the snapshot would see."""
        versions = self.store.versions(key)
        if len(versions) < 2:
            return None
        visible = [v for v in versions if v.commit_ts <= ctx.snapshot_ts]
        if len(visible) < 2:
            return None
        stale = self._rng.choice(visible[:-1])
        return stale.value, stale.commit_ts
