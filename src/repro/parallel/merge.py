"""Merging shard outcomes back into a single :class:`CheckResult`.

For SER and SI no dependency edge crosses a shard boundary, so the merged
verdict is simply the conjunction of the shard verdicts; violations are
concatenated in shard order, which makes the merged result deterministic
and identical across worker counts.  (SSER is never sharded: the
real-time order relates transactions in different shards, so the executor
checks it on the one global index.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.result import CheckResult, IsolationLevel, Violation

__all__ = ["ShardOutcome", "merge_shard_results"]

@dataclass
class ShardOutcome:
    """What one shard check sends back to the merger (cheap to pickle)."""

    shard_index: int
    num_transactions: int
    #: The shard's full verdict: its violations, empty when it is satisfied.
    violations: List[Violation] = field(default_factory=list)
    #: Telemetry snapshot recorded while checking the shard (JSON-safe
    #: numbers from ``MetricsRegistry.snapshot()``); ``None`` unless the
    #: payload carried ``with_metrics``.  The parent folds these into its
    #: registry — counters add, so any fold order yields the same totals.
    metrics: Optional[Dict[str, object]] = None


def merge_shard_results(level: IsolationLevel, outcomes: List[ShardOutcome]) -> CheckResult:
    """Conjunction merge for SER/SI.

    Outcomes must already be sorted by shard index; the merged violation
    list concatenates the failing shards' violations in that order.
    """
    num_transactions = sum(o.num_transactions for o in outcomes)
    violations: List[Violation] = []
    for outcome in outcomes:
        violations.extend(outcome.violations)
    if violations:
        return CheckResult.violated(level, violations, num_transactions=num_transactions)
    return CheckResult.ok(level, num_transactions)
