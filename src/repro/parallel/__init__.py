"""Parallel sharded verification: partition, fan out, merge.

The subsystem splits a history into key-connected shards
(:mod:`~repro.parallel.partition`), checks every shard independently
across OS processes (:mod:`~repro.parallel.executor`), and merges the
verdicts (:mod:`~repro.parallel.merge`) under the invariant that sharded
verdicts equal serial verdicts on every history.  Reach it through
``MTChecker(workers=N)``, ``repro check --workers N``, or
:func:`check_parallel` directly.
"""

from .executor import check_parallel
from .merge import ShardOutcome, merge_shard_results
from .partition import DEFAULT_MAX_SHARDS, Shard, partition_columns

__all__ = [
    "DEFAULT_MAX_SHARDS",
    "Shard",
    "ShardOutcome",
    "check_parallel",
    "merge_shard_results",
    "partition_columns",
]
