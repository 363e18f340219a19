"""Parallel sharded verification: partition, fan out, merge.

The subsystem splits a history into key-connected shards
(:mod:`~repro.parallel.partition`), checks every shard independently
across OS processes (:mod:`~repro.parallel.executor`), and merges the
verdicts (:mod:`~repro.parallel.merge`) under the invariant that sharded
verdicts equal serial verdicts on every history.  Reach it through
``MTChecker(workers=N)``, ``repro check --workers N``, or
:func:`check_parallel` directly.
"""

from .._lazy import surface

__all__, __getattr__, __dir__ = surface(__name__, {
    "check_parallel": ".executor",
    "ShardOutcome": ".merge",
    "merge_shard_results": ".merge",
    "DEFAULT_MAX_SHARDS": ".partition",
    "Shard": ".partition",
    "partition_columns": ".partition",
})
