"""Parallel sharded verification: partition, fan out, merge.

The subsystem splits a history into key-connected shards
(:mod:`~repro.parallel.partition`), checks every shard independently
across OS processes (:mod:`~repro.parallel.executor`), and conjoins the
verdicts (:mod:`~repro.parallel.merge`) under the invariant that sharded
verdicts equal serial verdicts on every history.  SER and SI fan out; SSER
and LIN check serially, since the real-time order crosses shards.  Reach it
through ``MTChecker(workers=N)`` or :func:`check_parallel` directly; no
command reaches it.  It stays as a library seam because the pipeline
benchmark's ``probe_parallel`` times ``MTChecker(workers=1|2)``.
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
