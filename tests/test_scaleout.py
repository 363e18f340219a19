"""Tests for the scale-out verification kernel.

Covers the scale-out mechanisms end to end:

* **Serial SSER** — the real-time order crosses every shard, so
  ``check_parallel`` checks SSER and LIN on the one index it built and
  never partitions.
* **Shard counts** — SER and SI fanned over 1..16 key-disjoint shards
  print exactly what the serial checker prints, accept or reject, wherever
  the failing shard sits in shard order.
* **Worker governance** — ``--workers`` clamps to the CPU count with a
  warning, small histories fall back inline, and the persistent pool path
  (exercised by monkeypatching the clamp/threshold) returns identical
  results to inline execution.
"""

import warnings

import pytest

from test_parallel import assert_equivalent, composite_history

from repro import obs
from repro.bench import make_disjoint_history
from repro.core.checker import MTChecker
from repro.core.index import HistoryIndex
from repro.core.model import History, Transaction, read, write
from repro.core.result import IsolationLevel
from repro.db import FaultPlan
from repro.history.columnar import ColumnarHistory
from repro.parallel import check_parallel, partition_columns
from repro.parallel import executor as executor_module
from repro.parallel.executor import shutdown_pool

SER = IsolationLevel.SERIALIZABILITY
SI = IsolationLevel.SNAPSHOT_ISOLATION
SSER = IsolationLevel.STRICT_SERIALIZABILITY


def rt_cycle_history(extra_groups=0):
    """A history whose only SSER violation threads RT edges across shards.

    The four core transactions split into two key-connected shards, each
    internally acyclic; the cycle alternates dependency paths in one shard
    with real-time hops through the other (SER accepts, SSER rejects).
    ``extra_groups`` appends disjoint serial RMW groups so the partitioner
    yields more shards without adding violations.
    """
    t1 = Transaction(1, [read("a", 2)], session_id=0, start_ts=0.0, finish_ts=1.0)
    t2 = Transaction(
        2, [read("a", 0), write("a", 2)], session_id=1, start_ts=4.0, finish_ts=5.0
    )
    t3 = Transaction(
        3, [read("b", 0), write("b", 3)], session_id=2, start_ts=1.5, finish_ts=2.0
    )
    t4 = Transaction(4, [read("b", 3)], session_id=3, start_ts=2.5, finish_ts=3.5)
    chains = [[t1], [t2], [t3], [t4]]
    keys = ["a", "b"]
    txn_id = 5
    clock = 10.0
    for group in range(extra_groups):
        key = f"x{group}"
        keys.append(key)
        latest, chain = 0, []
        for _ in range(3):
            chain.append(
                Transaction(
                    txn_id,
                    [read(key, latest), write(key, txn_id)],
                    session_id=3 + txn_id,
                    start_ts=clock,
                    finish_ts=clock + 0.5,
                )
            )
            latest = txn_id
            txn_id += 1
            clock += 1.0
        chains.append(chain)
    return History.from_transactions(chains, initial_keys=keys)


def faulty_composite():
    """Four key-disjoint shards, two of them with anomalies SER and SI reject."""
    return composite_history(
        [
            ("si", 41, FaultPlan.for_anomaly("lostupdate", rate=0.5, seed=41)),
            ("si", 42, None),
            ("si", 43, FaultPlan.for_anomaly("writeskew", rate=0.5, seed=43)),
            ("ser", 44, None),
        ]
    )


# ----------------------------------------------------------------------
# SSER checks serially: one index, no partition
# ----------------------------------------------------------------------
class TestSerialSSER:
    @pytest.mark.parametrize("level", [SSER, IsolationLevel.LINEARIZABILITY])
    def test_sser_builds_one_index_and_never_partitions(self, monkeypatch, level):
        monkeypatch.setattr(executor_module, "_cpu_count", lambda: 2)

        def refuse(*_args, **_kwargs):
            raise AssertionError("SSER must not be partitioned")

        monkeypatch.setattr(executor_module, "partition_columns", refuse)
        history = rt_cycle_history(6)
        builds = HistoryIndex.builds
        with obs.scoped() as reg:
            result = check_parallel(history, level, workers=2)
        assert HistoryIndex.builds - builds == 1
        assert reg.value("repro_executor_inline") == 1
        assert reg.value("repro_executor_shard_checks_total") is None
        assert result.format() == MTChecker().verify(history, SSER).format()


# ----------------------------------------------------------------------
# SER/SI fan-out: every shard count prints the serial result
# ----------------------------------------------------------------------
@pytest.mark.parametrize("level", [SER, SI])
class TestShardCounts:
    @pytest.mark.parametrize("num_groups", [2, 3, 5, 8, 16])
    def test_every_shard_count_is_byte_identical_on_accept(self, level, num_groups):
        history = make_disjoint_history(
            num_groups=num_groups,
            sessions_per_group=2,
            txns_per_session=4,
            keys_per_group=3,
        )
        with obs.scoped() as reg:
            result = check_parallel(history, level, workers=1)
        assert reg.value("repro_executor_shards") == num_groups
        assert reg.value("repro_executor_shard_checks_total") == num_groups
        assert result.satisfied
        assert result.format() == MTChecker().verify(history, level).format()

    @pytest.mark.parametrize("extra_groups", [0, 1, 3, 6, 14])
    def test_every_shard_count_reports_the_serial_counterexample(
        self, level, extra_groups
    ):
        # One lost-update group among clean ones, placed mid-way in shard
        # order, so the failing shard is neither always first nor last.
        specs = [("si", 70 + g, None) for g in range(extra_groups)]
        specs.insert(
            extra_groups // 2,
            ("si", 41, FaultPlan.for_anomaly("lostupdate", rate=0.5, seed=41)),
        )
        history = composite_history(specs)
        with obs.scoped() as reg:
            result = check_parallel(history, level, workers=1)
        assert reg.value("repro_executor_shards") == 1 + extra_groups
        serial = MTChecker().verify(history, level)
        assert not result.satisfied and not serial.satisfied
        assert result.format() == serial.format()

    def test_connected_history_is_checked_whole(self, level):
        history = make_disjoint_history(
            num_groups=1, sessions_per_group=2, txns_per_session=4, keys_per_group=3
        )
        with obs.scoped() as reg:
            result = check_parallel(history, level, workers=2)
        assert reg.value("repro_executor_shards") == 1
        assert reg.value("repro_executor_shard_checks_total") is None
        assert result.format() == MTChecker().verify(history, level).format()


# ----------------------------------------------------------------------
# Randomized sharded-vs-serial equivalence (2..16 shards, all levels)
# ----------------------------------------------------------------------
class TestRandomizedEquivalence:
    @pytest.mark.parametrize("num_groups", [2, 3, 7, 16])
    def test_clean_composites(self, num_groups):
        specs = [("si" if g % 2 else "ser", 100 + g, None) for g in range(num_groups)]
        history = composite_history(specs)
        assert len(partition_columns(ColumnarHistory.from_history(history))) == num_groups
        assert_equivalent(history, workers=2)

    @pytest.mark.parametrize("num_groups", [3, 5])
    def test_faulty_composites(self, num_groups):
        specs = [
            (
                "ser",
                200 + g,
                FaultPlan(lost_update_rate=0.6, seed=g) if g == 1 else None,
            )
            for g in range(num_groups)
        ]
        history = composite_history(specs)
        assert_equivalent(history, workers=2)

    @pytest.mark.parametrize("extra_groups", [0, 2, 9])
    def test_cross_shard_rt_violations(self, extra_groups):
        history = rt_cycle_history(extra_groups)
        serial = MTChecker().verify(history, SSER)
        sharded = MTChecker(workers=2).verify(history, SSER)
        assert not serial.satisfied and not sharded.satisfied
        assert {v.kind for v in serial.violations} == {
            v.kind for v in sharded.violations
        }
        # SER ignores RT and must accept every shape.
        assert MTChecker(workers=2).verify(
            history, IsolationLevel.SERIALIZABILITY
        ).satisfied


# ----------------------------------------------------------------------
# Worker governance: clamp, inline threshold, persistent pool
# ----------------------------------------------------------------------
class TestWorkerGovernance:
    def test_workers_clamped_to_cpu_count_with_warning(self, monkeypatch):
        monkeypatch.setattr(executor_module, "_cpu_count", lambda: 2)
        history = composite_history([("ser", 30, None), ("si", 31, None)])
        with obs.scoped() as reg:
            with pytest.warns(RuntimeWarning, match="clamping to 2") as caught:
                result = check_parallel(history, SER, workers=8)
        # Attributed to the caller of check_parallel, not to executor internals.
        assert [w.filename for w in caught] == [__file__]
        assert reg.value("repro_executor_workers_requested") == 8
        assert reg.value("repro_executor_workers_effective") <= 2
        assert result.satisfied == MTChecker().verify(history, SER).satisfied

    def test_no_warning_within_cpu_budget(self, monkeypatch):
        monkeypatch.setattr(executor_module, "_cpu_count", lambda: 4)
        history = composite_history([("ser", 32, None)])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            check_parallel(history, SER, workers=2)

    def test_small_history_falls_back_inline(self, monkeypatch):
        monkeypatch.setattr(executor_module, "_cpu_count", lambda: 4)
        history = composite_history([("ser", 33, None), ("ser", 34, None)])
        with obs.scoped() as reg:
            check_parallel(history, SI, workers=4)
        assert reg.value("repro_executor_inline") == 1
        assert reg.value("repro_executor_workers_effective") == 1
        assert reg.value("repro_executor_shards") == 2
        assert reg.value("repro_executor_shard_checks_total") == 2

    @pytest.mark.parametrize("level", [SER, SI])
    def test_pool_path_matches_inline(self, monkeypatch, level):
        # Force the real pool on a small history: drop the inline threshold
        # and let two workers through the clamp regardless of the machine.
        monkeypatch.setattr(executor_module, "_cpu_count", lambda: 2)
        monkeypatch.setattr(executor_module, "_MIN_POOL_TXNS", 0)
        history = faulty_composite()
        try:
            with obs.scoped() as reg:
                fanned = check_parallel(history, level, workers=2)
            inline = check_parallel(history, level, workers=1)
            assert reg.value("repro_executor_workers_effective") == 2
            assert reg.value("repro_executor_shards") == 4
            assert reg.value("repro_resilience_pool_faults_total", kind="spawn") is None
            assert reg.value("repro_resilience_pool_faults_total", kind="broken") is None
            assert not fanned.satisfied
            assert fanned.format() == inline.format()
            # Second call reuses the persistent pool.
            pool = executor_module._POOL
            again = check_parallel(history, level, workers=2)
            assert executor_module._POOL is pool is not None
            assert again.format() == inline.format()
        finally:
            shutdown_pool()

    def test_refused_spawn_finishes_every_shard_inline(self, monkeypatch):
        monkeypatch.setattr(executor_module, "_cpu_count", lambda: 2)
        monkeypatch.setattr(executor_module, "_MIN_POOL_TXNS", 0)

        def refuse(_workers):
            raise OSError("spawn refused")

        monkeypatch.setattr(executor_module, "_get_pool", refuse)
        history = faulty_composite()
        inline = check_parallel(history, SER, workers=1)
        with obs.scoped() as reg:
            result = check_parallel(history, SER, workers=2)
        assert reg.value("repro_executor_workers_effective") == 2
        assert reg.value("repro_resilience_pool_faults_total", kind="spawn") == 1
        assert reg.value("repro_resilience_pool_faults_total", kind="broken") is None
        assert reg.value("repro_executor_shard_checks_total") == 4
        assert executor_module._POOL is None
        assert result.format() == inline.format()
