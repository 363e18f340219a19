"""Tests for the scale-out verification kernel (ISSUE 7).

Covers the three scale-out mechanisms end to end:

* **Tree-reduction SSER merge** — pairwise :func:`merge_csr_wires`
  reductions must produce *byte-identical* results (verdicts, labeled
  cycles, edge columns) for every reduction-tree shape: flat one-pass
  merge, serial left fold, and the executor's adjacent-pair tree,
  including odd shard counts and the single-shard degenerate tree.
* **Shipped/cached index** — ``HistoryIndex.to_wire``/``from_wire``
  round-trips, the CRC-stamped ``save_cache``/``load_cache`` sidecar, the
  epoch-log ``INDEX.cache``, and ``check_parallel(reuse_index=True)`` all
  skip index construction (the ``builds`` counter pins it) without
  changing any verdict.
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
from repro.cli import main as repro_main
from repro.core.checker import MTChecker
from repro.core.checkers import check_sser
from repro.core.index import INDEX_WIRE_FORMAT, HistoryIndex
from repro.core.model import History, Transaction, read, write
from repro.core.result import IsolationLevel
from repro.db import FaultPlan
from repro.history.columnar import (
    ColumnarHistory,
    file_crc32,
    segment_token,
    write_history_segment,
)
from repro.history.epochlog import EpochLog, EpochLogWriter
from repro.parallel import check_parallel, partition_columns
from repro.parallel import executor as executor_module
from repro.parallel.executor import make_payload, shutdown_pool
from repro.parallel.merge import finalize_sser_wires, merge_csr_wires

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


def shard_wires(history):
    """Run the SSER shard stage inline and return (index, CSR wires)."""
    index = HistoryIndex.build(history)
    shards = partition_columns(index.columns, index=index)
    assert all(shard.columns is not None for shard in shards)
    outcomes = [
        executor_module._run_shard(make_payload(shard, SSER, False))
        for shard in shards
    ]
    outcomes.sort(key=lambda o: o.shard_index)
    assert all(o.csr is not None for o in outcomes)
    return index, [o.csr for o in outcomes], sum(o.num_transactions for o in outcomes)


# ----------------------------------------------------------------------
# HistoryIndex wire format + cache
# ----------------------------------------------------------------------
class TestIndexWire:
    def test_round_trip_preserves_verdicts_without_rebuilding(self):
        history = make_disjoint_history(
            num_groups=3, sessions_per_group=2, txns_per_session=6, timestamps=True
        )
        index = HistoryIndex.build(history)
        wire = index.to_wire()
        assert wire["format"] == INDEX_WIRE_FORMAT

        builds = HistoryIndex.builds
        loads = HistoryIndex.wire_loads
        clone = HistoryIndex.from_wire(wire)
        assert HistoryIndex.builds == builds  # no reconstruction
        assert HistoryIndex.wire_loads == loads + 1

        assert clone.num_committed == index.num_committed
        assert list(clone.committed_txn_ids) == list(index.committed_txn_ids)
        assert clone.key_names == index.key_names
        assert list(clone.session_order_id_pairs()) == list(index.session_order_id_pairs())
        assert list(clone.real_time_id_pairs(reduced=True)) == list(
            index.real_time_id_pairs(reduced=True)
        )
        original = check_sser(None, index=index)
        rehydrated = check_sser(None, index=clone)
        assert original.format() == rehydrated.format()

    def test_round_trip_columnar_keeps_row_order(self):
        history = make_disjoint_history(
            num_groups=3, sessions_per_group=2, txns_per_session=6, timestamps=True
        )
        columns = ColumnarHistory.from_history(history)
        index = HistoryIndex.from_columns(columns)
        clone = HistoryIndex.from_wire(index.to_wire(), columns=columns)
        # Row order survives, so the rehydrated index can still drive the
        # columnar partitioner (segref payloads slice by row number).
        serial = check_parallel(columns, SSER, index=index)
        reused = check_parallel(columns, SSER, index=clone)
        assert serial.format() == reused.format()

    def test_round_trip_columnar_preserves_counterexamples(self):
        # A violated history: the rehydrated index must reproduce the full
        # labeled counterexample (it materialises transactions from the
        # backing columns through the preserved row order).
        columns = ColumnarHistory.from_history(rt_cycle_history(1))
        index = HistoryIndex.from_columns(columns)
        clone = HistoryIndex.from_wire(index.to_wire(), columns=columns)
        original = check_sser(None, index=index)
        rehydrated = check_sser(None, index=clone)
        assert not original.satisfied and not rehydrated.satisfied
        assert original.format() == rehydrated.format()

    def test_history_built_wire_reattaches_its_columns(self):
        # A History enters as columns, so its wire carries the row order and
        # round-trips with the index's own columns like a segment-built one
        # (the parent's "object wire" could not attach columns at all).
        index = HistoryIndex.build(rt_cycle_history(1))
        clone = HistoryIndex.from_wire(index.to_wire(), columns=index.columns)
        original = check_sser(None, index=index)
        rehydrated = check_sser(None, index=clone)
        assert not original.satisfied
        assert original.format() == rehydrated.format()

    def test_cache_round_trip_and_invalidation(self, tmp_path):
        history = composite_history([("si", 8, None)])
        columns = ColumnarHistory.from_history(history)
        index = HistoryIndex.from_columns(columns)
        path = tmp_path / "seg.idx"
        fingerprint = {"crc32": 12345, "size": 678}
        index.save_cache(path, fingerprint=fingerprint)

        loaded = HistoryIndex.load_cache(path, fingerprint=fingerprint, columns=columns)
        assert loaded is not None
        assert check_sser(None, index=loaded).format() == check_sser(None, index=index).format()

        # Any fingerprint drift (segment rewritten) invalidates silently.
        stale = HistoryIndex.load_cache(
            path, fingerprint={"crc32": 999, "size": 678}, columns=columns
        )
        assert stale is None
        # As does corruption anywhere in the payload.
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        assert HistoryIndex.load_cache(path, fingerprint=fingerprint, columns=columns) is None
        assert HistoryIndex.load_cache(tmp_path / "absent.idx", fingerprint=fingerprint) is None

    def test_dirty_index_round_trips_its_violations(self, tmp_path):
        # The wire ships the scan's candidate rows, not a "clean" flag:
        # emitting it classifies nothing, and the rehydrated index reports
        # the same violations from the columns it is handed.
        from repro.core.anomalies import anomaly_history

        for name in ("AbortedRead", "IntermediateRead", "FutureRead"):
            columns = ColumnarHistory.from_history(anomaly_history(name))
            index = HistoryIndex.from_columns(columns)
            wire = index.to_wire()
            assert index._int_violations is None and index._txn_cache == {}
            index.save_cache(tmp_path / "dirty.idx", fingerprint={"name": name})
            for clone in (
                HistoryIndex.from_wire(wire, columns=columns),
                HistoryIndex.load_cache(
                    tmp_path / "dirty.idx", fingerprint={"name": name}, columns=columns
                ),
            ):
                assert [v.format() for v in clone.int_violations()] == [
                    v.format() for v in index.int_violations()
                ] != []


# ----------------------------------------------------------------------
# Tree-reduction merge
# ----------------------------------------------------------------------
def _fold_left(wires):
    merged = wires[0]
    for wire in wires[1:]:
        merged = merge_csr_wires(merged, wire)
    return [merged]


def _tree(wires):
    return executor_module._reduce_wires(list(wires), workers=1)


class TestTreeReduction:
    @pytest.mark.parametrize("num_groups", [2, 3, 5, 8, 16])
    def test_every_tree_shape_is_byte_identical_on_accept(self, num_groups):
        history = make_disjoint_history(
            num_groups=num_groups,
            sessions_per_group=2,
            txns_per_session=4,
            keys_per_group=3,
            timestamps=True,
        )
        index, wires, num_txns = shard_wires(history)
        assert len(wires) == num_groups
        results = [
            finalize_sser_wires(shape, index, num_transactions=num_txns)
            for shape in (wires, _fold_left(wires), _tree(wires))
        ]
        assert all(r.satisfied for r in results)
        assert results[0].format() == results[1].format() == results[2].format()

    @pytest.mark.parametrize("extra_groups", [0, 1, 3, 6, 14])
    def test_every_tree_shape_reports_the_same_labeled_cycle(self, extra_groups):
        history = rt_cycle_history(extra_groups)
        index, wires, num_txns = shard_wires(history)
        assert len(wires) == 2 + extra_groups
        results = [
            finalize_sser_wires(shape, index, num_transactions=num_txns)
            for shape in (wires, _fold_left(wires), _tree(wires))
        ]
        assert all(not r.satisfied for r in results)
        # Byte-identical counterexamples: same anomaly, same labeled cycle.
        assert results[0].format() == results[1].format() == results[2].format()
        cycles = {tuple(r.violations[0].cycle) for r in results}
        assert len(cycles) == 1

    def test_single_shard_degenerate_tree(self):
        history = make_disjoint_history(
            num_groups=1, sessions_per_group=2, txns_per_session=4, timestamps=True
        )
        index, wires, num_txns = shard_wires(history)
        assert len(wires) == 1
        assert _tree(wires) == wires
        result = finalize_sser_wires(wires, index, num_transactions=num_txns)
        serial = MTChecker().verify(history, SSER)
        assert result.satisfied == serial.satisfied


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
                result = check_parallel(history, SSER, workers=8)
        # Attributed to the caller of check_parallel, not to executor internals.
        assert [w.filename for w in caught] == [__file__]
        assert reg.value("repro_executor_workers_requested") == 8
        assert reg.value("repro_executor_workers_effective") <= 2
        assert result.satisfied == MTChecker().verify(history, SSER).satisfied

    def test_no_warning_within_cpu_budget(self, monkeypatch):
        monkeypatch.setattr(executor_module, "_cpu_count", lambda: 4)
        history = composite_history([("ser", 32, None)])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            check_parallel(history, SSER, workers=2)

    def test_small_history_falls_back_inline(self, monkeypatch):
        monkeypatch.setattr(executor_module, "_cpu_count", lambda: 4)
        history = composite_history([("ser", 33, None), ("ser", 34, None)])
        with obs.scoped() as reg:
            check_parallel(history, SSER, workers=4)
        assert reg.value("repro_executor_inline") == 1
        assert reg.value("repro_executor_workers_effective") == 1
        assert reg.value("repro_executor_shards") == 2

    def test_pool_path_matches_inline(self, monkeypatch):
        # Force the real pool on a small history: drop the inline threshold
        # and let two workers through the clamp regardless of the machine.
        monkeypatch.setattr(executor_module, "_cpu_count", lambda: 2)
        monkeypatch.setattr(executor_module, "_MIN_POOL_TXNS", 0)
        history = rt_cycle_history(2)
        try:
            with obs.scoped() as reg:
                fanned = check_parallel(history, SSER, workers=2)
            inline = check_parallel(history, SSER, workers=1)
            assert reg.value("repro_executor_workers_effective") == 2
            assert fanned.format() == inline.format()
            # Second call reuses the persistent pool (warm worker caches).
            again = check_parallel(history, SSER, workers=2)
            assert again.format() == inline.format()
        finally:
            shutdown_pool()


# ----------------------------------------------------------------------
# Index reuse: segment sidecar + epoch-log cache
# ----------------------------------------------------------------------
class TestIndexReuse:
    def _segment(self, tmp_path, timestamps=True):
        history = make_disjoint_history(
            num_groups=3, sessions_per_group=2, txns_per_session=6, timestamps=timestamps
        )
        path = tmp_path / "history.seg"
        write_history_segment(history, path)
        return path, ColumnarHistory.load(path, mmap=True)

    def test_reuse_index_sidecar_skips_rebuild(self, tmp_path):
        path, columns = self._segment(tmp_path)
        with obs.scoped() as cold_reg:
            cold = check_parallel(columns, SSER, source_path=path, reuse_index=True)
        sidecar = tmp_path / "history.seg.idx"
        assert sidecar.exists()
        assert cold_reg.value("repro_executor_index_build_seconds") is not None

        builds = HistoryIndex.builds
        with obs.scoped() as warm_reg:
            warm = check_parallel(columns, SSER, source_path=path, reuse_index=True)
        assert HistoryIndex.builds == builds  # rehydrated, not rebuilt
        assert warm_reg.value("repro_executor_index_reuse_seconds") is not None
        assert warm.format() == cold.format()

    def test_sidecar_invalidated_when_segment_changes(self, tmp_path):
        path, columns = self._segment(tmp_path)
        check_parallel(columns, SSER, source_path=path, reuse_index=True)
        token = segment_token(path)
        # Rewrite the segment with different content: same sidecar path,
        # different CRC — the stale cache must be ignored and replaced.
        history = make_disjoint_history(
            num_groups=2, sessions_per_group=2, txns_per_session=5, timestamps=True
        )
        write_history_segment(history, path)
        assert segment_token(path) != token or file_crc32(path) is not None
        new_columns = ColumnarHistory.load(path, mmap=True)
        result = check_parallel(new_columns, SSER, source_path=path, reuse_index=True)
        serial = MTChecker().verify(new_columns, SSER)
        assert result.satisfied == serial.satisfied
        assert result.num_transactions == serial.num_transactions

    @staticmethod
    def _retag_as_older(cache_path, stamp=b'"repro-history-index-v1","has_row_order":true'):
        """Rewrite a sidecar's header the way an older writer stamped it."""
        blob = cache_path.read_bytes()
        assert INDEX_WIRE_FORMAT.encode() in blob
        cache_path.write_bytes(
            blob.replace(
                b'"format":"' + INDEX_WIRE_FORMAT.encode() + b'"', b'"format":' + stamp, 1
            )
        )

    def test_v2_sidecar_and_cache_are_a_miss_and_rewritten(self, tmp_path, capsys):
        v2 = b'"repro-history-index-v2","int_clean":true'
        path, columns = self._segment(tmp_path)
        cold = check_parallel(columns, SSER, source_path=path, reuse_index=True)
        sidecar = tmp_path / "history.seg.idx"
        self._retag_as_older(sidecar, v2)
        builds, loads = HistoryIndex.builds, HistoryIndex.wire_loads
        again = check_parallel(columns, SSER, source_path=path, reuse_index=True)
        assert (HistoryIndex.builds, HistoryIndex.wire_loads) == (builds + 1, loads)
        assert again.format() == cold.format()
        assert b"repro-history-index-v2" not in sidecar.read_bytes()

        log_dir = tmp_path / "log.epochs"
        with EpochLogWriter(log_dir, epoch_transactions=32) as writer:
            for txn in columns.iter_transactions():
                writer.append(txn)
        assert repro_main(["check", str(log_dir), "--level", "sser"]) == 0
        first = capsys.readouterr().out
        self._retag_as_older(log_dir / "INDEX.cache", v2)
        builds, loads = HistoryIndex.builds, HistoryIndex.wire_loads
        assert repro_main(["check", str(log_dir), "--level", "sser"]) == 0
        assert capsys.readouterr().out == first
        assert HistoryIndex.builds > builds and HistoryIndex.wire_loads == loads
        assert b"repro-history-index-v2" not in (log_dir / "INDEX.cache").read_bytes()

    def test_v1_segment_sidecar_is_ignored_and_rewritten(self, tmp_path):
        path, columns = self._segment(tmp_path)
        cold = check_parallel(columns, SSER, source_path=path, reuse_index=True)
        sidecar = tmp_path / "history.seg.idx"
        self._retag_as_older(sidecar)
        assert b"repro-history-index-v1" in sidecar.read_bytes()

        builds = HistoryIndex.builds
        with obs.scoped() as reg:
            again = check_parallel(columns, SSER, source_path=path, reuse_index=True)
        # Never misread: the stale-format sidecar is a miss, the index is
        # rebuilt, and the sidecar is replaced by a current one.
        assert HistoryIndex.builds > builds
        assert reg.value("repro_executor_index_reuse_seconds") is None
        assert again.format() == cold.format()
        assert INDEX_WIRE_FORMAT.encode() in sidecar.read_bytes()
        assert b"repro-history-index-v1" not in sidecar.read_bytes()

    def test_v1_epochlog_cache_is_ignored_and_rewritten(self, tmp_path, capsys):
        history = make_disjoint_history(
            num_groups=2, sessions_per_group=2, txns_per_session=6, timestamps=True
        )
        log_dir = tmp_path / "log.epochs"
        from repro.core.incremental import stream_order

        with EpochLogWriter(log_dir, epoch_transactions=32) as writer:
            for txn in stream_order(history):
                writer.append(txn)
        assert repro_main(["check", str(log_dir), "--level", "sser"]) == 0
        first = capsys.readouterr().out
        cache = log_dir / "INDEX.cache"
        self._retag_as_older(cache)

        log = EpochLog.open(log_dir)
        assert log.cached_index(log.to_columns()) is None
        assert repro_main(["check", str(log_dir), "--level", "sser"]) == 0
        assert capsys.readouterr().out == first
        assert b"repro-history-index-v1" not in cache.read_bytes()
        assert EpochLog.open(log_dir).cached_index(log.to_columns()) is not None

    def test_epochlog_cache_round_trip_and_append_invalidation(self, tmp_path):
        history = make_disjoint_history(
            num_groups=2, sessions_per_group=2, txns_per_session=8, timestamps=True
        )
        log_dir = tmp_path / "log.epochs"
        from repro.core.incremental import stream_order

        with EpochLogWriter(log_dir, epoch_transactions=16) as writer:
            for txn in stream_order(history):
                writer.append(txn)
        log = EpochLog.open(log_dir)
        columns = log.to_columns()
        assert log.cached_index(columns) is None  # nothing cached yet

        index = HistoryIndex.from_columns(columns)
        assert log.cache_index(index) is not None
        assert (log_dir / "INDEX.cache").exists()

        builds = HistoryIndex.builds
        cached = log.cached_index(columns)
        assert cached is not None and HistoryIndex.builds == builds
        assert check_sser(None, index=cached).format() == check_sser(None, index=index).format()

        # Appending an epoch changes the manifest fingerprint: stale cache
        # must be refused.
        extra = Transaction(
            10_000,
            [read("g0:k0", None), write("g0:k0", 10_000)],
            session_id=99,
            start_ts=1e9,
            finish_ts=1e9 + 1,
        )
        with EpochLogWriter(log_dir, epoch_transactions=4) as writer:
            writer.append(extra)
        grown = EpochLog.open(log_dir)
        assert grown.cached_index(grown.to_columns()) is None

    def test_cli_epochlog_check_writes_and_reuses_cache(self, tmp_path, capsys):
        history = make_disjoint_history(
            num_groups=2, sessions_per_group=2, txns_per_session=6, timestamps=True
        )
        log_dir = tmp_path / "log.epochs"
        from repro.core.incremental import stream_order

        with EpochLogWriter(log_dir, epoch_transactions=32) as writer:
            for txn in stream_order(history):
                writer.append(txn)

        before_first = HistoryIndex.builds
        assert repro_main(["check", str(log_dir), "--level", "sser"]) == 0
        assert (log_dir / "INDEX.cache").exists()
        first = capsys.readouterr().out
        first_builds = HistoryIndex.builds - before_first

        before_second = HistoryIndex.builds
        loads = HistoryIndex.wire_loads
        assert repro_main(["check", str(log_dir), "--level", "sser"]) == 0
        # The second check rehydrates the batch index from INDEX.cache:
        # exactly one build fewer than the cold run (per-shard index builds
        # still happen inline), and one wire load more.
        assert HistoryIndex.builds - before_second == first_builds - 1
        assert HistoryIndex.wire_loads == loads + 1
        assert capsys.readouterr().out == first
