"""Tests for the columnar history substrate (``repro.history.columnar``).

The central invariants of the columnar data plane:

* **Lossless interchange** — JSONL ↔ columnar conversion preserves every
  transaction field exactly, in order, including aborted/unknown statuses,
  ``None`` values, and timestamps.
* **One verdict** — for any history, checking through the columnar path
  (``HistoryIndex.from_columns`` / ``MTChecker.verify(segment)`` /
  ``IncrementalChecker.ingest_segment`` / ``workers=N`` columnar dispatch)
  produces the *same* verdict, anomaly kinds, and labeled cycles as the
  object pipeline — across SER/SI/SSER, healthy and fault-injected
  histories.
* **No object pickling** — parallel dispatch ships raw column buffers;
  no ``Transaction``/``Operation`` ever crosses the process boundary.
"""

import gzip
import math
import pickle
import random

import pytest

from repro.core.checker import MTChecker
from repro.core.checkers import check_ser, check_si, check_sser
from repro.core.incremental import IncrementalChecker
from repro.core.index import HistoryIndex
from repro.core.model import (
    History,
    Transaction,
    TransactionStatus,
    read,
    write,
)
from repro.core.result import IsolationLevel
from repro.db import Database, FaultPlan
from repro.history import (
    ColumnarHistory,
    is_segment_path,
    iter_history_jsonl,
    load_history_segment,
    write_history_jsonl,
    write_history_segment,
)
from repro.parallel import check_parallel
from repro.parallel.executor import make_payload
from repro.parallel.partition import partition_columns
from repro.workloads.mt_generator import MTWorkloadGenerator
from repro.workloads.runner import run_workload

LEVELS = [
    IsolationLevel.SERIALIZABILITY,
    IsolationLevel.SNAPSHOT_ISOLATION,
    IsolationLevel.STRICT_SERIALIZABILITY,
]

FAULTS = [None, "lostupdate", "writeskew", "staleread", "abortedread"]


def generated_history(seed, fault=None, sessions=4, txns=25, objects=10):
    workload = MTWorkloadGenerator(
        num_sessions=sessions,
        txns_per_session=txns,
        num_objects=objects,
        distribution="zipf",
        seed=seed,
    ).generate()
    faults = (
        FaultPlan.for_anomaly(fault, rate=0.4, seed=seed) if fault else None
    )
    database = Database("si", keys=workload.keys, faults=faults)
    return run_workload(database, workload, seed=seed + 1).history


def txn_fingerprint(txn):
    """Every serialised field of one transaction, for exact comparisons."""
    return (
        txn.txn_id,
        txn.session_id,
        txn.status,
        txn.start_ts,
        txn.finish_ts,
        tuple((op.op_type, op.key, op.value) for op in txn.operations),
    )


def result_fingerprint(result):
    """Verdict + anomaly kinds + labeled cycles, for exact comparisons."""
    return (
        result.satisfied,
        result.num_transactions,
        [
            (v.kind, tuple(v.txn_ids), v.key, v.cycle, v.description)
            for v in result.violations
        ],
    )


# ----------------------------------------------------------------------
# Columnar container basics
# ----------------------------------------------------------------------
class TestColumnarContainer:
    def test_round_trip_through_columns_is_exact(self):
        history = generated_history(1, "abortedread")
        cols = ColumnarHistory.from_history(history)
        assert cols.num_transactions == history.num_transactions(include_initial=True)
        back = cols.to_history()
        original = {t.txn_id: txn_fingerprint(t) for t in history.transactions()}
        restored = {t.txn_id: txn_fingerprint(t) for t in back.transactions()}
        assert original == restored

    def test_none_values_and_missing_timestamps_survive(self):
        txn = Transaction(
            7,
            [read("x", None), write("x", 1), read("y", 3)],
            session_id=2,
            status=TransactionStatus.UNKNOWN,
        )
        cols = ColumnarHistory.from_transactions([txn])
        restored = cols.transaction_at(0)
        assert txn_fingerprint(restored) == txn_fingerprint(txn)
        assert restored.operations[0].value is None
        assert restored.start_ts is None and restored.finish_ts is None

    def test_wire_round_trip(self):
        cols = ColumnarHistory.from_history(generated_history(2))
        back = ColumnarHistory.from_wire(cols.to_wire())
        assert [txn_fingerprint(t) for t in back.iter_transactions()] == [
            txn_fingerprint(t) for t in cols.iter_transactions()
        ]

    def test_slice_rows_restricts_initial_keys(self):
        history = generated_history(3)
        cols = ColumnarHistory.from_history(history)
        keys = cols.key_names[:2]
        sliced = cols.slice_rows([0], restrict_initial_keys=keys)
        initial = sliced.transaction_at(0)
        assert initial.is_initial
        assert set(initial.keys()) <= set(keys)

    def test_nbytes_is_a_flat_columns_footprint(self):
        cols = ColumnarHistory.from_history(generated_history(4))
        assert 0 < cols.nbytes < 10 * cols.num_operations * 8 + 50 * cols.num_transactions


# ----------------------------------------------------------------------
# Segment files
# ----------------------------------------------------------------------
class TestSegmentFiles:
    def test_save_load_round_trip(self, tmp_path):
        history = generated_history(5, "lostupdate")
        path = tmp_path / "history.seg"
        write_history_segment(history, path)
        cols = load_history_segment(path)
        assert [txn_fingerprint(t) for t in cols.iter_transactions()] == [
            txn_fingerprint(t)
            for t in ColumnarHistory.from_history(history).iter_transactions()
        ]

    def test_gzip_segments_are_detected_by_content(self, tmp_path):
        history = generated_history(6)
        plain = tmp_path / "a.seg"
        packed = tmp_path / "b.seg.gz"
        write_history_segment(history, plain)
        write_history_segment(history, packed)
        assert packed.read_bytes()[:2] == b"\x1f\x8b"
        assert packed.stat().st_size < plain.stat().st_size
        a = load_history_segment(plain)
        b = load_history_segment(packed)
        assert [txn_fingerprint(t) for t in a.iter_transactions()] == [
            txn_fingerprint(t) for t in b.iter_transactions()
        ]

    def test_corrupt_files_are_rejected(self, tmp_path):
        bogus = tmp_path / "bogus.seg"
        bogus.write_bytes(b"not a segment at all")
        with pytest.raises(ValueError):
            load_history_segment(bogus)
        truncated = tmp_path / "trunc.seg"
        write_history_segment(generated_history(7), tmp_path / "ok.seg")
        truncated.write_bytes((tmp_path / "ok.seg").read_bytes()[:-64])
        with pytest.raises(ValueError):
            load_history_segment(truncated)

    @pytest.mark.parametrize("cut", range(1, 13))
    def test_gzip_segment_cut_in_its_trailer_is_truncated(self, tmp_path, cut):
        # A gzip member ends in its CRC and length (8 bytes) behind the
        # end-of-stream marker; they are only checked by reading to the end,
        # which every column can be read without doing.
        write_history_segment(generated_history(8), tmp_path / "whole.seg.gz")
        torn = tmp_path / "torn.seg.gz"
        torn.write_bytes((tmp_path / "whole.seg.gz").read_bytes()[:-cut])
        with pytest.raises(ValueError, match=r"torn\.seg\.gz: truncated segment"):
            load_history_segment(torn)

    @pytest.mark.parametrize(
        "mutation",
        ["key-id-too-large", "key-id-negative", "offsets-not-sorted", "offsets-past-the-end",
         "status-unknown", "kind-unknown", "column-too-short"],
    )
    def test_structurally_wrong_columns_are_refused_by_every_reader(
        self, mutation, tmp_path, capsys
    ):
        """Intact bytes (every checksum holds) that do not describe a history:
        exit 2 with a message — never a verdict, never a traceback."""
        from dataclasses import replace

        from repro.cli import main
        from repro.history import EpochLog, EpochLogWriter
        from repro.history.columnar import file_crc32
        from repro.history.epochlog import MANIFEST_NAME, _MANIFEST_HEADER, _encode_record

        t1 = Transaction(1, [read("x", 0), write("x", 1)], session_id=0)
        t2 = Transaction(2, [read("x", 0), write("x", 2)], session_id=1)
        history = History.from_transactions([[t1], [t2]], initial_keys=["x"])
        columns = ColumnarHistory.from_history(history)
        if mutation == "key-id-too-large":
            columns.op_keys[1] = len(columns.key_names)
        elif mutation == "key-id-negative":
            columns.op_keys[1] = -1
        elif mutation == "offsets-not-sorted":
            columns.op_offsets[1], columns.op_offsets[2] = columns.op_offsets[2], columns.op_offsets[1]
        elif mutation == "offsets-past-the-end":
            columns.op_offsets[-1] += 1
        elif mutation == "status-unknown":
            columns.statuses[1] = 7
        elif mutation == "kind-unknown":
            columns.op_kinds[1] = 2
        else:
            columns.op_values.pop()
        segment = tmp_path / "hostile.seg"
        columns.save(segment)

        log = tmp_path / "hostile.epochs"
        with EpochLogWriter(log, epoch_transactions=8) as writer:
            for txn in history.transactions():
                writer.append(txn)
        (entry,) = EpochLog.open(log).epochs
        columns.save(log / entry.name)
        entry = replace(
            entry, crc32=file_crc32(log / entry.name), size_bytes=(log / entry.name).stat().st_size
        )
        (log / MANIFEST_NAME).write_bytes(_MANIFEST_HEADER + _encode_record(entry))

        with pytest.raises(ValueError, match="malformed segment"):
            load_history_segment(segment)
        for argv in (
            ["check", str(segment)],
            ["check", "--stream", str(segment)],
            ["check", str(log)],
            ["watch", "--once", str(log)],
        ):
            assert main(argv) == 2, argv
            out = capsys.readouterr().out
            assert out.startswith("error: ") and "malformed segment" in out, (argv, out)
            assert "SATISFIED" not in out and "VIOLATED" not in out, (argv, out)

    def test_is_segment_path(self):
        assert is_segment_path("history.seg")
        assert is_segment_path("history.SEG")
        assert is_segment_path("history.seg.gz")
        assert not is_segment_path("history.jsonl")
        assert not is_segment_path("history.json")

    def test_columnar_history_is_a_live_hook(self, tmp_path):
        workload = MTWorkloadGenerator(
            num_sessions=3, txns_per_session=10, num_objects=6, seed=8
        ).generate()
        path = tmp_path / "live.seg"
        live = ColumnarHistory()
        live.seed_initial(workload.keys)
        run = run_workload(
            Database("si", keys=workload.keys), workload, seed=9, on_transaction=live
        )
        live.save(path)
        cols = load_history_segment(path)
        assert cols.has_initial
        assert cols.num_transactions == run.stats.committed + run.stats.aborted + 1
        verdict = MTChecker().verify(cols, IsolationLevel.SNAPSHOT_ISOLATION)
        assert verdict.satisfied


# ----------------------------------------------------------------------
# JSONL <-> columnar interchange
# ----------------------------------------------------------------------
class TestJsonlInterchange:
    @pytest.mark.parametrize("fault", FAULTS)
    def test_jsonl_and_columnar_record_identical_streams(self, tmp_path, fault):
        history = generated_history(11, fault)
        jsonl = tmp_path / "h.jsonl"
        seg = tmp_path / "h.seg"
        write_history_jsonl(history, jsonl)
        write_history_segment(history, seg)
        via_jsonl = [txn_fingerprint(t) for t in iter_history_jsonl(jsonl)]
        via_seg = [
            txn_fingerprint(t)
            for t in load_history_segment(seg).iter_transactions()
        ]
        assert via_jsonl == via_seg

    def test_columnar_from_jsonl_stream_is_lossless(self, tmp_path):
        history = generated_history(12, "staleread")
        jsonl = tmp_path / "h.jsonl.gz"
        write_history_jsonl(history, jsonl)
        cols = ColumnarHistory.from_transactions(iter_history_jsonl(jsonl))
        assert [txn_fingerprint(t) for t in cols.iter_transactions()] == [
            txn_fingerprint(t) for t in iter_history_jsonl(jsonl)
        ]


# ----------------------------------------------------------------------
# Randomized equivalence: one verdict through every path
# ----------------------------------------------------------------------
class TestVerdictEquivalence:
    @pytest.mark.parametrize("fault", FAULTS)
    @pytest.mark.parametrize("level", LEVELS, ids=lambda l: l.short_name)
    def test_batch_incremental_and_parallel_agree(self, level, fault):
        rng = random.Random(hash((str(level), fault)) & 0xFFFF)
        for _ in range(3):
            seed = rng.randrange(10_000)
            history = generated_history(seed, fault)
            cols = ColumnarHistory.from_history(history)
            canonical = cols.to_history()

            reference = MTChecker().verify(canonical, level)

            # Batch through the columnar index: exact equality, labeled
            # cycles included.
            columnar = MTChecker().verify(cols, level)
            assert result_fingerprint(columnar) == result_fingerprint(reference)

            # Parallel columnar dispatch, inline and with 4 workers.
            for workers in (1, 4):
                sharded = MTChecker(workers=workers).verify(cols, level)
                assert sharded.satisfied == reference.satisfied
                assert sharded.num_transactions == reference.num_transactions

            # Incremental bulk segment ingestion: verdict and anomaly
            # existence match the batch checker (counterexample shape may
            # differ, never existence).
            incremental = IncrementalChecker(level)
            incremental.ingest_segment(cols)
            assert incremental.result().satisfied == reference.satisfied

    def test_segment_split_points_do_not_change_the_verdict(self):
        rng = random.Random(13)
        for fault in (None, "lostupdate"):
            history = generated_history(14, fault)
            cols = ColumnarHistory.from_history(history)
            reference = MTChecker().verify(cols, IsolationLevel.SNAPSHOT_ISOLATION)
            n = cols.num_transactions
            cut_a = rng.randrange(1, n)
            cut_b = rng.randrange(cut_a, n)
            checker = IncrementalChecker(IsolationLevel.SNAPSHOT_ISOLATION)
            checker.ingest_segment(cols.slice_rows(range(0, cut_a)))
            checker.ingest_segment(cols.slice_rows(range(cut_a, cut_b)))
            checker.ingest_segment(cols.slice_rows(range(cut_b, n)))
            assert checker.result().satisfied == reference.satisfied

    def test_segment_ingestion_equals_per_transaction_ingestion(self):
        for fault in (None, "writeskew"):
            cols = ColumnarHistory.from_history(generated_history(15, fault))
            bulk = IncrementalChecker(IsolationLevel.SERIALIZABILITY)
            bulk.ingest_segment(cols)
            one_by_one = IncrementalChecker(IsolationLevel.SERIALIZABILITY)
            for txn in cols.iter_transactions():
                one_by_one.ingest(txn)
            assert [v.kind for v in bulk.result().violations] == [
                v.kind for v in one_by_one.result().violations
            ]
            assert bulk.num_ingested == one_by_one.num_ingested

    def test_windowed_segment_ingestion_matches_windowed_object_ingestion(self):
        cols = ColumnarHistory.from_history(generated_history(16, sessions=6, txns=40))
        bulk = IncrementalChecker(IsolationLevel.SERIALIZABILITY, window=50)
        bulk.ingest_segment(cols)
        one_by_one = IncrementalChecker(IsolationLevel.SERIALIZABILITY, window=50)
        for txn in cols.iter_transactions():
            one_by_one.ingest(txn)
        assert bulk.result().satisfied == one_by_one.result().satisfied
        assert bulk.evicted_count == one_by_one.evicted_count
        assert bulk.stale_reads == one_by_one.stale_reads


# ----------------------------------------------------------------------
# The columnar index
# ----------------------------------------------------------------------
class TestColumnarIndex:
    def test_from_columns_materialises_no_transactions_on_accept_path(self):
        history = generated_history(22)  # healthy SI history
        cols = ColumnarHistory.from_history(history)
        index = HistoryIndex.from_columns(cols)
        for level, check in (
            (IsolationLevel.SERIALIZABILITY, check_ser),
            (IsolationLevel.SNAPSHOT_ISOLATION, check_si),
        ):
            result = check(None, index=index)
            assert result.satisfied, level
        # The object layer was never touched: no Transaction exists.
        assert index._transactions is None
        assert index._txn_cache == {}
        assert index._history is None

    def test_lazy_object_layer_round_trips(self):
        history = generated_history(23, "lostupdate")
        cols = ColumnarHistory.from_history(history)
        index = HistoryIndex.from_columns(cols)
        # Object accessors materialise on demand and agree with the columns.
        last = index.transaction(index.committed_txn_ids[-1])
        assert isinstance(last, Transaction) and last.committed
        for key, value in last.final_writes().items():
            assert index.final_writer(key, value) is last
        assert index.history.num_transactions() == len(cols.to_history())


# ----------------------------------------------------------------------
# Parallel dispatch: columns on the wire, never Transactions
# ----------------------------------------------------------------------
class TestColumnarDispatch:
    def _disjoint_history(self):
        from repro.bench import make_disjoint_history

        return make_disjoint_history(
            num_groups=5,
            sessions_per_group=2,
            txns_per_session=15,
            keys_per_group=4,
            timestamps=True,
        )

    def test_payloads_contain_no_pickled_transactions(self):
        history = self._disjoint_history()
        shards = partition_columns(ColumnarHistory.from_history(history))
        assert len(shards) == 5
        for shard in shards:
            assert shard.columns is not None
            blob = pickle.dumps(
                make_payload(shard, IsolationLevel.STRICT_SERIALIZABILITY, False)
            )
            # A pickled Transaction/Operation would name its module.
            assert b"repro.core.model" not in blob
            assert b"Transaction" not in blob
            assert b"Operation" not in blob

    @pytest.mark.parametrize("level", LEVELS, ids=lambda l: l.short_name)
    def test_check_parallel_columns_only(self, level):
        history = self._disjoint_history()
        cols = ColumnarHistory.from_history(history)
        serial = MTChecker().verify(history, level)
        sharded = check_parallel(cols, level, workers=2)
        assert sharded.satisfied == serial.satisfied
        assert sharded.num_transactions == serial.num_transactions

    def test_check_parallel_requires_some_input(self):
        with pytest.raises(ValueError):
            check_parallel(None, IsolationLevel.SERIALIZABILITY)


class TestMemoryMappedSegments:
    """``ColumnarHistory.load(path, mmap=True)``: zero-copy column views."""

    def test_mmap_load_equals_copying_load(self, tmp_path):
        history = generated_history(31, "lostupdate")
        path = tmp_path / "history.seg"
        write_history_segment(history, path)
        mapped = ColumnarHistory.load(path, mmap=True)
        copied = ColumnarHistory.load(path)
        assert mapped.to_wire() == copied.to_wire()
        assert [txn_fingerprint(t) for t in mapped.iter_transactions()] == [
            txn_fingerprint(t) for t in copied.iter_transactions()
        ]
        # The columns really are views into the mapping, not arrays.
        assert isinstance(mapped.txn_ids, memoryview)

    @pytest.mark.parametrize("level", LEVELS, ids=lambda l: l.short_name)
    def test_mmap_verdicts_match_object_pipeline(self, tmp_path, level):
        for fault in (None, "lostupdate"):
            history = generated_history(32, fault)
            path = tmp_path / f"{fault}.seg"
            write_history_segment(history, path)
            mapped = ColumnarHistory.load(path, mmap=True)
            assert result_fingerprint(
                MTChecker().verify(mapped, level)
            ) == result_fingerprint(MTChecker().verify(history, level))

    def test_gzip_falls_back_to_copying_loader(self, tmp_path):
        history = generated_history(33)
        path = tmp_path / "history.seg.gz"
        write_history_segment(history, path)
        loaded = ColumnarHistory.load(path, mmap=True)  # silently copies
        assert not isinstance(loaded.txn_ids, memoryview)
        assert loaded.num_transactions == history.num_transactions() + 1

    def test_truncated_segment_is_rejected(self, tmp_path):
        history = generated_history(34)
        path = tmp_path / "history.seg"
        write_history_segment(history, path)
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(ValueError):
            ColumnarHistory.load(path, mmap=True)

    def test_mapped_segments_are_immutable_but_sliceable(self, tmp_path):
        history = generated_history(35)
        path = tmp_path / "history.seg"
        write_history_segment(history, path)
        mapped = ColumnarHistory.load(path, mmap=True)
        with pytest.raises(ValueError, match="memory-mapped"):
            mapped.append(Transaction(99_999, [read("k0", None)]))
        rows = list(range(min(5, mapped.num_transactions)))
        sliced = mapped.slice_rows(rows, restrict_initial_keys=mapped.key_names)
        sliced.append(Transaction(99_999, [read("k0", None)]))  # mutable copy
        assert sliced.num_transactions == len(rows) + 1

    @pytest.mark.parametrize("level", LEVELS, ids=lambda l: l.short_name)
    def test_segref_payloads_match_wire_payloads(self, tmp_path, level):
        from repro.bench import make_disjoint_history

        history = make_disjoint_history(
            num_groups=4,
            sessions_per_group=2,
            txns_per_session=12,
            keys_per_group=4,
            timestamps=True,
        )
        path = tmp_path / "history.seg"
        write_history_segment(history, path)
        columns = ColumnarHistory.load(path, mmap=True)
        serial = MTChecker().verify(history, level)
        via_wire = check_parallel(columns, level, workers=2)
        via_segref = check_parallel(columns, level, workers=2, source_path=path)
        assert result_fingerprint(via_segref) == result_fingerprint(via_wire)
        assert via_segref.satisfied == serial.satisfied

    def test_rewritten_segment_is_mapped_again(self, tmp_path):
        # Shard tasks share one map of the file per process, keyed by the
        # file's (size, mtime_ns): rewriting the file is a miss, not stale rows.
        from repro import obs
        from repro.bench import make_disjoint_history

        path = tmp_path / "history.seg"
        level = IsolationLevel.STRICT_SERIALIZABILITY
        for groups in (3, 2):
            history = make_disjoint_history(
                num_groups=groups, sessions_per_group=2, txns_per_session=6, timestamps=True
            )
            write_history_segment(history, path)
            columns = ColumnarHistory.load(path, mmap=True)
            with obs.scoped() as reg:
                sharded = check_parallel(columns, level, source_path=path)
            lookups = {
                outcome: reg.value("repro_executor_segment_cache_total", outcome=outcome)
                for outcome in ("miss", "hit")
            }
            assert lookups == {"miss": 1, "hit": groups - 1}
            assert result_fingerprint(sharded) == result_fingerprint(
                MTChecker().verify(history, level)
            )

    def test_segref_payload_carries_rows_not_bytes(self, tmp_path):
        from repro.bench import make_disjoint_history

        history = make_disjoint_history(
            num_groups=5,
            sessions_per_group=2,
            txns_per_session=15,
            keys_per_group=4,
            timestamps=True,
        )
        path = tmp_path / "history.seg"
        write_history_segment(history, path)
        columns = ColumnarHistory.load(path, mmap=True)
        index = HistoryIndex.from_columns(columns)
        shards = partition_columns(columns, index=index, materialize=False)
        assert len(shards) > 1
        level = IsolationLevel.SERIALIZABILITY
        for shard in shards:
            assert shard.columns is None and shard.rows
            payload = make_payload(shard, level, False, source_path=path)
            assert payload[1][0] == "segref"
            blob = pickle.dumps(payload)
            assert b"repro.core.model" not in blob
            # The reference is tiny compared to the sliced column bytes.
            wire = make_payload(
                partition_columns(columns, index=index)[shard.index], level, False
            )
            assert len(blob) < len(pickle.dumps(wire))
