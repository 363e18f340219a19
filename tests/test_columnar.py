"""Tests for the columnar history substrate (``repro.history.columnar``).

The central invariants of the columnar data plane:

* **Lossless interchange** — JSONL ↔ columnar conversion preserves every
  transaction field exactly, in order, including aborted/unknown statuses,
  ``None`` values, and timestamps.
* **No object pickling** — parallel dispatch ships raw column buffers;
  no ``Transaction``/``Operation`` ever crosses the process boundary.

That every route (columns, objects, ``workers=N``, segment and per-row
ingestion, windowed) reaches one verdict is the route driver's job,
``tests/test_routes.py``.
"""

import gzip
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.checker import MTChecker
from repro.core.checkers import check_ser, check_si
from repro.core.index import HistoryIndex
from repro.core.model import History, Transaction, TransactionStatus, read, write
from repro.core.result import IsolationLevel
from repro.db import Database, FaultPlan
from repro.history import (
    ColumnarHistory,
    is_segment_path,
    load_columns,
    load_history_segment,
    write_history,
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

    def test_append_row_none_timestamps_and_value_overflow(self):
        cols = ColumnarHistory()
        cols.append_row(4, 1, 0, None, None, [0, 1], ["x", "y"], [3, 5])
        assert cols.row_at(0)[3:5] == (None, None)
        assert str(cols.transaction_at(0)) == "T4[R(x,3), W(y,5)]"
        assert list(cols.op_has_value) == [1, 1]
        with pytest.raises(ValueError, match="T5 does not fit the columnar segment"):
            cols.append_row(5, 1, 0, 1.0, 2.0, [1], ["x"], [2**63])
        with pytest.raises(ValueError, match="T6 does not fit the columnar segment"):
            ColumnarHistory().append_row(6, 1, 0, None, None, [0], ["x"], [-(2**63) - 1])
        cols.append_row(7, 1, 0, None, None, [0, 1], ["y", "x"], [None, 2])
        assert str(cols.transaction_at(1)) == "T7[R(y,None), W(x,2)]"
        assert list(cols.op_has_value) == [1, 1, 0, 1]
        assert cols.row_at(1) == (7, 1, 0, None, None, [0, 1], ["y", "x"], [None, 2])

    def test_a_refused_append_leaves_the_columns_as_they_were(self):
        cols = ColumnarHistory()
        cols.append(Transaction(1, [read("x", 0), write("x", 1)]))
        before = (cols.to_wire(), dict(cols.key_ids))
        unfit = r"transaction T\d does not fit the columnar segment"
        for append, refusal in (
            (lambda: cols.append(Transaction(2, [read("y", 0), write("z", "a")])), unfit),
            (lambda: cols.append_row(3, 0, 0, "soon", None, [0], ["y"], [0]), unfit),
            (lambda: cols.append_row(4, 0, 0, None, None, [0, 1], ["y", "x"], [1, 2.5]), unfit),
            (lambda: cols.append_row(5, 0, 0, None, None, [1], ["y"], [2**63]), unfit),
            (
                lambda: cols.append_row(4, 0, 0, None, None, [0, 1], ["y"], [1, 2]),
                "transaction T4 has 2 op kinds, 1 keys and 2 values",
            ),
        ):
            with pytest.raises(ValueError, match=refusal):
                append()
            assert (cols.to_wire(), cols.key_ids) == before
        cols.append(Transaction(6, [read("y", 1)]))
        assert cols.key_names == ["x", "y"] and str(cols.transaction_at(1)) == "T6[R(y,1)]"

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

    def test_join_of_cut_segments_is_the_whole(self):
        whole = ColumnarHistory.from_history(generated_history(5, "lostupdate"))
        cuts = [0, 1, 2, 17, 40, len(whole)]
        pieces = []
        for lo, hi in zip(cuts, cuts[1:]):
            piece = ColumnarHistory()
            piece.extend(whole, lo, hi)
            pieces.append(piece)
        # Each piece interns only the keys its rows name, in their order...
        assert pieces[1].key_names == list(dict.fromkeys(op.key for op in whole.transaction_at(1).operations))
        # ...so the join is the segment one writer records over all the rows.
        assert ColumnarHistory.join(pieces).to_wire() == whole.to_wire()
        assert ColumnarHistory.join([whole]) is whole
        assert ColumnarHistory.join([]).num_transactions == 0

    def test_a_segment_holds_string_keys_only(self, tmp_path):
        history = History.from_transactions([[Transaction(1, [read(5, 0), write("x", 1)])]])
        path = tmp_path / "h.seg"
        with pytest.raises(ValueError, match="cannot write key 5: segment keys are strings"):
            ColumnarHistory.from_history(history).save(path)
        assert not path.exists()

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
        with pytest.raises(ValueError, match=r"trunc\.seg: truncated segment column"):
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

    @pytest.mark.parametrize("name", ["two.seg", "two.seg.gz"])
    def test_a_second_segment_behind_the_first_is_refused(self, tmp_path, name):
        # ``cat a.seg b.seg`` (or two gzip members): the first segment's
        # columns read whole, so only the byte after its last column tells.
        first, second = tmp_path / f"a-{name}", tmp_path / f"b-{name}"
        write_history_segment(generated_history(9), first)
        write_history_segment(generated_history(10, "lostupdate"), second)
        two = tmp_path / name
        two.write_bytes(first.read_bytes() + second.read_bytes())
        with pytest.raises(ValueError, match=rf"{name}: bytes past the last segment column"):
            load_history_segment(two)

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
            Database("si", keys=workload.keys), workload, seed=9, on_transaction=live.append
        )
        live.save(path)
        cols = load_history_segment(path)
        assert cols.has_initial
        assert cols.num_transactions == run.stats.committed + run.stats.aborted + 1
        verdict = MTChecker().verify(cols, IsolationLevel.SNAPSHOT_ISOLATION)
        assert verdict.satisfied

    def test_loaded_segment_saves_byte_identically(self, tmp_path):
        # A loaded segment owns its columns: it saves, then appends, like a built one.
        path = tmp_path / "history.seg"
        write_history_segment(generated_history(35), path)
        loaded = load_columns(path)
        loaded.save(tmp_path / "again.seg")
        assert (tmp_path / "again.seg").read_bytes() == path.read_bytes()
        loaded.append(Transaction(99_999, [read("k0", None)]))
        assert loaded.transaction_at(-1).txn_id == 99_999

    def test_a_file_truncated_after_the_load_cannot_reach_the_check(self, tmp_path):
        # In a fresh process: the columns are read before the file is cut to
        # 0 bytes, so the check that follows still prints its verdict.
        history = generated_history(36, "lostupdate")
        path = tmp_path / "history.seg"
        write_history_segment(history, path)
        script = (
            "import os, sys\n"
            "from repro import IsolationLevel, MTChecker\n"
            "from repro.history import load_columns\n"
            "columns = load_columns(sys.argv[1])\n"
            "os.truncate(sys.argv[1], 0)\n"
            "print(MTChecker().verify(columns, IsolationLevel.SERIALIZABILITY).format())\n"
        )
        root = Path(__file__).resolve().parent.parent
        done = subprocess.run(
            [sys.executable, "-c", script, str(path)],
            env={**os.environ, "PYTHONPATH": str(root / "src")},
            capture_output=True, text=True, timeout=120,
        )
        verdict = MTChecker().verify(history, IsolationLevel.SERIALIZABILITY).format()
        assert (done.returncode, done.stdout) == (0, verdict + "\n"), done.stderr
        assert path.stat().st_size == 0


# ----------------------------------------------------------------------
# JSONL <-> columnar interchange
# ----------------------------------------------------------------------
class TestJsonlInterchange:
    @pytest.mark.parametrize("fault", FAULTS)
    def test_jsonl_and_columnar_record_identical_streams(self, tmp_path, fault):
        history = generated_history(11, fault)
        jsonl = tmp_path / "h.jsonl"
        seg = tmp_path / "h.seg"
        write_history(history, jsonl)
        write_history_segment(history, seg)
        via_jsonl = [txn_fingerprint(t) for t in load_columns(jsonl).iter_transactions()]
        via_seg = [
            txn_fingerprint(t)
            for t in load_history_segment(seg).iter_transactions()
        ]
        assert via_jsonl == via_seg

    def test_columnar_from_jsonl_stream_is_lossless(self, tmp_path):
        history = generated_history(12, "staleread")
        jsonl = tmp_path / "h.jsonl.gz"
        write_history(history, jsonl)
        assert [txn_fingerprint(t) for t in load_columns(jsonl).iter_transactions()] == [
            txn_fingerprint(t) for t in ColumnarHistory.from_history(history).iter_transactions()
        ]


# ----------------------------------------------------------------------
# The columnar index
# ----------------------------------------------------------------------
class TestColumnarIndex:
    def test_from_columns_materialises_no_transactions_on_accept_path(self, monkeypatch):
        history = generated_history(22)  # healthy SI history
        cols = ColumnarHistory.from_history(history)
        rows_read = []
        transaction_at = ColumnarHistory.transaction_at
        monkeypatch.setattr(
            ColumnarHistory, "transaction_at", lambda self, row: rows_read.append(row) or transaction_at(self, row)
        )
        index = HistoryIndex.from_columns(cols)
        for level, check in (
            (IsolationLevel.SERIALIZABILITY, check_ser),
            (IsolationLevel.SNAPSHOT_ISOLATION, check_si),
        ):
            result = check(None, index=index)
            assert result.satisfied, level
        # The object layer was never touched: no Transaction was read.
        assert rows_read == []

    def test_lazy_object_layer_round_trips(self):
        history = generated_history(23, "lostupdate")
        cols = ColumnarHistory.from_history(history)
        index = HistoryIndex.from_columns(cols)
        # Object accessors read rows on demand and agree with the columns.
        pos = index.txn_ids.index(index.committed_txn_ids[-1])
        last = cols.transaction_at(index.column_row(pos))
        assert isinstance(last, Transaction) and last.committed
        for key, value in last.final_writes().items():
            writer = index.final_writer(key, value)
            assert writer.txn_id == last.txn_id and str(writer) == str(last)
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
            blob = pickle.dumps(make_payload(shard, IsolationLevel.STRICT_SERIALIZABILITY))
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
