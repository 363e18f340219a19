"""Tests for history serialization (JSON round-trips)."""

import json

import pytest

from repro.core.checkers import check_ser, check_si
from repro.core.lwt import LWTHistory, LWTKind, LWTOperation, check_linearizability
from repro.core.model import History, Transaction, TransactionStatus, read, write
from repro.db import Database
from repro.history import (
    HistoryStreamWriter,
    history_from_dict,
    history_to_dict,
    is_stream_path,
    iter_history_jsonl,
    load_history,
    load_history_jsonl,
    load_lwt_history,
    lwt_history_from_dict,
    lwt_history_to_dict,
    save_history,
    save_lwt_history,
    write_history_jsonl,
)
from repro.workloads import LWTHistoryGenerator, MTWorkloadGenerator, run_workload


def sample_history():
    t1 = Transaction(1, [read("x", 0), write("x", 1)], start_ts=0.0, finish_ts=1.0)
    t2 = Transaction(
        2, [read("x", 1)], status=TransactionStatus.ABORTED, start_ts=2.0, finish_ts=3.0
    )
    return History.from_transactions([[t1], [t2]], initial_keys=["x"])


class TestHistoryRoundTrip:
    def test_dict_round_trip_preserves_structure(self):
        history = sample_history()
        restored = history_from_dict(history_to_dict(history))
        assert len(restored.sessions) == len(history.sessions)
        assert restored.initial_transaction is not None
        original = history.transactions(include_initial=False)
        recovered = restored.transactions(include_initial=False)
        assert [t.txn_id for t in original] == [t.txn_id for t in recovered]
        assert [t.status for t in original] == [t.status for t in recovered]
        assert [len(t) for t in original] == [len(t) for t in recovered]

    def test_operations_preserved_exactly(self):
        restored = history_from_dict(history_to_dict(sample_history()))
        txn = restored.transaction_by_id(1)
        assert [str(op) for op in txn.operations] == ["R(x,0)", "W(x,1)"]
        assert txn.start_ts == 0.0 and txn.finish_ts == 1.0

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "history.json"
        save_history(sample_history(), path)
        restored = load_history(path)
        assert len(restored) == 2
        payload = json.loads(path.read_text())
        assert payload["format"] == "repro-history-v1"

    def test_checker_verdicts_survive_round_trip(self):
        generator = MTWorkloadGenerator(num_sessions=3, txns_per_session=20, num_objects=8, seed=4)
        workload = generator.generate()
        run = run_workload(Database("si", keys=workload.keys), workload, seed=5)
        restored = history_from_dict(history_to_dict(run.history))
        assert check_si(restored).satisfied == check_si(run.history).satisfied
        assert check_ser(restored).satisfied == check_ser(run.history).satisfied

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            history_from_dict({"format": "something-else"})

    def test_history_without_initial_transaction(self):
        t1 = Transaction(1, [read("x", 0)])
        history = History.from_transactions([[t1]])
        restored = history_from_dict(history_to_dict(history))
        assert restored.initial_transaction is None


class TestLWTHistoryRoundTrip:
    def sample(self):
        return LWTHistory(
            [
                LWTOperation(1, LWTKind.INSERT, "x", written=0, start_ts=0.0, finish_ts=0.5),
                LWTOperation(2, LWTKind.READ_WRITE, "x", expected=0, written=1, start_ts=1.0, finish_ts=2.0, session_id=3),
            ]
        )

    def test_dict_round_trip(self):
        history = self.sample()
        restored = lwt_history_from_dict(lwt_history_to_dict(history))
        assert len(restored) == 2
        assert restored.operations[0].kind is LWTKind.INSERT
        assert restored.operations[1].expected == 0
        assert restored.operations[1].session_id == 3

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "lwt.json"
        save_lwt_history(self.sample(), path)
        restored = load_lwt_history(path)
        assert check_linearizability(restored).satisfied

    def test_generated_history_round_trip_preserves_verdict(self):
        generator = LWTHistoryGenerator(num_sessions=4, txns_per_session=20, num_objects=2, seed=6)
        for valid in (True, False):
            history = generator.generate(valid=valid)
            restored = lwt_history_from_dict(lwt_history_to_dict(history))
            assert (
                check_linearizability(restored).satisfied
                == check_linearizability(history).satisfied
                == valid
            )

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            lwt_history_from_dict({"format": "bogus"})


class TestStreamingJsonl:
    def test_round_trip_preserves_verdicts(self, tmp_path):
        workload = MTWorkloadGenerator(
            num_sessions=4, txns_per_session=15, num_objects=8, seed=3
        ).generate()
        history = run_workload(Database("si", keys=workload.keys), workload, seed=4).history
        path = tmp_path / "history.jsonl"
        write_history_jsonl(history, path)
        restored = load_history_jsonl(path)
        assert check_ser(restored).satisfied == check_ser(history).satisfied
        assert check_si(restored).satisfied == check_si(history).satisfied
        assert len(restored) == len(history)

    def test_iteration_is_lazy_and_initial_first(self, tmp_path):
        path = tmp_path / "history.jsonl"
        write_history_jsonl(sample_history(), path)
        stream = iter_history_jsonl(path)
        first = next(stream)
        assert first.is_initial
        rest = list(stream)
        assert {txn.txn_id for txn in rest} == {1, 2}
        aborted = next(txn for txn in rest if txn.txn_id == 2)
        assert aborted.status is TransactionStatus.ABORTED
        assert aborted.start_ts == 2.0

    def test_stream_writer_appends_incrementally(self, tmp_path):
        path = tmp_path / "live.jsonl"
        with HistoryStreamWriter(path) as writer:
            writer.write(Transaction(1, [read("x", 0), write("x", 1)]))
            # A concurrent reader already sees the flushed prefix.
            assert len(list(iter_history_jsonl(path))) == 1
            writer.write(Transaction(2, [read("x", 1)], session_id=1))
        assert len(list(iter_history_jsonl(path))) == 2

    def test_header_is_first_line(self, tmp_path):
        path = tmp_path / "history.jsonl"
        write_history_jsonl(sample_history(), path)
        header = json.loads(path.read_text().splitlines()[0])
        assert header["format"] == "repro-history-stream-v1"
        assert header["initial_transaction"]["txn_id"] == -1

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bogus.jsonl"
        path.write_text('{"format": "bogus"}\n')
        with pytest.raises(ValueError):
            list(iter_history_jsonl(path))

    def test_is_stream_path(self):
        assert is_stream_path("history.jsonl")
        assert is_stream_path("history.NDJSON")
        assert not is_stream_path("history.json")
        assert is_stream_path("history.jsonl.gz")
        assert is_stream_path("history.ndjson.GZ")
        assert not is_stream_path("history.json.gz")
        assert not is_stream_path("history.seg.gz")


class TestGzipStreams:
    def test_gzip_round_trip_by_suffix(self, tmp_path):
        import gzip

        path = tmp_path / "history.jsonl.gz"
        write_history_jsonl(sample_history(), path)
        assert path.read_bytes()[:2] == b"\x1f\x8b"
        header = json.loads(gzip.open(path, "rt").readline())
        assert header["format"] == "repro-history-stream-v1"
        restored = load_history_jsonl(path)
        assert len(restored) == 2
        assert restored.transaction_by_id(1).start_ts == 0.0

    def test_gzip_detected_by_content_not_suffix(self, tmp_path):
        import shutil

        source = tmp_path / "history.jsonl.gz"
        write_history_jsonl(sample_history(), source)
        renamed = tmp_path / "renamed.jsonl"  # lies about its compression
        shutil.copy(source, renamed)
        assert len(list(iter_history_jsonl(renamed))) == 3  # ⊥T + 2


class TestFlushEveryAndTornLines:
    def test_flush_every_batches_flushes(self, tmp_path):
        path = tmp_path / "batched.jsonl"
        writer = HistoryStreamWriter(path, flush_every=100)
        writer.write(Transaction(1, [read("x", 0), write("x", 1)]))
        # Header flushed eagerly; the buffered transaction is not yet visible.
        assert len(list(iter_history_jsonl(path))) == 0
        writer.flush()
        assert len(list(iter_history_jsonl(path))) == 1
        writer.write(Transaction(2, [read("x", 1)], session_id=1))
        writer.close()  # close flushes the tail
        assert len(list(iter_history_jsonl(path))) == 2

    def test_flush_every_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            HistoryStreamWriter(tmp_path / "x.jsonl", flush_every=0)

    def test_torn_final_line_is_skipped_with_a_warning(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        write_history_jsonl(sample_history(), path)
        torn = tmp_path / "cut.jsonl"
        torn.write_bytes(path.read_bytes()[:-15])  # cut inside the last line
        with pytest.warns(UserWarning, match="torn final line"):
            txns = list(iter_history_jsonl(torn))  # must not raise
        assert [t.txn_id for t in txns] == [-1, 1]

    def test_live_gzip_stream_reads_cleanly_to_the_flushed_prefix(self, tmp_path):
        # A gzip writer that has flushed but not closed leaves a compressed
        # member without its end-of-stream trailer; readers must surface the
        # complete prefix instead of dying with EOFError.
        path = tmp_path / "live.jsonl.gz"
        writer = HistoryStreamWriter(path, initial_keys=["x"])
        writer.write(Transaction(1, [read("x", 0), write("x", 1)]))
        writer.flush()
        try:
            with pytest.warns(UserWarning, match="truncated mid-member"):
                txns = list(iter_history_jsonl(path))  # must not raise
            assert [t.txn_id for t in txns] == [-1, 1]
        finally:
            writer.close()
        assert [t.txn_id for t in iter_history_jsonl(path)] == [-1, 1]

    def test_truncated_gzip_header_raises_value_error(self, tmp_path):
        path = tmp_path / "h.jsonl.gz"
        write_history_jsonl(sample_history(), path)
        cut = tmp_path / "cut.jsonl.gz"
        cut.write_bytes(path.read_bytes()[:12])  # gzip magic, no usable data
        with pytest.raises(ValueError):
            list(iter_history_jsonl(cut))

    def test_complete_final_line_without_newline_still_parses(self, tmp_path):
        path = tmp_path / "no-newline.jsonl"
        write_history_jsonl(sample_history(), path)
        trimmed = tmp_path / "trimmed.jsonl"
        trimmed.write_bytes(path.read_bytes().rstrip(b"\n"))
        assert [t.txn_id for t in iter_history_jsonl(trimmed)] == [-1, 1, 2]


class TestOneDoor:
    """``repro.history.files``: classification, following, publishing, framing."""

    def test_one_classification_rule(self, tmp_path):
        from repro.history import history_format

        (tmp_path / "dir.seg").mkdir()
        kinds = {
            "h.json": "document", "h.txt": "document", "h.jsonl": "stream",
            "h.ndjson.gz": "stream", "h.SEG": "segment", "h.seg.gz": "segment",
            "absent.epochs": "log", "dir.seg": "log",
        }  # fmt: skip
        assert {name: history_format(tmp_path / name) for name in kinds} == kinds
        assert history_format(tmp_path) == "log"  # any existing directory

    @pytest.mark.parametrize("name", ["h.json", "h.jsonl", "h.seg", "h.seg.gz", "h.epochs"])
    def test_load_columns_is_the_rows_of_every_container(self, name, tmp_path):
        from repro.history import ColumnarHistory, load_columns, write_history

        path = tmp_path / name
        write_history(sample_history(), path)
        columns = load_columns(path)
        assert isinstance(columns, ColumnarHistory)
        assert columns.to_wire() == ColumnarHistory.from_history(sample_history()).to_wire()

    def test_follower_delivers_records_as_their_newlines_arrive(self, tmp_path):
        from repro.history import StreamFollower

        path = tmp_path / "live.jsonl"
        writer = HistoryStreamWriter(path, initial_keys=["x"])
        with StreamFollower(path) as follower:
            assert [t.txn_id for t in follower.poll().iter_transactions()] == [-1]
            assert follower.poll() is None
            writer.write(Transaction(1, [read("x", 0), write("x", 1)]))
            line = json.dumps({"txn_id": 2, "session_id": 1, "operations": []})
            with open(path, "a") as raw:
                raw.write(line[:9])  # a producer caught mid-append
                raw.flush()
                assert list(follower.poll().txn_ids) == [1]
                assert follower.poll() is None and follower.pending_bytes == 9
                raw.write(line[9:])  # complete, merely lacking its newline
                raw.flush()
                assert list(follower.poll().txn_ids) == [2]
                raw.write("\n\n")
            assert follower.poll() is None and follower.pending_bytes == 0
            assert (follower.position, follower.lag, follower.done) == (3, 0, False)
            with open(path, "a") as raw:
                raw.write(line.replace("2", "3", 1) + "\n{not json}\n")
            assert list(follower.poll().txn_ids) == [3]  # good rows first,
            with pytest.raises(json.JSONDecodeError):  # then the malformed line
                follower.poll()
            follower.refresh()
            path.unlink()
            with pytest.raises(ValueError, match="deleted while being followed"):
                follower.refresh()
        writer.close()

    @pytest.mark.parametrize("name", ["h.seg", "h.seg.gz", "h.json"])
    def test_a_failed_save_leaves_the_previous_file(self, name, tmp_path, monkeypatch):
        from repro.history import files, read_segments, write_history

        path = tmp_path / name
        write_history(sample_history(), path)
        before = path.read_bytes()
        bigger = History.from_transactions(
            [[Transaction(n, [write("x", n)]) for n in range(1, 50)]], initial_keys=["x"]
        )

        def no_space(fd):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(files.os, "fsync", no_space)  # written, never published
        with pytest.raises(OSError, match="No space left"):
            write_history(bigger, path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert [f.name for f in tmp_path.iterdir()] == [name]  # staging file removed
        (segment,) = read_segments(path)
        assert segment.num_transactions == 3

    def test_frames_are_the_bytes_earlier_builds_wrote(self, tmp_path):
        """The segment, assembled here by the recipe every earlier build used,
        and the checkpoint, by the ``repro-epoch-checkpoint-v2`` recipe, are
        byte for byte what this build writes — so each loads the other's
        files."""
        import sys
        import zlib
        from array import array

        from repro.history import ColumnarHistory, EpochLog
        from repro.history.columnar import _COLUMN_SLOTS, SEGMENT_FORMAT, SEGMENT_MAGIC
        from repro.history.epochlog import CHECKPOINT_FILE_FORMAT, CHECKPOINT_MAGIC

        def dumps(header):
            return json.dumps(header, separators=(",", ":")).encode()

        columns = ColumnarHistory.from_history(sample_history())
        raw = [getattr(columns, slot) for slot in _COLUMN_SLOTS]
        manifest = [[s, c.typecode, c.itemsize * len(c)] for s, c in zip(_COLUMN_SLOTS, raw)]
        header = {"format": SEGMENT_FORMAT, "byteorder": sys.byteorder, "transactions": 3,
                  "operations": columns.num_operations, "key_names": ["x"], "columns": manifest}
        segment = SEGMENT_MAGIC + dumps(header) + b"\n" + b"".join(c.tobytes() for c in raw)
        columns.save(tmp_path / "new.seg")
        assert (tmp_path / "new.seg").read_bytes() == segment
        (tmp_path / "old.seg").write_bytes(segment)
        assert ColumnarHistory.load(tmp_path / "old.seg").to_wire() == columns.to_wire()

        # A JSON line (the non-array leaves, each column's path, typecode and
        # length), then the columns grouped by item size, each group as byte
        # planes; deflated at level 1 and framed with the inflated size.
        log = EpochLog.open(tmp_path)
        ids, stamps, flags = array("q", [1, -1, 300]), array("d", [0.5]), array("b", [2, 0])
        state = {"format": "any", "keys": ["x"], "slots": {"id": ids, "n": 2}, "rt": {"stamp": stamps},
                 "flags": flags}
        line = {"byteorder": sys.byteorder, "doc": {"format": "any", "keys": ["x"], "slots": {"n": 2}, "rt": {}},
                "columns": [["slots.id", "q", 3], ["rt.stamp", "d", 1], ["flags", "b", 2]]}
        eights = ids.tobytes() + stamps.tobytes()
        inflated = dumps(line) + b"\n" + flags.tobytes() + b"".join(eights[j::8] for j in range(8))
        payload = zlib.compress(inflated, 1)
        header = {"format": CHECKPOINT_FILE_FORMAT, "epochs": 4, "transactions": 9,
                  "inflated_bytes": len(inflated), "crc32": zlib.crc32(payload), "payload_bytes": len(payload)}
        checkpoint = CHECKPOINT_MAGIC + dumps(header) + b"\n" + payload
        assert log.save_checkpoint(state, epochs=4, transactions=9).read_bytes() == checkpoint
        (tmp_path / "checkpoint-00005.ckpt").write_bytes(checkpoint)
        assert [(c.epochs, c.state) for c in log.checkpoints()] == [(4, state), (4, state)]
