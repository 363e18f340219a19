"""Crash-recovery suite for the durable epoch log.

The contract under test (see ``repro.history.epochlog``): a writer killed
at ANY byte offset loses at most the epoch it was buffering — recovery
never crashes and never loses a *sealed* epoch — and a verifier killed
mid-stream resumes from its newest checkpoint to the exact verdict an
uninterrupted run produces.  Faults are injected post-hoc by truncating or
corrupting the on-disk files at randomized offsets, which covers every
state an interrupted writer can leave behind (its writes are sequential:
temp file, rename, one record appended to the manifest).
"""

import json
import os
import random
import shutil
import sys
import time
import zlib
from array import array
from dataclasses import replace

import pytest

from repro import Database, MTChecker, run_workload
from repro.core.incremental import CheckerSession, stream_order
from repro.core.result import IsolationLevel
from repro.history import epochlog, load_columns
from repro.history.columnar import ColumnarHistory
from repro.history.epochlog import (
    CHECKPOINT_FILE_FORMAT,
    CHECKPOINT_MAGIC,
    MANIFEST_NAME,
    RETIRED_NAME,
    EpochLog,
    EpochLogError,
    EpochLogWriter,
    is_epochlog_path,
)
from repro.ondisk import DEFLATE_MAX_RATIO, frame, pack_columns, unframe, unpack_columns
from repro.workloads.mt_generator import MTWorkloadGenerator

SER = IsolationLevel.SERIALIZABILITY
SI = IsolationLevel.SNAPSHOT_ISOLATION
SSER = IsolationLevel.STRICT_SERIALIZABILITY
LEVELS = [SER, SI, SSER]


def make_history(seed, *, engine="si", sessions=4, txns=12, objects=8):
    """A recorded history; ``engine="rc"`` yields SER/SI anomalies."""
    workload = MTWorkloadGenerator(
        num_sessions=sessions, txns_per_session=txns, num_objects=objects, seed=seed
    ).generate()
    return run_workload(
        Database(engine, keys=workload.keys), workload, seed=seed + 1
    ).history


def build_log(directory, history, *, epoch_transactions=10, compress=False):
    with EpochLogWriter(
        directory, epoch_transactions=epoch_transactions, compress=compress
    ) as writer:
        for txn in stream_order(history):
            writer.append(txn)
    return EpochLog.open(directory)


def stream_format(log, level, *, window=None, start_epoch=0, session=None):
    """Final verdict text of streaming every epoch from ``start_epoch``."""
    if session is None:
        session = CheckerSession(level, window=window)
    for _entry, segment in log.iter_segments(start_epoch):
        session.ingest_segment(segment)
    return session.result().format()


def direct_stream_format(transactions, level, *, window=None):
    """Verdict text of streaming ``transactions`` as one single segment.

    The never-crashed baseline: epoch-wise ingestion over the same arrival
    order must match it byte for byte.
    """
    session = CheckerSession(level, window=window)
    session.ingest_segment(ColumnarHistory.from_transactions(transactions))
    return session.result().format()


def drop_last_record(directory):
    """Cut the manifest's last record off, as if the writer had died between
    the segment rename and the record append: the epoch file is an orphan."""
    manifest = directory / MANIFEST_NAME
    lines = manifest.read_bytes().splitlines(keepends=True)
    assert len(lines) > 1, "the manifest holds no record"
    manifest.write_bytes(b"".join(lines[:-1]))


def unstamped(entries):
    """``entries`` without the seal's wall clock, which an entry adopted from
    its file takes from the file's modification time."""
    return [replace(entry, sealed_at=0) for entry in entries]


def truncate_at(path, rng):
    """Cut ``path`` at a random byte offset strictly inside the file."""
    data = path.read_bytes()
    cut = rng.randrange(0, len(data))
    path.write_bytes(data[:cut])
    return cut


# ----------------------------------------------------------------------
# Basics: sealing, manifest, refresh, load
# ----------------------------------------------------------------------
class TestEpochLogBasics:
    def test_path_predicate(self, tmp_path):
        assert is_epochlog_path("history.epochs")
        assert is_epochlog_path(tmp_path)  # existing directory
        assert not is_epochlog_path(tmp_path / "history.seg")
        assert not is_epochlog_path(tmp_path / "history.jsonl")

    def test_open_requires_a_directory(self, tmp_path):
        with pytest.raises(EpochLogError):
            EpochLog.open(tmp_path / "missing.epochs")
        target = tmp_path / "file.epochs"
        target.write_text("not a directory")
        with pytest.raises(EpochLogError):
            EpochLog.open(target)

    def test_empty_directory_opens_as_zero_epoch_log(self, tmp_path):
        d = tmp_path / "log.epochs"
        d.mkdir()
        log = EpochLog.open(d)
        assert len(log) == 0 and log.num_transactions == 0

    @pytest.mark.parametrize("compress", [False, True])
    def test_writer_seals_epochs_with_accurate_manifest(self, tmp_path, compress):
        history = make_history(1)
        started = time.time_ns() // 1_000_000
        log = build_log(
            tmp_path / "log.epochs", history, epoch_transactions=10, compress=compress
        )
        total_rows = sum(1 for _ in stream_order(history))
        assert log.num_transactions == total_rows
        assert len(log) == (total_rows + 9) // 10
        stamps = [entry.sealed_at for entry in log.epochs]
        assert started <= stamps[0] and stamps == sorted(stamps) and stamps[-1] <= time.time() * 1000
        for entry in log.epochs:
            segment = log.load_epoch(entry)  # verifies size + CRC
            assert segment.num_transactions == entry.transactions
            assert min(segment.txn_ids) == entry.min_txn_id
            assert max(segment.txn_ids) == entry.max_txn_id
            assert entry.name.endswith(".seg.gz" if compress else ".seg")

    def test_columns_seal_the_epochs_per_row_appends_seal(self, tmp_path):
        history = make_history(6, engine="rc")
        by_row = build_log(tmp_path / "by-row.epochs", history, epoch_transactions=7)
        columns = ColumnarHistory.from_history(history)
        head, tail = ColumnarHistory(), ColumnarHistory()
        head.extend(columns, 0, 10)
        tail.extend(columns, 10)
        with EpochLogWriter(tmp_path / "by-columns.epochs", epoch_transactions=7) as writer:
            writer.extend(head)  # one epoch sealed, three rows carried over
            writer.extend(tail)
        by_columns = EpochLog.open(tmp_path / "by-columns.epochs")
        assert len(by_columns) == len(by_row) > 2
        for a, b in zip(by_row.epochs, by_columns.epochs):
            assert (by_row.directory / a.name).read_bytes() == (by_columns.directory / b.name).read_bytes()

    def test_epoch_stream_matches_whole_segment_verdicts(self, tmp_path):
        for engine in ("si", "rc"):
            history = make_history(2, engine=engine)
            stream = list(stream_order(history))
            log = build_log(tmp_path / f"{engine}.epochs", history)
            columns = load_columns(log.directory)
            for level in LEVELS:
                # Epoch-wise streaming is byte-identical to single-segment
                # streaming, and agrees with the batch checker on the
                # verdict and anomaly kinds.
                assert stream_format(log, level) == direct_stream_format(stream, level)
                batch = MTChecker().verify(columns, level)
                session = CheckerSession(level)
                stream_format(log, level, session=session)
                result = session.result()
                assert result.satisfied == batch.satisfied
                # Streaming keeps checking past the first violation, so its
                # anomaly kinds are a superset of the batch checker's.
                assert {v.kind.value for v in batch.violations} <= {
                    v.kind.value for v in result.violations
                }

    def test_refresh_follows_a_live_writer(self, tmp_path):
        history = make_history(3)
        stream = list(stream_order(history))
        d = tmp_path / "live.epochs"
        writer = EpochLogWriter(d, epoch_transactions=10)
        for txn in stream[: len(stream) // 2]:
            writer.append(txn)
        log = EpochLog.open(d)
        seen = len(log)
        for txn in stream[len(stream) // 2 :]:
            writer.append(txn)
        writer.close()
        fresh = log.refresh()
        assert [e.epoch for e in fresh] == list(range(seen, len(log)))
        assert log.num_transactions == len(stream)

    def test_refresh_rejects_regression_and_disappearance(self, tmp_path):
        d = tmp_path / "gone.epochs"
        log = build_log(d, make_history(4))
        (d / log.epochs[-1].name).unlink()
        (d / MANIFEST_NAME).unlink()
        with pytest.raises(EpochLogError, match="regressed"):
            log.refresh()
        shutil.rmtree(d)
        with pytest.raises(EpochLogError, match="disappeared"):
            log.refresh()

    def test_reopening_a_writer_appends(self, tmp_path):
        history = make_history(5)
        stream = list(stream_order(history))
        d = tmp_path / "resume.epochs"
        with EpochLogWriter(d, epoch_transactions=10) as writer:
            for txn in stream[:25]:
                writer.append(txn)
        with EpochLogWriter(d, epoch_transactions=10) as writer:
            assert writer.epochs_sealed == 3  # 25 rows / 10 per epoch
            for txn in stream[25:]:
                writer.append(txn)
        log = EpochLog.open(d)
        assert log.num_transactions == len(stream)
        for level in LEVELS:
            assert stream_format(log, level) == direct_stream_format(stream, level)

    def test_loaded_epochs_save_byte_identically(self, tmp_path):
        log = build_log(tmp_path / "m.epochs", make_history(6, engine="rc"))
        for entry in log.epochs:
            log.load_epoch(entry).save(tmp_path / "again.seg")
            assert (tmp_path / "again.seg").read_bytes() == (log.directory / entry.name).read_bytes()


# ----------------------------------------------------------------------
# Crash recovery: the writer dies at an arbitrary byte offset
# ----------------------------------------------------------------------
@pytest.mark.parametrize("compress", [False, True])
class TestCrashRecovery:
    def _log_dir(self, tmp_path, compress=False):
        d = tmp_path / "crash.epochs"
        log = build_log(
            d, make_history(11), epoch_transactions=10, compress=compress
        )
        assert len(log) >= 3
        return d, log

    def test_torn_last_epoch_drops_exactly_that_epoch(self, tmp_path, compress):
        rng = random.Random(0)
        for trial in range(10):
            d, log = self._log_dir(tmp_path / str(trial), compress)
            victim = log.epochs[-1]
            truncate_at(d / victim.name, rng)
            recovered = EpochLog.open(d)
            assert len(recovered) == len(log) - 1
            assert [e.crc32 for e in recovered.epochs] == [
                e.crc32 for e in log.epochs[:-1]
            ]

    def test_missing_manifest_is_rebuilt_from_epoch_files(self, tmp_path, compress):
        d, log = self._log_dir(tmp_path, compress)
        (d / MANIFEST_NAME).unlink()
        recovered = EpochLog.open(d)
        assert unstamped(recovered.epochs) == unstamped(log.epochs)

    def test_torn_manifest_is_rebuilt_from_epoch_files(self, tmp_path, compress):
        rng = random.Random(1)
        for trial in range(10):
            d, log = self._log_dir(tmp_path / str(trial), compress)
            truncate_at(d / MANIFEST_NAME, rng)
            recovered = EpochLog.open(d)
            assert [e.crc32 for e in recovered.epochs] == [
                e.crc32 for e in log.epochs
            ]

    def test_sealed_file_without_manifest_entry_is_adopted(self, tmp_path, compress):
        d, log = self._log_dir(tmp_path, compress)
        drop_last_record(d)
        recovered = EpochLog.open(d)
        assert len(recovered) == len(log)
        assert recovered.epochs[-1].crc32 == log.epochs[-1].crc32

    def test_an_epoch_file_is_read_once(self, tmp_path, monkeypatch, compress):
        # Size, CRC-32 and columns all come from one read, so the bytes the
        # manifest vouched for are the bytes parsed: by ``load_epoch``, and by
        # recovery when it adopts an epoch whose record never landed.
        d, log = self._log_dir(tmp_path, compress)
        last = d / log.epochs[-1].name
        assert count_opens(monkeypatch, lambda: log.load_epoch(len(log) - 1), last) == 1
        drop_last_record(d)
        adopted = []
        assert count_opens(monkeypatch, lambda: adopted.append(EpochLog.open(d)), last) == 1
        assert adopted[0].epochs[-1].crc32 == log.epochs[-1].crc32

    def test_leftover_temp_file_is_swept_on_open(self, tmp_path, compress):
        d, log = self._log_dir(tmp_path, compress)
        nxt = len(log)
        orphan = d / f".epoch-{nxt:05d}.seg.tmp"
        orphan.write_bytes(b"REPROSEG1\n{torn")
        recovered = EpochLog.open(d)
        assert len(recovered) == len(log)
        # The orphan is garbage from a crash mid-seal: open() deletes it so
        # it can never be confused for live state or accumulate forever.
        assert not orphan.exists()

    def test_leftover_temp_file_is_swept_by_writer(self, tmp_path, compress):
        d, log = self._log_dir(tmp_path, compress)
        orphan = d / ".epoch-99999.seg.tmp"
        orphan.write_bytes(b"stale")
        EpochLogWriter(d, epoch_transactions=4, compress=compress).close()
        assert not orphan.exists()

    def test_corrupt_epoch_fails_its_checksum_cleanly(self, tmp_path, compress):
        d, log = self._log_dir(tmp_path, compress)
        victim = log.epochs[1]
        path = d / victim.name
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF  # same size, different bytes
        path.write_bytes(bytes(blob))
        recovered = EpochLog.open(d)  # size check passes; open succeeds
        with pytest.raises(EpochLogError, match="checksum"):
            recovered.load_epoch(1)

    def test_randomized_kill_never_crashes_or_loses_sealed_epochs(
        self, tmp_path, compress
    ):
        """The integrated trial: random fault, recover, append, verify.

        Whatever single fault the kill left behind, recovery must (a) not
        raise, (b) keep every sealed epoch that survived on disk intact,
        and (c) let a reopened writer continue the stream to a verdict
        identical to a never-crashed run over the same transactions.
        """
        for seed in range(12):
            rng = random.Random(seed)
            history = make_history(20 + seed, engine=rng.choice(["si", "rc"]))
            stream = list(stream_order(history))
            cut = rng.randrange(15, len(stream))
            d = tmp_path / f"trial-{seed}.epochs"
            with EpochLogWriter(d, epoch_transactions=10, compress=compress) as w:
                for txn in stream[:cut]:
                    w.append(txn)
            before = EpochLog.open(d)
            scenario = rng.choice(
                ["torn-epoch", "torn-manifest", "missing-manifest", "orphan", "none"]
            )
            lost = 0
            if scenario == "torn-epoch" and len(before) > 0:
                truncate_at(d / before.epochs[-1].name, rng)
                lost = 1
            elif scenario == "torn-manifest":
                truncate_at(d / MANIFEST_NAME, rng)
            elif scenario == "missing-manifest":
                (d / MANIFEST_NAME).unlink()
            elif scenario == "orphan" and len(before) > 0:
                drop_last_record(d)

            recovered = EpochLog.open(d)  # (a) never crashes
            assert len(recovered) == len(before) - lost  # (b) sealed prefix
            assert [e.crc32 for e in recovered.epochs] == [
                e.crc32 for e in before.epochs[: len(before) - lost]
            ]

            # (c) resume the writer over the transactions that were not
            # durably sealed, then compare against a never-crashed run.
            survived = recovered.num_transactions
            with EpochLogWriter(d, epoch_transactions=10, compress=compress) as w:
                for txn in stream[survived:]:
                    w.append(txn)
            final = EpochLog.open(d)
            assert final.num_transactions == len(stream)
            level = rng.choice(LEVELS)
            assert stream_format(final, level) == direct_stream_format(
                stream, level
            ), (seed, scenario)


@pytest.mark.parametrize("cut", range(1, 13))
def test_orphan_torn_in_its_gzip_trailer_is_not_adopted(tmp_path, cut):
    d = tmp_path / "crash.epochs"
    log = build_log(d, make_history(11), epoch_transactions=10, compress=True)
    drop_last_record(d)
    orphan = d / log.epochs[-1].name
    orphan.write_bytes(orphan.read_bytes()[:-cut])
    recovered = EpochLog.open(d)
    assert [e.crc32 for e in recovered.epochs] == [e.crc32 for e in log.epochs[:-1]]


# ----------------------------------------------------------------------
# The manifest: an append-only record log, read from where it was left
# ----------------------------------------------------------------------
def count_file_calls(monkeypatch, body):
    """How many ``os.stat`` / ``os.fstat`` / ``open`` calls ``body()`` makes."""
    import builtins
    import io

    calls = []

    def counting(real):
        def wrapper(*args, **kwargs):
            calls.append(real.__name__)
            return real(*args, **kwargs)

        return wrapper

    with monkeypatch.context() as patch:
        patch.setattr(os, "stat", counting(os.stat))
        patch.setattr(os, "fstat", counting(os.fstat))
        opener = counting(builtins.open)
        patch.setattr(builtins, "open", opener)
        patch.setattr(io, "open", opener)  # what pathlib calls
        body()
    return len(calls)


def count_opens(monkeypatch, body, path):
    """How many times ``body()`` opens ``path``."""
    import builtins
    import io

    opens, real = [], builtins.open

    def opener(file, *args, **kwargs):
        if str(file) == str(path):
            opens.append(file)
        return real(file, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(builtins, "open", opener)
        patch.setattr(io, "open", opener)  # what pathlib calls
        body()
    return len(opens)


class TestManifestLog:
    _log_dir = TestCrashRecovery._log_dir

    def test_last_record_cut_at_every_byte_is_adopted_from_its_file(self, tmp_path):
        d, log = self._log_dir(tmp_path)
        data = (d / MANIFEST_NAME).read_bytes()
        last = data.rindex(b"\n", 0, -1) + 1  # where the last record starts
        for cut in range(last, len(data)):  # ... up to "only the newline is missing"
            (d / MANIFEST_NAME).write_bytes(data[:cut])
            recorded, cursor = epochlog._read_manifest(d)
            assert len(recorded) == len(log) - 1 and cursor[1] == last
            recovered = EpochLog.open(d)
            assert unstamped(recovered.epochs) == unstamped(log.epochs)

    def test_flipped_byte_in_a_middle_record_ends_the_prefix_there(self, tmp_path):
        d, log = self._log_dir(tmp_path)
        lines = (d / MANIFEST_NAME).read_bytes().splitlines(keepends=True)
        for position in range(len(lines[2]) - 1):  # every byte of epoch 1's record
            damaged = bytearray(lines[2])
            damaged[position] ^= 0x01
            (d / MANIFEST_NAME).write_bytes(b"".join([*lines[:2], bytes(damaged), *lines[3:]]))
            recorded, cursor = epochlog._read_manifest(d)
            assert [e.epoch for e in recorded] == [0] and cursor is None
            # The rest are still sealed files: adopted, none lost.
            assert unstamped(EpochLog.open(d).epochs) == unstamped(log.epochs)

    def test_a_follower_survives_a_writer_restart(self, tmp_path):
        stream = list(stream_order(make_history(3)))
        d = tmp_path / "restart.epochs"
        seen = []

        def drain(log):
            log.refresh()
            while (segment := log.poll()) is not None:
                seen.extend(segment.txn_ids)

        with EpochLogWriter(d, epoch_transactions=10) as writer:
            for txn in stream[:25]:
                writer.append(txn)
            log = EpochLog.open(d)
            drain(log)
            followed = log._cursor
            assert followed is not None and len(seen) == 20
        drain(log)  # the closing seal is one more appended record
        assert log._cursor == (followed[0], os.stat(d / MANIFEST_NAME).st_size)
        with EpochLogWriter(d, epoch_transactions=10) as writer:
            # Recovery published a fresh manifest: a new inode, the same epochs.
            assert os.stat(d / MANIFEST_NAME).st_ino != followed[0]
            drain(log)
            assert len(seen) == 25
            for txn in stream[25:]:
                writer.append(txn)
            drain(log)
        drain(log)
        assert log._cursor[0] == os.stat(d / MANIFEST_NAME).st_ino
        assert seen == [txn.txn_id for txn in stream]  # each once, in order

    def test_manifest_shorter_than_the_followers_offset_is_a_regression(self, tmp_path):
        d, log = self._log_dir(tmp_path)
        drop_last_record(d)  # in place: the same inode, fewer bytes
        with pytest.raises(EpochLogError, match="regressed"):
            log.refresh()

    def test_idle_refresh_costs_the_same_on_a_long_log(self, tmp_path, monkeypatch):
        stream = list(stream_order(make_history(7, txns=60)))
        counts = {}
        for epochs in (3, 200):
            d = tmp_path / f"{epochs}.epochs"
            with EpochLogWriter(d, epoch_transactions=1) as writer:
                for txn in stream[:epochs]:
                    writer.append(txn)
            log = EpochLog.open(d)
            assert len(log) == epochs
            counts[epochs] = count_file_calls(monkeypatch, lambda: log.refresh() and None)
        assert counts[3] == counts[200] <= 3

    def test_a_seal_is_two_fsyncs(self, tmp_path, monkeypatch):
        stream = list(stream_order(make_history(8)))
        with EpochLogWriter(tmp_path / "f.epochs", epoch_transactions=10) as writer:
            for txn in stream[:9]:
                writer.append(txn)
            synced = []
            real_fsync = os.fsync
            with monkeypatch.context() as patch:
                patch.setattr(os, "fsync", lambda fd: (synced.append(fd), real_fsync(fd)))
                writer.append(stream[9])
            assert writer.epochs_sealed == 1
            # The segment's staging file, then the manifest the writer keeps open.
            assert len(synced) == 2 and synced[1] == writer._manifest.fileno()

    def test_a_reader_does_not_sweep_a_live_writers_staging_file(self, tmp_path, monkeypatch):
        stream = list(stream_order(make_history(9)))
        d = tmp_path / "live.epochs"
        staged = []

        def open_a_reader_mid_seal(site, path=None):
            if site == "epochlog.seal.rename":
                EpochLog.open(d)  # what `repro watch DIR` does when it starts
                staged.extend(d.glob(".*.tmp"))

        monkeypatch.setattr(epochlog, "fail_point", open_a_reader_mid_seal)
        with EpochLogWriter(d, epoch_transactions=10) as writer:
            for txn in stream[:10]:
                writer.append(txn)  # the tenth seals: FileNotFoundError before the fix
            assert writer.epochs_sealed == 1 and len(staged) == 1
        # The writer is gone and so is its lock: now stale files are swept.
        (d / ".epoch-00009.seg.tmp").write_bytes(b"stale")
        EpochLog.open(d)
        assert not list(d.glob(".*.tmp"))

    def test_a_second_writer_is_refused(self, tmp_path):
        stream = list(stream_order(make_history(10)))
        d = tmp_path / "owned.epochs"
        with EpochLogWriter(d, epoch_transactions=10) as writer:
            for txn in stream[:15]:
                writer.append(txn)
            with pytest.raises(EpochLogError, match="another writer holds this log"):
                EpochLogWriter(d, epoch_transactions=10)
            for txn in stream[15:30]:
                writer.append(txn)
        with EpochLogWriter(d, epoch_transactions=10) as writer:  # closed: released
            assert writer.epochs_sealed == 3
        assert [e.transactions for e in EpochLog.open(d).epochs] == [10, 10, 10]

    def test_a_torn_append_is_repaired_before_the_next_record(self, tmp_path):
        from repro.resilience import failpoints

        stream = list(stream_order(make_history(12)))
        d = tmp_path / "torn.epochs"
        with EpochLogWriter(d, epoch_transactions=10) as writer:
            for txn in stream[:10]:
                writer.append(txn)
            log = EpochLog.open(d)
            with failpoints.scoped("epochlog.manifest.fsync=1*truncate(9)"):
                with pytest.raises(OSError):
                    for txn in stream[10:20]:
                        writer.append(txn)
            assert writer.epochs_sealed == 1  # the failed seal changed nothing
            assert writer.seal().epoch == 1  # ... and sealing again writes the same epoch
            for txn in stream[20:30]:
                writer.append(txn)
            assert [e.epoch for e in log.refresh()] == [1, 2]
            # No bad line was left in the middle: the follower reads on by offset.
            assert log._cursor is not None and log.refresh() == []
        assert [list(s.txn_ids) for _e, s in log.iter_segments()] == [
            [t.txn_id for t in stream[i : i + 10]] for i in (0, 10, 20)
        ]

    def test_the_old_manifest_refuses_a_writer_and_names_its_remedy(self, tmp_path):
        # Refused by check, watch and convert: the corpus entry log:v1-manifest.
        d, log = self._log_dir(tmp_path)
        (d / MANIFEST_NAME).rename(d / "MANIFEST.json")
        with pytest.raises(EpochLogError, match=r"MANIFEST\.json.*delete it"):
            EpochLogWriter(d)
        assert not (d / MANIFEST_NAME).exists()  # refused before anything was written
        # The remedy the message names works: the manifest is rebuilt from the files.
        (d / "MANIFEST.json").unlink()
        assert unstamped(EpochLog.open(d).epochs) == unstamped(log.epochs)


# ----------------------------------------------------------------------
# Checkpoints: kill the verifier, resume, same verdict
# ----------------------------------------------------------------------
class TestCheckpointResume:
    @pytest.mark.parametrize("engine", ["si", "rc"])
    @pytest.mark.parametrize("level", LEVELS)
    def test_restart_at_every_epoch_boundary_matches_uninterrupted(
        self, tmp_path, engine, level
    ):
        d = tmp_path / "svc.epochs"
        log = build_log(d, make_history(31, engine=engine), epoch_transactions=10)
        uninterrupted = stream_format(log, level)
        for boundary in range(len(log)):
            session = CheckerSession(level)
            ingested = 0
            for _entry, segment in log.iter_segments(0):
                if _entry.epoch == boundary:
                    break
                session.ingest_segment(segment)
                ingested += segment.num_transactions
            log.save_checkpoint(
                session.checkpoint(), epochs=boundary, transactions=ingested
            )
            del session  # the verifier is killed here

            ckpt = log.latest_checkpoint()
            assert ckpt is not None and ckpt.epochs == boundary
            resumed = CheckerSession.restore(ckpt.state)
            assert (
                stream_format(log, level, start_epoch=boundary, session=resumed)
                == uninterrupted
            )

    def test_half_written_checkpoint_falls_back_to_previous(self, tmp_path):
        rng = random.Random(7)
        d = tmp_path / "ckpt.epochs"
        log = build_log(d, make_history(32), epoch_transactions=10)
        session = CheckerSession(SER)
        session.ingest_segment(log.load_epoch(0))
        good = log.save_checkpoint(session.checkpoint(), epochs=1, transactions=10)
        session.ingest_segment(log.load_epoch(1))
        torn = log.save_checkpoint(session.checkpoint(), epochs=2, transactions=20)
        truncate_at(torn, rng)
        ckpt = log.latest_checkpoint()
        assert ckpt is not None
        assert ckpt.path == good and ckpt.epochs == 1
        # Resume from the fallback still reaches the uninterrupted verdict.
        resumed = CheckerSession.restore(ckpt.state)
        assert stream_format(log, SER, start_epoch=1, session=resumed) == stream_format(
            log, SER
        )

    def test_corrupt_deflate_body_under_valid_crc_falls_back_to_previous(self, tmp_path):
        # The frame is intact (magic, header, CRC over the payload) but the
        # payload is not a deflate stream: zlib surfaces that as zlib.error,
        # which must be a skip like any other corruption, never a traceback.
        d = tmp_path / "body.epochs"
        log = build_log(d, make_history(32), epoch_transactions=10)
        session = CheckerSession(SER)
        session.ingest_segment(log.load_epoch(0))
        good = log.save_checkpoint(session.checkpoint(), epochs=1, transactions=10)
        # A zlib header followed by an invalid deflate block type.
        payload = b"\x78\x01" + b"\xff" * 64
        header = json.dumps(
            {
                "format": CHECKPOINT_FILE_FORMAT,
                "epochs": 2,
                "transactions": 20,
                "inflated_bytes": 1000,
                "crc32": zlib.crc32(payload),
                "payload_bytes": len(payload),
            }
        ).encode("utf-8")
        (d / "checkpoint-00002.ckpt").write_bytes(
            CHECKPOINT_MAGIC + header + b"\n" + payload
        )
        with pytest.raises(zlib.error):
            zlib.decompress(payload)
        ckpt = log.latest_checkpoint()
        assert ckpt is not None and ckpt.path == good and ckpt.epochs == 1
        assert [c.epochs for c in log.checkpoints()] == [1]

    def test_no_valid_checkpoint_returns_none(self, tmp_path):
        d = tmp_path / "none.epochs"
        log = build_log(d, make_history(33))
        assert log.latest_checkpoint() is None
        (d / "checkpoint-00001.ckpt").write_bytes(b"garbage")
        assert log.latest_checkpoint() is None

    def test_only_newest_two_checkpoints_are_kept(self, tmp_path):
        d = tmp_path / "prune.epochs"
        log = build_log(d, make_history(34), epoch_transactions=10)
        session = CheckerSession(SER)
        for boundary in range(len(log)):
            session.ingest_segment(log.load_epoch(boundary))
            log.save_checkpoint(
                session.checkpoint(),
                epochs=boundary + 1,
                transactions=(boundary + 1) * 10,
            )
        kept = sorted(p.name for p in d.glob("checkpoint-*.ckpt"))
        assert len(kept) == 2
        assert kept[-1] == f"checkpoint-{len(log):05d}.ckpt"


# ----------------------------------------------------------------------
# Hostile checkpoint bytes: a miss, never a traceback or a large allocation
# ----------------------------------------------------------------------
def _unpacked(blob):
    """``(header, JSON line, planes)`` of a checkpoint file's bytes."""
    header, payload = unframe(CHECKPOINT_MAGIC, blob)
    line, _, planes = zlib.decompress(payload).partition(b"\n")
    return header, json.loads(line), planes


def _framed(header, inflated=None, payload=None):
    """A CRC-valid checkpoint file around ``inflated`` (or a raw ``payload``)."""
    if payload is None:
        payload = zlib.compress(inflated, 1)
        header = {**header, "inflated_bytes": len(inflated)}
    header = {k: v for k, v in header.items() if k not in ("crc32", "payload_bytes")}
    return frame(CHECKPOINT_MAGIC, header, payload)


def _relined(blob, edit):
    header, line, planes = _unpacked(blob)
    edit(line)
    return _framed(header, json.dumps(line).encode() + b"\n" + planes)


def _restated(blob, edit):
    """The file of the state ``blob`` holds, passed through ``edit``."""
    header, payload = unframe(CHECKPOINT_MAGIC, blob)
    state = unpack_columns(header, payload)
    edit(state)
    packed, payload = pack_columns(state)
    return _framed({**header, **packed}, payload=payload)


def _truncations(blob):
    # The body cut at every column boundary (the JSON line, then each item
    # size's columns in order) under a consistent frame, and the file cut at
    # each boundary of its own: magic, header line, half the payload.
    header, line, planes = _unpacked(blob)
    body = json.dumps(line).encode() + b"\n"
    cuts, at = [0], 0
    for _, typecode, count in sorted(line["columns"], key=lambda c: array(c[1]).itemsize):
        at += array(typecode).itemsize * count
        cuts.append(at)
    variants = [_framed(header, body + planes[:cut]) for cut in cuts[:-1]]
    variants.append(_framed(header, body[:-1]))
    newline = blob.index(b"\n", len(CHECKPOINT_MAGIC))
    variants += [blob[:len(CHECKPOINT_MAGIC)], blob[: newline + 1], blob[: (newline + len(blob)) // 2]]
    return variants


def _inflates_to(payload, inflated):
    try:
        return zlib.decompress(payload) == inflated
    except zlib.error:
        return False


def _flips(blob):
    # Every payload byte flipped, bar the flips deflate cannot see (a code
    # length of a symbol no code uses): those inflate to the same bytes.
    header, payload = unframe(CHECKPOINT_MAGIC, blob)
    flipped = (payload[:i] + bytes([payload[i] ^ 0xFF]) + payload[i + 1 :] for i in range(len(payload)))
    inflated = zlib.decompress(payload)
    return [_framed(header, payload=bad) for bad in flipped if not _inflates_to(bad, inflated)]


def _declared(size):
    def damage(blob):
        header, payload = unframe(CHECKPOINT_MAGIC, blob)
        bound = DEFLATE_MAX_RATIO * len(payload)
        header["inflated_bytes"] = {"past-bound": bound + 1, "huge": 1 << 60, "long": header["inflated_bytes"] + 1,
                                    "short": header["inflated_bytes"] - 1}[size]
        return [_framed(header, payload=payload)]
    return damage


def _count(column, delta):
    def edit(line):
        for entry in line["columns"]:
            if entry[0] == column:
                entry[2] += delta
    return edit


def _typecode(code):
    def edit(line):
        line["columns"][0][1] = code
    return edit


def _ragged_count(first, second):
    def edit(state):
        counts = state["slots"]["readers_count"]
        counts[0] += first
        counts[1] += second
    return edit


def _key_past_keys(state):
    state["slots"]["version"][0] = 5 * (1 << 32) + len(state["keys"])


def _nested(blob):
    header, line, planes = _unpacked(blob)
    return [_framed(header, b"[" * 100_000 + b"]" * 100_000 + b"\n" + planes)]


class TestHostileCheckpointBytes:
    @pytest.mark.parametrize(
        "damage, refused_by",
        [
            (_truncations, "checkpoints"),
            (_flips, "checkpoints"),
            (lambda blob: [_relined(blob, _count("slots.readers", 1))], "checkpoints"),
            (lambda blob: [_relined(blob, _count("topo.ord", -1))], "checkpoints"),
            (_declared("past-bound"), "checkpoints"),
            (_declared("huge"), "checkpoints"),
            (_declared("long"), "checkpoints"),
            (_declared("short"), "checkpoints"),
            (lambda blob: [_restated(blob, _ragged_count(-1, 1))], "restore"),
            (lambda blob: [_restated(blob, _ragged_count(10**6, 0))], "restore"),
            (lambda blob: [_relined(blob, _typecode("Q"))], "checkpoints"),
            (lambda blob: [_relined(blob, _typecode("z"))], "checkpoints"),
            (lambda blob: [_restated(blob, _key_past_keys)], "restore"),
            (lambda blob: [_relined(blob, lambda line: line["doc"].update(keys=[[[[]]]] * 2))], "restore"),
            (_nested, "checkpoints"),
        ],
        ids=[
            "truncated-at-each-column-boundary", "flipped-payload-byte-under-a-recomputed-crc",
            "schema-length-past-the-payload", "schema-length-short-of-the-payload",
            "declared-size-past-the-deflate-bound", "declared-size-huge", "declared-size-long",
            "declared-size-short", "negative-ragged-count", "oversized-ragged-count",
            "unknown-typecode", "invalid-typecode", "key-id-past-the-keys", "keys-not-strings",
            "json-nested-past-the-parser",
        ],
    )
    def test_damaged_checkpoint_is_a_miss(self, tmp_path, capsys, damage, refused_by):
        import tracemalloc

        from repro.cli import main

        d = tmp_path / "hostile.epochs"
        build_log(d, make_history(35, engine="rc", txns=15), epoch_transactions=10)
        watch = ["watch", "--once", "--level", "sser", "--window", "24"]
        assert main([*watch, "--checkpoint-every", "2", str(d)]) in (0, 1)
        *older, newest = sorted(d.glob("checkpoint-*.ckpt"))
        for path in older:
            path.unlink()
        capsys.readouterr()
        code = main([*watch, "--no-resume", str(d)])
        verdict = capsys.readouterr().out.splitlines()[-1]
        log, blob = EpochLog.open(d), newest.read_bytes()
        variants = damage(blob)
        assert variants and blob not in variants
        for variant in variants:
            newest.write_bytes(variant)
            tracemalloc.start()
            try:
                found = list(log.checkpoints())
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 64 * len(blob) + (1 << 20)  # never the declared size
            if refused_by == "checkpoints":
                assert found == []
            else:
                with pytest.raises(ValueError, match="malformed checkpoint state: "):
                    CheckerSession.restore(found[0].state)
        # The service takes it as a miss: a note when restore refused it,
        # then the replay from epoch 0 to the same verdict.
        assert main([*watch, str(d)]) == code
        out = capsys.readouterr().out
        assert "Traceback" not in out and "resumed" not in out
        assert ("note: skipping checkpoint" in out) == (refused_by == "restore")
        assert out.splitlines()[-1] == verdict

    def test_a_checkpoint_of_the_other_byte_order_reads_back(self, tmp_path):
        # A writer on a host of the other byte order stamps its order and
        # writes its native items; the reader swaps them back.
        d = tmp_path / "endian.epochs"
        log = build_log(d, make_history(36, engine="rc", txns=15), epoch_transactions=10)
        session = CheckerSession(SSER, window=24)
        for _, segment in log.iter_segments():
            session.ingest_segment(segment)
        state = session.checkpoint()
        path = log.save_checkpoint(state, epochs=len(log), transactions=log.num_transactions)
        header, payload = unframe(CHECKPOINT_MAGIC, path.read_bytes())
        swapped = unpack_columns(header, payload)

        def swap(table):
            for value in table.values():
                if isinstance(value, array):
                    value.byteswap()
                elif isinstance(value, dict):
                    swap(value)

        swap(swapped)
        assert swapped != state and isinstance(swapped["rt"]["stamp"], array)
        packed, payload = pack_columns(swapped)
        foreign = "big" if sys.byteorder == "little" else "little"
        path.write_bytes(_relined(_framed({**header, **packed}, payload=payload),
                                  lambda line: line.update(byteorder=foreign)))
        found = list(log.checkpoints())
        assert found[0].path == path and found[0].state == state
        assert CheckerSession.restore(found[0].state).result().format() == session.result().format()


# ----------------------------------------------------------------------
# Window-GC retirement
# ----------------------------------------------------------------------
class TestRetirement:
    def test_retire_unlinks_files_and_persists_watermark(self, tmp_path):
        d = tmp_path / "gc.epochs"
        log = build_log(d, make_history(41), epoch_transactions=10)
        removed = log.retire_through(1)
        assert removed == 2
        assert log.retired_through == 1
        assert (d / RETIRED_NAME).read_text().strip() == "1"
        assert not (d / log.epochs[0].name).exists()
        with pytest.raises(EpochLogError, match="retired"):
            log.load_epoch(0)
        # Reopen: the watermark survives and the prefix stays accepted.
        reopened = EpochLog.open(d)
        assert reopened.retired_through == 1
        assert len(reopened) == len(log)
        assert all(e.retired for e in reopened.epochs[:2])
        assert log.retire_through(1) == 0  # idempotent
        with pytest.raises(ValueError):
            log.retire_through(len(log.epochs))

    def test_windowed_resume_survives_retirement(self, tmp_path):
        """The full service loop: window + checkpoint + GC + restart."""
        d = tmp_path / "svc.epochs"
        log = build_log(d, make_history(42, txns=20), epoch_transactions=10)
        window = 25
        uninterrupted = stream_format(log, SER, window=window)

        session = CheckerSession(SER, window=window)
        boundary = len(log) - 1
        ingested = 0
        for entry, segment in log.iter_segments():
            if entry.epoch == boundary:
                break
            session.ingest_segment(segment)
            ingested += segment.num_transactions
        log.save_checkpoint(session.checkpoint(), epochs=boundary, transactions=ingested)
        # Retire everything the windowed verifier can never revisit.
        log.retire_through(boundary - (window // 10) - 1)
        del session

        restarted = EpochLog.open(d)
        assert restarted.retired_through >= 0
        ckpt = restarted.latest_checkpoint()
        assert ckpt is not None and ckpt.epochs > restarted.retired_through
        resumed = CheckerSession.restore(ckpt.state)
        assert (
            stream_format(restarted, SER, start_epoch=ckpt.epochs, session=resumed)
            == uninterrupted
        )
