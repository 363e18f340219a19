"""Tests for the database simulator and its isolation engines."""

import pytest

from repro.core.result import IsolationLevel
from repro.db import (
    Database,
    TransactionAborted,
    TransactionStateError,
    engine_for_level,
)


class TestDatabaseLifecycle:
    def test_begin_read_write_commit(self):
        db = Database("si", keys=["x"])
        txn = db.begin(session_id=3)
        assert db.read(txn, "x") == 0
        db.write(txn, "x", 42)
        commit_ts = db.commit(txn)
        assert commit_ts > txn.start_ts
        assert db.committed_value("x") == 42
        assert db.stats.committed == 1

    def test_each_operation_advances_the_clock_by_one(self):
        # One clock, one rate: begin, read, write, commit and abort each
        # take the next whole stamp, so recorded intervals never tie.
        db = Database("si", keys=["x"])
        txn = db.begin()
        assert txn.start_ts == 1.0
        db.read(txn, "x")
        db.write(txn, "x", 1)
        assert db.clock.now() == 3.0
        assert db.commit(txn) == 4.0
        db.abort(db.begin())
        assert db.clock.now() == 6.0

    def test_read_own_write(self):
        db = Database("si", keys=["x"])
        txn = db.begin()
        db.write(txn, "x", 7)
        assert db.read(txn, "x") == 7

    def test_client_abort_discards_writes(self):
        db = Database("si", keys=["x"])
        txn = db.begin()
        db.write(txn, "x", 99)
        db.abort(txn)
        assert db.committed_value("x") == 0
        assert db.stats.aborted == 1

    def test_operations_after_commit_raise(self):
        db = Database("si", keys=["x"])
        txn = db.begin()
        db.commit(txn)
        with pytest.raises(TransactionStateError):
            db.read(txn, "x")
        with pytest.raises(TransactionStateError):
            db.write(txn, "x", 1)

    def test_abort_is_idempotent(self):
        db = Database("si", keys=["x"])
        txn = db.begin()
        db.abort(txn)
        db.abort(txn)
        assert db.stats.aborted == 1

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            Database("totally-bogus")

    def test_engine_for_level_mapping(self):
        assert engine_for_level(IsolationLevel.SNAPSHOT_ISOLATION) == "si"
        assert engine_for_level(IsolationLevel.SERIALIZABILITY) == "serializable"
        assert engine_for_level(IsolationLevel.STRICT_SERIALIZABILITY) == "s2pl"

    def test_database_accepts_isolation_level_enum(self):
        db = Database(IsolationLevel.SERIALIZABILITY, keys=["x"])
        assert db.isolation_name == "serializable"

    def test_reading_missing_key_returns_none(self):
        db = Database("si")
        txn = db.begin()
        assert db.read(txn, "ghost") is None

    def test_stats_track_operations(self):
        db = Database("si", keys=["x"])
        txn = db.begin()
        db.read(txn, "x")
        db.write(txn, "x", 1)
        db.commit(txn)
        assert db.stats.reads == 1
        assert db.stats.writes == 1
        assert db.stats.abort_rate == 0.0


class TestSnapshotIsolationEngine:
    def test_reads_come_from_begin_snapshot(self):
        db = Database("si", keys=["x"])
        reader = db.begin()
        writer = db.begin()
        db.write(writer, "x", 5)
        db.commit(writer)
        # The reader's snapshot predates the writer's commit.
        assert db.read(reader, "x") == 0

    def test_first_committer_wins(self):
        db = Database("si", keys=["x"])
        t1 = db.begin()
        t2 = db.begin()
        db.read(t1, "x")
        db.read(t2, "x")
        db.write(t1, "x", 1)
        db.write(t2, "x", 2)
        db.commit(t1)
        with pytest.raises(TransactionAborted):
            db.commit(t2)
        assert db.committed_value("x") == 1

    def test_write_skew_is_allowed(self):
        db = Database("si", keys=["x", "y"])
        t1 = db.begin()
        t2 = db.begin()
        db.read(t1, "x"), db.read(t1, "y")
        db.read(t2, "x"), db.read(t2, "y")
        db.write(t1, "x", 1)
        db.write(t2, "y", 2)
        db.commit(t1)
        db.commit(t2)  # must not raise under SI

    def test_non_conflicting_writes_commit(self):
        db = Database("si", keys=["x", "y"])
        t1 = db.begin()
        t2 = db.begin()
        db.read(t1, "x")
        db.read(t2, "y")
        db.write(t1, "x", 1)
        db.write(t2, "y", 2)
        db.commit(t1)
        db.commit(t2)


class TestSerializableEngine:
    def test_stale_read_aborts_writer(self):
        db = Database("serializable", keys=["x", "y"])
        t1 = db.begin()
        db.read(t1, "x")
        # Someone else overwrites x while t1 is running.
        t2 = db.begin()
        db.read(t2, "x")
        db.write(t2, "x", 5)
        db.commit(t2)
        db.write(t1, "y", 6)
        with pytest.raises(TransactionAborted):
            db.commit(t1)

    def test_write_skew_is_prevented(self):
        db = Database("serializable", keys=["x", "y"])
        t1 = db.begin()
        t2 = db.begin()
        db.read(t1, "x"), db.read(t1, "y")
        db.read(t2, "x"), db.read(t2, "y")
        db.write(t1, "x", 1)
        db.write(t2, "y", 2)
        db.commit(t1)
        with pytest.raises(TransactionAborted):
            db.commit(t2)

    def test_read_only_transactions_commit(self):
        db = Database("serializable", keys=["x"])
        t1 = db.begin()
        db.read(t1, "x")
        writer = db.begin()
        db.read(writer, "x")
        db.write(writer, "x", 3)
        db.commit(writer)
        # A pure reader with a consistent snapshot still commits.
        db.commit(t1)


class TestStrictTwoPhaseLockingEngine:
    def test_conflicting_write_aborts_under_no_wait(self):
        db = Database("s2pl", keys=["x"])
        t1 = db.begin()
        t2 = db.begin()
        db.read(t1, "x")
        db.write(t1, "x", 1)
        with pytest.raises(TransactionAborted):
            db.write(t2, "x", 2)
        db.commit(t1)

    def test_shared_locks_allow_concurrent_reads(self):
        db = Database("s2pl", keys=["x"])
        t1 = db.begin()
        t2 = db.begin()
        assert db.read(t1, "x") == 0
        assert db.read(t2, "x") == 0
        db.commit(t1)
        db.commit(t2)

    def test_locks_released_after_commit(self):
        db = Database("s2pl", keys=["x"])
        t1 = db.begin()
        db.read(t1, "x")
        db.write(t1, "x", 1)
        db.commit(t1)
        t2 = db.begin()
        db.read(t2, "x")
        db.write(t2, "x", 2)
        db.commit(t2)
        assert db.committed_value("x") == 2

    def test_reads_observe_latest_committed_value(self):
        db = Database("s2pl", keys=["x"])
        t1 = db.begin()
        db.read(t1, "x")
        db.write(t1, "x", 9)
        db.commit(t1)
        t2 = db.begin()
        assert db.read(t2, "x") == 9


class TestReadCommittedEngine:
    def test_non_repeatable_reads_possible(self):
        db = Database("read-committed", keys=["x"])
        reader = db.begin()
        assert db.read(reader, "x") == 0
        writer = db.begin()
        db.read(writer, "x")
        db.write(writer, "x", 5)
        db.commit(writer)
        # Unlike SI, the second read sees the new value.
        assert db.read(reader, "x") == 5

    def test_lost_update_possible(self):
        db = Database("read-committed", keys=["x"])
        t1 = db.begin()
        t2 = db.begin()
        db.read(t1, "x"), db.read(t2, "x")
        db.write(t1, "x", 1)
        db.write(t2, "x", 2)
        db.commit(t1)
        db.commit(t2)  # no first-committer-wins: the update of t1 is lost
        assert db.committed_value("x") == 2
