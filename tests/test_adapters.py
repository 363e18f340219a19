"""Tests for the database-adapter subsystem and the concurrent collector.

Covers the adapter protocol over a real engine (SQLite) and the simulator,
the SQLite busy/locked -> retryable-abort mapping, the protocol-boundary
chaos faults (with their expected anomaly classes), and the
adapter-equivalence suite: collecting through ``SimulatedAdapter`` must
yield the same checker verdicts as the direct ``workloads/runner.py`` path.
"""

import sqlite3
import sys
import threading

import pytest

from repro.adapters import (
    AdapterAborted,
    AdapterStateError,
    ChaosAdapter,
    ChaosPlan,
    Collector,
    SimulatedAdapter,
    SimulatedSession,
    SQLiteAdapter,
    collect_history,
    make_adapter,
)
from repro.core.checker import MTChecker
from repro.core.result import AnomalyKind, IsolationLevel
from repro.db.database import Database
from repro.db.errors import TransactionAborted, retryable_sqlite_abort
from repro.db.faults import FaultPlan
from repro.history.serialization import (
    HistoryStreamWriter,
    load_history_jsonl,
)
from repro.workloads.mt_generator import MTWorkloadGenerator
from repro.workloads.runner import run_workload

LEVELS = {
    "SI": IsolationLevel.SNAPSHOT_ISOLATION,
    "SER": IsolationLevel.SERIALIZABILITY,
    "SSER": IsolationLevel.STRICT_SERIALIZABILITY,
}


def small_workload(sessions=4, txns=40, objects=10, seed=3):
    return MTWorkloadGenerator(
        num_sessions=sessions,
        txns_per_session=txns,
        num_objects=objects,
        seed=seed,
    ).generate()


# ----------------------------------------------------------------------
# Protocol basics
# ----------------------------------------------------------------------
class TestSQLiteAdapter:
    def test_begin_read_write_commit(self):
        with SQLiteAdapter() as adapter:
            adapter.setup(["x"], initial_value=0)
            session = adapter.session(0)
            session.begin()
            assert session.read("x") == 0
            assert session.read("missing") is None
            session.write("x", 41)
            session.commit()
            session.close()
            assert adapter.committed_value("x") == 41

    def test_abort_rolls_back(self):
        with SQLiteAdapter() as adapter:
            adapter.setup(["x"], initial_value=7)
            with adapter.session(0) as session:
                session.begin()
                session.write("x", 99)
                session.abort()
            assert adapter.committed_value("x") == 7

    def test_operations_outside_transaction_are_state_errors(self):
        with SQLiteAdapter() as adapter:
            with adapter.session(0) as session:
                with pytest.raises(AdapterStateError):
                    session.read("x")
                with pytest.raises(AdapterStateError):
                    session.commit()
                session.begin()
                with pytest.raises(AdapterStateError):
                    session.begin()
                session.abort()

    def test_in_memory_databases_are_rejected(self):
        with pytest.raises(ValueError):
            SQLiteAdapter(":memory:")

    def test_capabilities_report_a_real_time_serializable_engine(self):
        with SQLiteAdapter(wal=True) as adapter:
            caps = adapter.capabilities()
            assert caps.supports("ser") and caps.supports("SSER")
            assert caps.real_time and caps.concurrent_sessions
            assert "wal" in caps.name

    def test_lock_contention_maps_to_retryable_abort(self):
        """Satellite: busy timeouts ride the db/errors.py retryable path."""
        with SQLiteAdapter(mode="immediate", busy_timeout_ms=1) as adapter:
            adapter.setup(["x"])
            writer = adapter.session(0)
            blocked = adapter.session(1)
            writer.begin()
            writer.write("x", 1)  # holds the write lock
            with pytest.raises(AdapterAborted) as excinfo:
                blocked.begin()  # BEGIN IMMEDIATE cannot take the lock
            assert isinstance(excinfo.value, TransactionAborted)
            assert excinfo.value.retryable
            writer.commit()
            # The blocked session recovers on retry.
            blocked.begin()
            assert blocked.read("x") == 1
            blocked.commit()
            writer.close()
            blocked.close()


class TestRetryableSqliteMapping:
    def test_locked_errors_become_transaction_aborted(self):
        abort = retryable_sqlite_abort(sqlite3.OperationalError("database is locked"))
        assert isinstance(abort, TransactionAborted)
        assert abort.retryable
        assert "sqlite" in abort.reason

    def test_non_lock_errors_are_not_mapped(self):
        assert retryable_sqlite_abort(sqlite3.OperationalError("no such table: kv")) is None
        assert retryable_sqlite_abort(ValueError("database is locked")) is None


class TestSimulatedAdapter:
    def test_wraps_every_engine_under_one_protocol(self):
        for engine in ("si", "serializable", "s2pl", "read-committed"):
            adapter = SimulatedAdapter(engine)
            adapter.setup(["x"])
            with adapter.session(0) as session:
                session.begin()
                assert session.read("x") == 0
                session.write("x", 5)
                session.commit()
            assert adapter.committed_value("x") == 5

    def test_conflict_aborts_surface_as_adapter_aborted(self):
        adapter = SimulatedAdapter("si")
        adapter.setup(["x"])
        first, second = adapter.session(0), adapter.session(1)
        first.begin()
        second.begin()
        assert first.read("x") == 0
        assert second.read("x") == 0
        first.write("x", 1)
        first.commit()
        second.write("x", 2)
        with pytest.raises(AdapterAborted) as excinfo:
            second.commit()  # first-committer-wins
        assert isinstance(excinfo.value, TransactionAborted)


# ----------------------------------------------------------------------
# Concurrent collection
# ----------------------------------------------------------------------
class TestCollector:
    def test_sqlite_collection_satisfies_ser_and_sser(self):
        workload = small_workload()
        with SQLiteAdapter() as adapter:
            result = Collector(adapter).collect(workload)
        assert result.stats.committed > 0
        checker = MTChecker()
        assert checker.verify(result.history, LEVELS["SER"]).satisfied
        assert checker.verify(result.history, LEVELS["SSER"]).satisfied
        assert MTChecker.is_mt_history(result.history)

    def test_retry_path_under_heavy_lock_contention(self):
        workload = small_workload(sessions=6, txns=25, objects=6, seed=9)
        with SQLiteAdapter(mode="deferred", busy_timeout_ms=5) as adapter:
            result = Collector(adapter, max_retries=8).collect(workload)
        assert result.stats.aborted > 0, "deferred mode at 5ms must hit busy aborts"
        assert result.stats.retries > 0
        assert MTChecker().verify(result.history, LEVELS["SER"]).satisfied

    def test_concurrent_collection_roundtrips_jsonl_with_identical_parallel_verdicts(
        self, tmp_path
    ):
        workload = small_workload(sessions=4, txns=50, objects=12, seed=21)
        path = tmp_path / "e2e.jsonl"
        with SQLiteAdapter(wal=True) as adapter:
            with HistoryStreamWriter(path, initial_keys=workload.keys) as writer:
                result = Collector(adapter, on_transaction=writer).collect(workload)
        loaded = load_history_jsonl(path)
        direct = MTChecker().verify(result.history, LEVELS["SER"])
        serial = MTChecker(workers=1).verify(loaded, LEVELS["SER"])
        parallel = MTChecker(workers=4).verify(loaded, LEVELS["SER"])
        assert direct.satisfied and serial.satisfied and parallel.satisfied
        assert (
            direct.num_transactions
            == serial.num_transactions
            == parallel.num_transactions
        )

    def test_hook_sees_transactions_in_finish_timestamp_order(self):
        seen = []
        workload = small_workload(sessions=4, txns=20, objects=8)
        with SQLiteAdapter(wal=True) as adapter:
            collect_history(adapter, workload, on_transaction=seen.append)
        stamps = [txn.finish_ts for txn in seen]
        assert stamps == sorted(stamps)
        assert all(txn.start_ts < txn.finish_ts for txn in seen)

    def test_written_values_are_globally_unique(self):
        workload = small_workload(sessions=6, txns=30, objects=5, seed=2)
        with SQLiteAdapter(wal=True) as adapter:
            result = Collector(adapter).collect(workload)
        values = [
            op.value
            for txn in result.history.transactions(include_initial=False)
            for op in txn.operations
            if op.is_write
        ]
        assert len(values) == len(set(values))

    def test_nonzero_initial_value_is_not_a_false_positive(self):
        # ⊥T must install what adapter.setup installed, or a healthy
        # engine gets flagged with spurious ThinAirReads.
        workload = small_workload(sessions=2, txns=15, objects=6)
        with SQLiteAdapter() as adapter:
            result = Collector(adapter, initial_value=7).collect(workload)
        verdict = MTChecker().verify(result.history, LEVELS["SER"])
        assert verdict.satisfied, verdict.violation
        initial = result.history.initial_transaction
        assert all(op.value == 7 for op in initial.operations)

    def test_non_retryable_aborts_are_recorded_but_not_retried(self):
        class PermanentlyFailingSession(SimulatedSession):
            def commit(self):
                super().abort()
                raise AdapterAborted("quota exceeded", retryable=False)

        class PermanentlyFailingAdapter(SimulatedAdapter):
            def session(self, session_id):
                return PermanentlyFailingSession(
                    self.database, session_id, self._lock
                )

        workload = small_workload(sessions=2, txns=5, objects=4)
        result = Collector(PermanentlyFailingAdapter("si"), max_retries=3).collect(workload)
        assert result.stats.committed == 0
        assert result.stats.aborted == 10  # one attempt per transaction
        assert result.stats.retries == 0

    def test_worker_errors_propagate(self):
        class ExplodingAdapter(SQLiteAdapter):
            def session(self, session_id):
                raise RuntimeError("connection refused")

        workload = small_workload(sessions=2, txns=2, objects=2)
        with ExplodingAdapter() as adapter:
            with pytest.raises(RuntimeError, match="connection refused"):
                Collector(adapter).collect(workload)


    def test_sessions_beyond_max_inflight_wait_and_all_commit(self, tmp_path):
        """A thread per session at scale starves most sessions into
        exhausting their retries (``collect --sessions 3000`` used to exit 0
        with a third of its transactions missing); the pool runs eight
        sessions at a time and every one commits."""

        class CountingAdapter(SQLiteAdapter):
            opened = peak = 0
            lock = threading.Lock()

            def session(self, session_id):
                session = super().session(session_id)
                close = session.close

                def counted_close():
                    close()
                    with self.lock:
                        self.opened -= 1

                session.close = counted_close
                with self.lock:
                    self.opened += 1
                    self.peak = max(self.peak, self.opened)
                return session

        peak_workers = 0

        def count_workers(_txn):
            nonlocal peak_workers
            alive = sum(
                thread.name.startswith("collector-worker-")
                for thread in threading.enumerate()
            )
            peak_workers = max(peak_workers, alive)

        workload = small_workload(sessions=600, txns=1, objects=50, seed=4)
        with CountingAdapter(str(tmp_path / "pool.db"), wal=True) as adapter:
            result = collect_history(
                adapter, workload, max_inflight=8, on_transaction=count_workers
            )
        assert result.stats.committed == 600
        assert 1 <= peak_workers <= 8
        assert 1 <= adapter.peak <= 8
        assert adapter.opened == 0  # every session was closed by its worker

    def test_no_update_is_lost_across_threads(self):
        # Eight worker threads on fewer cores, switching every few
        # microseconds, share one clock, id and value counter and one
        # column store: a recorder call that is not serialised loses
        # updates, and these invariants see it.
        workload = small_workload(sessions=8, txns=80, objects=20, seed=6)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            result = collect_history(
                SimulatedAdapter("si", op_delay=0.0001), workload, max_inflight=8
            )
        finally:
            sys.setswitchinterval(interval)
        stats = result.stats
        txns = result.history.transactions(include_initial=False)
        assert len(txns) == stats.committed + stats.aborted
        assert len({txn.txn_id for txn in txns}) == len(txns)
        stamps = [stamp for txn in txns for stamp in (txn.start_ts, txn.finish_ts)]
        assert len(set(stamps)) == len(stamps)
        writes = [op.value for txn in txns for op in txn.operations if op.is_write]
        assert len(set(writes)) == len(writes)
        assert stats.operations == sum(len(txn.operations) for txn in txns)


# ----------------------------------------------------------------------
# Adapter equivalence: SimulatedAdapter collection vs the serial runner
# ----------------------------------------------------------------------
class TestAdapterEquivalence:
    @pytest.mark.parametrize(
        "engine, guaranteed",
        [("si", ["SI"]), ("serializable", ["SER", "SI"]), ("s2pl", ["SSER", "SER", "SI"])],
    )
    def test_correct_engines_agree_with_runner_verdicts(self, engine, guaranteed):
        workload = small_workload(sessions=4, txns=30, objects=8, seed=11)
        runner_history = run_workload(
            Database(engine, keys=workload.keys), workload, seed=12
        ).history
        adapter = SimulatedAdapter(engine)
        collected = Collector(adapter).collect(workload).history
        checker = MTChecker()
        for level in guaranteed:
            via_runner = checker.verify(runner_history, LEVELS[level])
            via_adapter = checker.verify(collected, LEVELS[level])
            assert via_runner.satisfied and via_adapter.satisfied, (
                engine,
                level,
                via_runner.violation,
                via_adapter.violation,
            )

    def test_faulty_engine_detected_through_both_paths(self):
        workload = MTWorkloadGenerator(
            num_sessions=6, txns_per_session=40, num_objects=6,
            distribution="zipf", seed=4,
        ).generate()
        faults = FaultPlan.for_anomaly("lostupdate", rate=0.9, seed=4)
        runner_history = run_workload(
            Database("si", keys=workload.keys, faults=faults), workload, seed=5
        ).history
        # op_delay forces threaded transactions to genuinely overlap, so the
        # engine sees the write-write conflicts the fault plan corrupts.
        adapter = SimulatedAdapter(
            "si", faults=FaultPlan.for_anomaly("lostupdate", rate=0.9, seed=4),
            op_delay=0.0002,
        )
        collected = Collector(adapter).collect(workload).history
        assert adapter.database.injected_anomalies.get("lost_update", 0) > 0
        checker = MTChecker()
        assert not checker.verify(runner_history, LEVELS["SI"]).satisfied
        assert not checker.verify(collected, LEVELS["SI"]).satisfied


# ----------------------------------------------------------------------
# Chaos faults and their expected anomaly classes
# ----------------------------------------------------------------------
class TestChaosAdapter:
    def collect_with_chaos(self, fault, *, rate=0.3, seed=5, base="sqlite"):
        workload = small_workload(sessions=4, txns=60, objects=10, seed=3)
        adapter = make_adapter(base, chaos=fault, chaos_rate=rate, seed=seed, wal=True)
        with adapter:
            result = Collector(adapter).collect(workload)
        return adapter, result

    def test_lost_write_produces_a_counterexample_cycle(self):
        adapter, result = self.collect_with_chaos("lost-write")
        assert adapter.injections["lost_write"] > 0
        verdict = MTChecker().verify(result.history, LEVELS["SER"])
        assert not verdict.satisfied
        assert any(v.cycle for v in verdict.violations), "expected a cycle counterexample"
        # A healthy engine whose clients lose writes also breaks SI.
        assert not MTChecker().verify(result.history, LEVELS["SI"]).satisfied

    def test_duplicate_commit_is_flagged_as_aborted_read(self):
        adapter, result = self.collect_with_chaos("duplicate-commit")
        assert adapter.injections["duplicate_commit"] > 0
        verdict = MTChecker().verify(result.history, LEVELS["SER"])
        assert not verdict.satisfied
        assert AnomalyKind.ABORTED_READ in {v.kind for v in verdict.violations}

    def test_stale_read_violates_serializability(self):
        adapter, result = self.collect_with_chaos("stale-read", rate=0.4)
        assert adapter.injections["stale_read"] > 0
        verdict = MTChecker().verify(result.history, LEVELS["SER"])
        assert not verdict.satisfied

    def test_chaos_free_wrapper_is_transparent(self):
        workload = small_workload(sessions=2, txns=20, objects=6)
        adapter = ChaosAdapter(SimulatedAdapter("si"), ChaosPlan())
        result = Collector(adapter).collect(workload)
        assert not adapter.plan.any_enabled
        assert sum(adapter.injections.values()) == 0
        assert MTChecker().verify(result.history, LEVELS["SI"]).satisfied

    def test_unknown_fault_name_rejected(self):
        with pytest.raises(ValueError, match="unknown chaos fault"):
            ChaosPlan.for_fault("bit-flip")

    @pytest.mark.parametrize("rate", [-1.0, 1.5, 5.0, float("nan")])
    def test_rates_outside_zero_one_rejected(self, rate):
        with pytest.raises(ValueError, match=r"is a probability in \[0, 1\]"):
            ChaosPlan.for_fault("lost-write", rate=rate)
        with pytest.raises(ValueError, match="stale_read_rate"):
            ChaosPlan(stale_read_rate=rate)
        assert ChaosPlan(duplicate_commit_rate=1.0).any_enabled


class TestMakeAdapter:
    def test_unknown_adapter_rejected(self):
        with pytest.raises(ValueError, match="unknown adapter"):
            make_adapter("postgres")

    def test_builds_each_registered_adapter(self):
        with make_adapter("sqlite") as sqlite_adapter:
            assert isinstance(sqlite_adapter, SQLiteAdapter)
        assert isinstance(make_adapter("simulated", isolation="s2pl"), SimulatedAdapter)
        assert isinstance(make_adapter("simulated", chaos="lost-write"), ChaosAdapter)
