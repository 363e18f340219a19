"""Tests for the database-adapter subsystem and the concurrent collector.

Covers the adapter protocol over a real engine (SQLite) and the simulator,
the SQLite busy/locked -> retryable-abort mapping, the protocol-boundary
chaos faults on both faces (with their expected anomaly classes), and a
faulty engine detected through both ``AsyncSimulatedAdapter`` and the direct
``workloads/runner.py`` path.
"""

import asyncio
import sqlite3
import sys
import tempfile
import threading

import pytest

from repro.adapters import (
    AdapterAborted,
    AdapterStateError,
    AsyncChaosAdapter,
    AsyncSimulatedAdapter,
    ChaosAdapter,
    ChaosPlan,
    Collector,
    SQLiteAdapter,
    collect_history,
    make_adapter,
)
from repro.core.checker import MTChecker
from repro.core.result import AnomalyKind, IsolationLevel
from repro.db.database import Database
from repro.db.errors import TransactionAborted, retryable_sqlite_abort
from repro.db.faults import FaultPlan
from repro.history import HistoryStreamWriter, load_columns
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
        async def write_once(adapter):
            await adapter.setup(["x"])
            session = await adapter.session(0)
            await session.begin()
            assert await session.read("x") == 0
            await session.write("x", 5)
            await session.commit()
            await session.aclose()

        for engine in ("si", "serializable", "s2pl", "read-committed"):
            adapter = AsyncSimulatedAdapter(engine)
            asyncio.run(write_once(adapter))
            assert adapter.committed_value("x") == 5
            assert adapter.capabilities().name == f"simulated[{adapter.database.isolation_name}]"

    def test_conflict_aborts_surface_as_adapter_aborted(self):
        async def first_committer_wins(adapter):
            await adapter.setup(["x"])
            first, second = await adapter.session(0), await adapter.session(1)
            await first.begin()
            await second.begin()
            assert await first.read("x") == 0
            assert await second.read("x") == 0
            await first.write("x", 1)
            await first.commit()
            await second.write("x", 2)
            await second.commit()

        with pytest.raises(AdapterAborted) as excinfo:
            asyncio.run(first_committer_wins(AsyncSimulatedAdapter("si")))
        assert isinstance(excinfo.value, TransactionAborted)

    def test_operations_outside_transaction_are_state_errors(self):
        async def misuse(adapter):
            session = await adapter.session(0)
            with pytest.raises(AdapterStateError):
                await session.read("x")
            with pytest.raises(AdapterStateError):
                await session.commit()
            await session.begin()
            with pytest.raises(AdapterStateError):
                await session.begin()
            await session.abort()

        asyncio.run(misuse(AsyncSimulatedAdapter("si")))


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
                result = Collector(adapter, on_transaction=writer.write).collect(workload)
        loaded = load_columns(path)
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
        class PermanentlyFailingAdapter(SQLiteAdapter):
            def session(self, session_id):
                session = super().session(session_id)

                def refuse():
                    session.abort()
                    raise AdapterAborted("quota exceeded", retryable=False)

                session.commit = refuse
                return session

        workload = small_workload(sessions=2, txns=5, objects=4)
        with PermanentlyFailingAdapter() as adapter:
            result = Collector(adapter, max_retries=3).collect(workload)
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
        # updates, and these invariants see it.  SQLite releases the GIL
        # inside every statement, so the sessions genuinely interleave.
        workload = small_workload(sessions=8, txns=40, objects=20, seed=6)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with SQLiteAdapter(wal=True) as adapter:
                result = collect_history(adapter, workload, max_inflight=8)
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
# Adapter equivalence: simulator collection vs the serial runner
# ----------------------------------------------------------------------
class TestAdapterEquivalence:
    """Healthy engines through both paths are a route of
    ``tests/test_routes.py::test_collected_histories``."""

    def test_faulty_engine_detected_through_both_paths(self):
        workload = MTWorkloadGenerator(
            num_sessions=6, txns_per_session=40, num_objects=6,
            distribution="zipf", seed=4,
        ).generate()
        faults = FaultPlan.for_anomaly("lostupdate", rate=0.9, seed=4)
        runner_history = run_workload(
            Database("si", keys=workload.keys, faults=faults), workload, seed=5
        ).history
        # op_delay makes coroutine transactions genuinely overlap, so the
        # engine sees the write-write conflicts the fault plan corrupts.
        adapter = AsyncSimulatedAdapter(
            "si", faults=FaultPlan.for_anomaly("lostupdate", rate=0.9, seed=4),
            op_delay=0.0002,
        )
        collected = collect_history(adapter, workload).history
        assert adapter.database.injected_anomalies.get("lost_update", 0) > 0
        checker = MTChecker()
        assert not checker.verify(runner_history, LEVELS["SI"]).satisfied
        assert not checker.verify(collected, LEVELS["SI"]).satisfied


# ----------------------------------------------------------------------
# Chaos faults and their expected anomaly classes
# ----------------------------------------------------------------------
@pytest.mark.parametrize("base", ["sqlite", "simulated"])
class TestChaosAdapter:
    """Each defect through both faces: threads over SQLite, coroutines over
    the simulator."""

    def collect_with_chaos(self, base, fault, *, rate=0.3, seed=5):
        workload = small_workload(sessions=4, txns=60, objects=10, seed=3)
        adapter = make_adapter(base, chaos=fault, chaos_rate=rate, seed=seed, wal=True)
        assert isinstance(adapter, AsyncChaosAdapter if base == "simulated" else ChaosAdapter)
        result = collect_history(adapter, workload)
        if isinstance(adapter, ChaosAdapter):
            adapter.teardown()
        return adapter, result

    def test_lost_write_produces_a_counterexample_cycle(self, base):
        adapter, result = self.collect_with_chaos(base, "lost-write")
        assert adapter.injections["lost_write"] > 0
        verdict = MTChecker().verify(result.history, LEVELS["SER"])
        assert not verdict.satisfied
        assert any(v.cycle for v in verdict.violations), "expected a cycle counterexample"
        # A healthy engine whose clients lose writes also breaks SI.
        assert not MTChecker().verify(result.history, LEVELS["SI"]).satisfied

    def test_duplicate_commit_is_flagged_as_aborted_read(self, base):
        adapter, result = self.collect_with_chaos(base, "duplicate-commit")
        assert adapter.injections["duplicate_commit"] > 0
        verdict = MTChecker().verify(result.history, LEVELS["SER"])
        assert not verdict.satisfied
        assert AnomalyKind.ABORTED_READ in {v.kind for v in verdict.violations}

    def test_stale_read_violates_serializability(self, base):
        adapter, result = self.collect_with_chaos(base, "stale-read", rate=0.4)
        assert adapter.injections["stale_read"] > 0
        verdict = MTChecker().verify(result.history, LEVELS["SER"])
        assert not verdict.satisfied

    def test_chaos_free_wrapper_is_transparent(self, base):
        workload = small_workload(sessions=2, txns=20, objects=6)
        if base == "simulated":
            adapter = AsyncChaosAdapter(AsyncSimulatedAdapter("si"), ChaosPlan())
            result = collect_history(adapter, workload)
        else:
            with ChaosAdapter(SQLiteAdapter(), ChaosPlan()) as adapter:
                result = collect_history(adapter, workload)
        assert not adapter.plan.any_enabled
        assert sum(adapter.injections.values()) == 0
        assert MTChecker().verify(result.history, LEVELS["SI"]).satisfied


class TestChaosPlan:
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

    def test_bad_chaos_rate_leaves_no_database_file(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        with pytest.raises(ValueError, match=r"is a probability in \[0, 1\]"):
            make_adapter("sqlite", chaos="lost-write", chaos_rate=5.0)
        assert list(tmp_path.iterdir()) == []

    def test_builds_each_registered_adapter(self):
        with make_adapter("sqlite") as sqlite_adapter:
            assert isinstance(sqlite_adapter, SQLiteAdapter)
        with make_adapter("sqlite", chaos="lost-write") as chaotic:
            assert isinstance(chaotic, ChaosAdapter)
            assert isinstance(chaotic.inner, SQLiteAdapter)
        simulated = make_adapter("simulated", isolation="s2pl")
        assert isinstance(simulated, AsyncSimulatedAdapter)
        assert simulated.capabilities().supports("SSER")
        chaotic = make_adapter("simulated", chaos="lost-write")
        assert isinstance(chaotic, AsyncChaosAdapter)
        assert isinstance(chaotic.inner, AsyncSimulatedAdapter)
        assert chaotic.capabilities().name == "chaos[simulated[si]]"
