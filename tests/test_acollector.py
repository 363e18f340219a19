"""Tests for the async collection plane (aio adapters + AsyncCollector)
and for ``collect_history``, the one door that picks a collector.

The contract under test: ``collect_history`` sends an adapter to the
collector its kind calls for (chaos-wrapped or not); histories collected by
either are *schedule-valid* (well-formed intervals, per-session ordering,
globally unique written values), while both collectors, recording through
the one ``CollectorBase`` row method, construct zero
``Transaction``/``Operation`` objects on the accept path.  That healthy
engines are accepted across isolation levels and the full ``max_inflight``
range is a route of ``tests/test_routes.py::test_collected_histories``.
"""

import asyncio
import re
import threading

import pytest

from repro import obs
from repro.adapters import (
    AsyncCollector,
    AsyncSimulatedAdapter,
    CollectionResult,
    Collector,
    SQLiteAdapter,
    collect_history,
    make_adapter,
)
from repro.adapters.aio import AsyncAdapterSession, AsyncDatabaseAdapter
from repro.adapters.base import AdapterError
from repro.core import model as core_model
from repro.core.checker import MTChecker
from repro.core.model import Transaction, TransactionStatus
from repro.core.result import IsolationLevel
from repro.history.columnar import ColumnarHistory
from repro.resilience import failpoints
from repro.workloads.mt_generator import MTWorkloadGenerator
from repro.workloads.spec import make_traffic_shape

LEVELS = {
    "SI": IsolationLevel.SNAPSHOT_ISOLATION,
    "SER": IsolationLevel.SERIALIZABILITY,
    "SSER": IsolationLevel.STRICT_SERIALIZABILITY,
}


def small_workload(sessions=6, txns=20, objects=12, seed=3, distribution="uniform"):
    return MTWorkloadGenerator(
        num_sessions=sessions,
        txns_per_session=txns,
        num_objects=objects,
        distribution=distribution,
        seed=seed,
    ).generate()


def assert_schedule_valid(columns: ColumnarHistory) -> None:
    """The recorded history is a well-formed schedule.

    Intervals are positive, a session's transactions never overlap (the
    collectors are one-transaction-at-a-time per session), transaction ids
    are unique, and committed written values are globally unique.
    """
    history = columns.to_history()
    seen_ids = set()
    written = set()
    for session in history.sessions:
        prev_finish = None
        for txn in session.transactions:
            assert txn.txn_id not in seen_ids
            seen_ids.add(txn.txn_id)
            assert txn.start_ts is not None and txn.finish_ts is not None
            assert txn.start_ts < txn.finish_ts
            if prev_finish is not None:
                assert txn.start_ts > prev_finish, (
                    f"T{txn.txn_id} overlaps its session predecessor"
                )
            prev_finish = txn.finish_ts
            if txn.status == TransactionStatus.COMMITTED:
                for op in txn.operations:
                    if op.is_write:
                        assert op.value not in written
                        written.add(op.value)


# ----------------------------------------------------------------------
# One door, two collectors
# ----------------------------------------------------------------------
class TestAsyncThreadedEquivalence:
    """Every collection enters through ``collect_history``; the thread a
    hook runs on shows which collector the adapter was sent to, and both
    return the one result type."""

    def test_the_adapter_kind_picks_the_collector(self, tmp_path):
        workload = small_workload(sessions=3, txns=4)

        def hook_threads(adapter):
            names = set()
            result = collect_history(
                adapter,
                workload,
                on_transaction=lambda _txn: names.add(threading.current_thread().name),
            )
            assert type(result) is CollectionResult, adapter
            return names

        sync_adapters = [
            SQLiteAdapter(str(tmp_path / "door.db")),
            make_adapter("sqlite", chaos="stale-read", chaos_rate=0.1, seed=1),
        ]
        for adapter in sync_adapters:
            with adapter:
                names = hook_threads(adapter)
            assert names and all(n.startswith("collector-worker-") for n in names)
        async_adapters = [
            AsyncSimulatedAdapter("si"),
            make_adapter("simulated", chaos="stale-read", chaos_rate=0.1, seed=1),
        ]
        for adapter in async_adapters:
            names = hook_threads(adapter)
            assert names == {threading.current_thread().name}  # the event loop's
        # Neither collector drives the other kind's adapters.
        with SQLiteAdapter() as sync_adapter:
            with pytest.raises(TypeError, match="goes to Collector"):
                AsyncCollector(sync_adapter)
        with pytest.raises(TypeError, match="goes to AsyncCollector"):
            Collector(AsyncSimulatedAdapter("si"))

    @pytest.mark.parametrize("max_inflight", [1, 8, 256])
    def test_chaos_faults_detected_through_the_door(self, max_inflight):
        # Chaos over the simulator keeps the coroutine face, so the door
        # sends it to the event loop.
        workload = small_workload(sessions=6, txns=30, objects=8, seed=5,
                                  distribution="zipf")
        adapter = make_adapter("simulated", isolation="si", chaos="lost-write",
                               chaos_rate=0.9, seed=5)
        assert isinstance(adapter, AsyncDatabaseAdapter)
        result = collect_history(adapter, workload, max_inflight=max_inflight)
        assert adapter.injections["lost_write"] > 0
        assert_schedule_valid(result.columns)
        assert not MTChecker().verify(result.columns, LEVELS["SER"]).satisfied

    def test_traffic_shapes_apply_to_both_collectors(self):
        workload = small_workload(sessions=6, txns=3, objects=8, seed=2)
        workload.traffic = make_traffic_shape(
            "churn", churn_stagger=0.002, think_time=0.0005, seed=1
        )
        with SQLiteAdapter(wal=True) as adapter:
            threaded = collect_history(adapter, workload)
        asynced = collect_history(AsyncSimulatedAdapter("si"), workload)
        assert threaded.stats.committed == asynced.stats.committed == 18
        assert MTChecker().verify(asynced.columns, LEVELS["SI"]).satisfied


# ----------------------------------------------------------------------
# The object-free accept path
# ----------------------------------------------------------------------
@pytest.fixture(params=["threads", "coroutines"])
def adapter(request, tmp_path):
    """One adapter of each kind: SQLite for the threads, the simulator for
    the coroutines."""
    if request.param == "threads":
        with SQLiteAdapter(str(tmp_path / "threads.db"), wal=True) as sqlite_adapter:
            yield sqlite_adapter
    else:
        yield AsyncSimulatedAdapter("si")


class TestDirectToColumnIngest:
    """One recorder: both collectors append rows straight to the columns."""

    def test_zero_transaction_objects_on_accept_path(self, monkeypatch, adapter):
        constructed = []
        original_txn = Transaction.__init__
        original_op = core_model.Operation.__init__

        def counting_txn(self, *args, **kwargs):
            constructed.append("txn")
            return original_txn(self, *args, **kwargs)

        def counting_op(self, *args, **kwargs):
            constructed.append("op")
            return original_op(self, *args, **kwargs)

        monkeypatch.setattr(Transaction, "__init__", counting_txn)
        monkeypatch.setattr(core_model.Operation, "__init__", counting_op)
        workload = small_workload(sessions=5, txns=8, objects=10, seed=7)
        result = collect_history(adapter, workload, max_inflight=4)
        assert constructed == [], (
            f"{len(constructed)} model objects built on the accept path"
        )
        rows = result.stats.committed + result.stats.aborted + 1
        assert result.columns.num_transactions == rows
        # Materialisation still works after the fact, off the hot path.
        assert len(result.history.transactions()) == rows

    def test_legacy_hook_sees_finish_ordered_transactions(self, adapter):
        seen = []
        workload = small_workload(sessions=12, txns=6, objects=10, seed=3)
        result = collect_history(
            adapter, workload, max_inflight=8, on_transaction=seen.append
        )
        assert all(isinstance(txn, Transaction) for txn in seen)
        finishes = [txn.finish_ts for txn in seen]
        assert finishes == sorted(finishes)
        # Lossless: every recorded row reached the hook once, in row order.
        assert result.columns.num_transactions == len(seen) + 1
        assert seen == list(result.columns.iter_transactions())[1:]
        assert sum(txn.committed for txn in seen) == result.stats.committed
        if isinstance(adapter, AsyncSimulatedAdapter):  # no overlap, no aborts
            assert len(seen) == result.stats.committed == 72


class TestUniqueWrittenValueGuard:
    """Definition 9 is enforced, not assumed: a value issued twice stops
    the run with an error that names it."""

    def test_a_repeated_value_raises_and_names_it(self, adapter):
        workload = small_workload(sessions=4, txns=5, objects=8, seed=11)
        collector_class = AsyncCollector if isinstance(adapter, AsyncDatabaseAdapter) else Collector
        collector = collector_class(adapter, max_inflight=2)
        # Whichever session writes first draws counter 1: make that value a repeat.
        repeats = {session_id * 10_000_000 + 1 for session_id in range(4)}
        collector._issued_values.update(repeats)
        with pytest.raises(AdapterError, match=r"violated: (\d+) issued twice") as excinfo:
            collector.collect(workload)
        named = re.search(r"violated: (\d+) issued twice", str(excinfo.value))
        assert int(named.group(1)) in repeats


# ----------------------------------------------------------------------
# Deadline watchdog
# ----------------------------------------------------------------------
class _HangingSession(AsyncAdapterSession):
    """Wedges forever on the first read; cancellation must unwind it."""

    def __init__(self, inner):
        self._inner = inner

    async def begin(self):
        await self._inner.begin()

    async def read(self, key):
        await asyncio.Event().wait()

    async def write(self, key, value):
        await self._inner.write(key, value)

    async def commit(self):
        await self._inner.commit()

    async def abort(self):
        await self._inner.abort()


class _HangingAdapter(AsyncDatabaseAdapter):
    def __init__(self, hang_session_id=0):
        self._inner = AsyncSimulatedAdapter("si")
        self._hang = hang_session_id

    def capabilities(self):
        return self._inner.capabilities()

    async def session(self, session_id):
        session = await self._inner.session(session_id)
        if session_id == self._hang:
            return _HangingSession(session)
        return session

    async def setup(self, keys, initial_value=0):
        await self._inner.setup(keys, initial_value)


class TestDeadlineWatchdog:
    def test_hung_session_recorded_unknown_and_cancelled(self):
        workload = small_workload(sessions=4, txns=3, objects=8, seed=21)
        with obs.scoped() as reg:
            result = AsyncCollector(
                _HangingAdapter(hang_session_id=0),
                max_inflight=4,
                txn_deadline=0.05,
            ).collect(workload)
        assert result.unknown == 1
        assert reg.value("repro_resilience_deadline_exceeded_total", component="collector") == 1
        history = result.columns.to_history()
        unknown = [
            txn
            for txn in history.transactions()
            if txn.status == TransactionStatus.UNKNOWN
        ]
        assert len(unknown) == 1
        assert unknown[0].session_id == 0
        # The three healthy sessions finished their full quota.
        assert result.stats.committed == 9

    def test_cancelled_worker_moves_on_to_the_next_session(self):
        # One worker for four sessions: the watchdog cancels it inside
        # session 0, and the same worker still runs sessions 1-3.
        result = collect_history(
            _HangingAdapter(hang_session_id=0),
            small_workload(sessions=4, txns=3, objects=8, seed=21),
            max_inflight=1,
            txn_deadline=0.05,
        )
        assert result.unknown == 1
        assert result.stats.committed == 9
        statuses = [txn.status for txn in result.history.sessions[0].transactions]
        assert statuses == [TransactionStatus.UNKNOWN]


# ----------------------------------------------------------------------
# Construction errors
# ----------------------------------------------------------------------
class TestAsyncConstruction:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_inflight": 0},
            {"max_inflight": -3},
            {"txn_deadline": 0},
            {"txn_deadline": -1},
            {"txn_deadline": float("nan")},
        ],
    )
    def test_nonpositive_bounds_rejected(self, kwargs):
        (name,) = kwargs
        with pytest.raises(ValueError, match=f"{name} must be positive"):
            AsyncCollector(AsyncSimulatedAdapter("si"), **kwargs)
        with SQLiteAdapter() as adapter:
            with pytest.raises(ValueError, match=f"{name} must be positive"):
                Collector(adapter, **kwargs)


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestAsyncCLI:
    def run_cli(self, argv, capsys):
        from repro.cli import main

        code = main(argv)
        return code, capsys.readouterr().out

    def test_simulated_collect_runs_coroutine_sessions(self, capsys):
        code, out = self.run_cli(
            ["collect", "--adapter", "simulated", "--sessions", "20",
             "--txns", "3", "--objects", "16", "--max-inflight", "4",
             "--check", "si"],
            capsys,
        )
        assert code == 0
        assert "coroutine sessions" in out
        assert "did not commit" not in out
        assert "SI: SATISFIED" in out

    def test_sync_adapters_run_threaded_sessions(self, capsys, tmp_path):
        code, out = self.run_cli(
            ["collect", "--adapter", "sqlite", "--db-path", str(tmp_path / "t.db"),
             "--sessions", "6", "--txns", "3", "--max-inflight", "2",
             "--check", "ser"],
            capsys,
        )
        assert code == 0
        assert "18 committed" in out and "threaded sessions" in out
        code, out = self.run_cli(
            ["collect", "--adapter", "sqlite", "--chaos", "stale-read",
             "--sessions", "2", "--txns", "2", "--output", str(tmp_path / "c.seg")],
            capsys,
        )
        assert code == 0
        assert "threaded sessions" in out and "injected chaos:" in out

    def test_simulated_chaos_runs_coroutine_sessions(self, capsys, tmp_path):
        # Chaos over the simulator is detected on the coroutine route, and
        # a run that never aborts is byte-identical per seed.
        outputs = []
        for run in range(2):
            path = tmp_path / f"chaos-{run}.seg"
            code, out = self.run_cli(
                ["collect", "--adapter", "simulated", "--chaos", "lost-write",
                 "--chaos-rate", "0.5", "--sessions", "6", "--txns", "20",
                 "--objects", "8", "--seed", "3", "--output", str(path),
                 "--check", "ser"],
                capsys,
            )
            assert code == 1, out
            assert "from chaos[simulated[si]] with 6 coroutine sessions" in out
            assert "injected chaos: {'lost_write':" in out
            assert "SER: VIOLATED" in out
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("flag", ["--async", "--no-bridge"])
    def test_removed_flags_are_refused_by_argparse(self, flag, capsys):
        with pytest.raises(SystemExit) as refused:
            self.run_cli(
                ["collect", flag, "--adapter", "simulated", "--check", "si"], capsys
            )
        assert refused.value.code == 2

    def test_shortfall_is_reported_with_exit_code_unchanged(self, capsys, tmp_path):
        # Three injected commit failures and no retries: 9 of 12 commit.
        with failpoints.scoped("sqlite.commit=3*raise"):
            code, out = self.run_cli(
                ["collect", "--adapter", "sqlite", "--db-path", str(tmp_path / "s.db"),
                 "--sessions", "2", "--txns", "6", "--objects", "4",
                 "--max-retries", "0", "--check", "ser"],
                capsys,
            )
        assert code == 0
        assert "collected 9 committed / 3 aborted" in out
        assert (
            "warning: 3 of 12 planned transactions did not commit "
            "(retries exhausted)"
        ) in out

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["collect", "--sessions", "0", "--txns", "5", "--check", "si"],
             "must be positive"),
            (["collect", "--sessions", "2", "--txns", "-1", "--check", "si"],
             "must be positive"),
            (["collect", "--max-inflight", "0", "--sessions", "2",
              "--txns", "2", "--adapter", "simulated", "--check", "si"],
             "--max-inflight must be positive"),
            (["collect", "--max-inflight", "-1", "--sessions", "2",
              "--txns", "2", "--adapter", "sqlite", "--check", "si"],
             "--max-inflight must be positive"),
            # A deadline of 0 abandoned every session: "SATISFIED (0 transactions)".
            (["collect", "--adapter", "sqlite", "--txn-deadline", "0",
              "--sessions", "2", "--txns", "2", "--check", "ser"],
             "--txn-deadline must be positive"),
            (["collect", "--adapter", "simulated", "--txn-deadline", "-1",
              "--sessions", "2", "--txns", "2", "--check", "ser"],
             "--txn-deadline must be positive"),
            # A negative rate never fired: "none fired" and "SATISFIED".
            (["collect", "--adapter", "simulated", "--chaos", "lost-write",
              "--chaos-rate", "-1", "--check", "ser"],
             "--chaos-rate must be in [0, 1]"),
            (["collect", "--adapter", "sqlite", "--chaos", "stale-read",
              "--chaos-rate", "5", "--check", "ser"],
             "--chaos-rate must be in [0, 1]"),
        ],
    )
    def test_inconsistent_flags_exit_2(self, argv, message, capsys):
        code, out = self.run_cli(argv, capsys)
        assert code == 2
        assert "error:" in out
        assert message in out
