"""Tests for the resilience layer (ISSUE 9).

Covers the four pillars:

* **Failpoints** — grammar, deterministic probabilistic firing, env
  export/re-arm, the zero-overhead disarmed fast path, and the injected
  actions themselves (raise / truncate-then-raise / kill).
* **Policies** — RetryPolicy backoff math and ``run()`` semantics, on a
  fake clock, so the suite runs in microseconds.
* **Fault recovery equivalence** — a SIGKILLed pool worker, a worker
  killed by a failpoint, and an injected SQLite commit failure all
  recover to verdicts identical to the undisturbed run.
* **Durability under injected faults** — the failpoint matrix
  (site x action x raw/gzip) pins the epoch-log contract: recovery
  never loses a *sealed* epoch, and resuming after the fault reaches
  the uninterrupted verdict.  SIGINT / SIGTERM stop a following
  ``repro watch`` with a final checkpoint and the verdict; a fault exits 2
  and the next run resumes to the same verdict.
"""

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from test_epochlog import build_log, make_history, stream_format
from test_scaleout import faulty_composite

from repro import cli, obs
from repro.adapters import collect_history
from repro.adapters.base import (
    AdapterAborted,
    AdapterCapabilities,
    AdapterSession,
    DatabaseAdapter,
)
from repro.adapters.collector import _COMMITTED, _UNKNOWN, Collector
from repro.adapters.sqlite import SQLiteAdapter
from repro.cli import main as repro_main
from repro.core.checker import MTChecker
from repro.core.incremental import stream_order
from repro.core.model import TransactionStatus
from repro.core.result import IsolationLevel
from repro.history.columnar import OP_READ, ColumnarHistory
from repro.history.epochlog import EpochLog, EpochLogWriter
from repro.history.files import write_history
from repro.parallel import check_parallel
from repro.parallel import executor as executor_module
from repro.parallel.executor import shutdown_pool
from repro.resilience import FAILPOINT_SITES, FailpointError, RetryPolicy
from repro.resilience import failpoints
from repro.workloads.mt_generator import MTWorkloadGenerator
from repro.workloads.spec import PlannedOperation, PlannedOpKind, TransactionSpec, Workload

SER = IsolationLevel.SERIALIZABILITY
SI = IsolationLevel.SNAPSHOT_ISOLATION


@pytest.fixture(autouse=True)
def _disarm_failpoints():
    """Every test starts and ends with no plan armed and nothing exported."""
    failpoints.deactivate()
    os.environ.pop(failpoints.ENV_VAR, None)
    os.environ.pop(failpoints.ENV_SEED_VAR, None)
    yield
    failpoints.deactivate()
    os.environ.pop(failpoints.ENV_VAR, None)
    os.environ.pop(failpoints.ENV_SEED_VAR, None)


# ----------------------------------------------------------------------
# Failpoints: grammar, determinism, export
# ----------------------------------------------------------------------
class TestFailpointGrammar:
    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown failpoint site"):
            failpoints.configure("no.such.site=raise")

    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError, match="unknown failpoint action"):
            failpoints.configure("sqlite.commit=explode")

    def test_malformed_clause_rejected(self):
        with pytest.raises(ValueError, match="not SITE=RULE"):
            failpoints.configure("sqlite.commit")

    def test_probability_range_enforced(self):
        with pytest.raises(ValueError, match="not in"):
            failpoints.configure("sqlite.commit=raise@1.5")

    def test_count_must_be_positive(self):
        with pytest.raises(ValueError, match=">= 1"):
            failpoints.configure("sqlite.commit=0*raise")

    def test_count_limits_firing(self):
        with failpoints.scoped("sqlite.commit=2*raise"):
            for _ in range(2):
                with pytest.raises(FailpointError):
                    failpoints.fail_point("sqlite.commit")
            failpoints.fail_point("sqlite.commit")  # disarmed after 2
            assert failpoints.fired("sqlite.commit") == 2

    def test_multi_clause_spec(self):
        spec = "sqlite.commit=1*noop; collector.txn.attempt=noop"
        with failpoints.scoped(spec):
            assert failpoints.active_spec() == spec
            failpoints.fail_point("sqlite.commit")
            failpoints.fail_point("collector.txn.attempt")
            failpoints.fail_point("collector.txn.attempt")
            assert failpoints.fired("sqlite.commit") == 1
            assert failpoints.fired("collector.txn.attempt") == 2

    def test_raise_message_argument(self):
        with failpoints.scoped("sqlite.commit=raise(boom)"):
            with pytest.raises(FailpointError, match="boom"):
                failpoints.fail_point("sqlite.commit")

    def test_injected_error_is_an_oserror(self):
        # Injected faults must travel real IO recovery paths.
        assert issubclass(FailpointError, OSError)

    def _noop_pattern(self, seed, shots=40):
        pattern = []
        with failpoints.scoped("collector.txn.attempt=noop@0.5", seed=seed):
            before = 0
            for _ in range(shots):
                failpoints.fail_point("collector.txn.attempt")
                after = failpoints.fired("collector.txn.attempt")
                pattern.append(after > before)
                before = after
        return pattern

    def test_probabilistic_rules_replay_deterministically(self):
        assert self._noop_pattern(seed=7) == self._noop_pattern(seed=7)
        assert self._noop_pattern(seed=7) != self._noop_pattern(seed=8)
        assert any(self._noop_pattern(seed=7))  # p=0.5 over 40 shots fires

    def test_export_publishes_and_deactivate_retracts(self):
        failpoints.configure("sqlite.commit=1*raise", seed=3, export=True)
        assert os.environ[failpoints.ENV_VAR] == "sqlite.commit=1*raise"
        assert os.environ[failpoints.ENV_SEED_VAR] == "3"
        with pytest.raises(FailpointError):
            failpoints.fail_point("sqlite.commit")
        assert failpoints.fired("sqlite.commit") == 1
        # Re-arming from the env (what pool-worker initializers do) gets
        # a fresh plan with fresh fire counters.
        assert failpoints.activate_from_env()
        assert failpoints.fired("sqlite.commit") == 0
        failpoints.deactivate()
        assert failpoints.ENV_VAR not in os.environ
        assert failpoints.ENV_SEED_VAR not in os.environ
        assert not failpoints.activate_from_env()

    def test_every_registered_site_is_instrumented(self):
        """Each catalogued site appears in a real fail_point() call."""
        import repro

        src_root = os.path.dirname(repro.__file__)
        corpus = ""
        for dirpath, _dirs, files in os.walk(src_root):
            for name in files:
                if name.endswith(".py"):
                    with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                        corpus += fh.read()
        for site in FAILPOINT_SITES:
            assert f'fail_point("{site}"' in corpus, f"site {site} not wired"


class TestFailpointActions:
    def test_truncate_tears_file_then_raises(self, tmp_path):
        victim = tmp_path / "segment.bin"
        victim.write_bytes(b"x" * 100)
        with failpoints.scoped("columnar.segment.write=truncate(30)"):
            with pytest.raises(FailpointError, match="torn write"):
                failpoints.fail_point("columnar.segment.write", path=victim)
        assert victim.stat().st_size == 70

    def test_truncate_never_empties_below_zero(self, tmp_path):
        victim = tmp_path / "tiny.bin"
        victim.write_bytes(b"ab")
        with failpoints.scoped("columnar.segment.write=truncate(99)"):
            with pytest.raises(FailpointError):
                failpoints.fail_point("columnar.segment.write", path=victim)
        assert victim.stat().st_size == 0

    def test_truncate_without_file_still_raises(self, tmp_path):
        with failpoints.scoped("columnar.segment.write=truncate(5)"):
            with pytest.raises(FailpointError):
                failpoints.fail_point(
                    "columnar.segment.write", path=tmp_path / "missing"
                )

    def test_kill_exits_the_process(self):
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "from repro.resilience import failpoints\n"
                "failpoints.configure('sqlite.commit=kill')\n"
                "failpoints.fail_point('sqlite.commit')\n"
                "print('survived')",
            ],
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 137
        assert "survived" not in proc.stdout

    def test_disarmed_fail_point_is_allocation_free(self):
        assert failpoints.active_spec() is None
        blocks = getattr(sys, "getallocatedblocks", None)
        if blocks is None:
            pytest.skip("sys.getallocatedblocks unavailable")

        def hot_loop():
            for _ in range(1000):
                failpoints.fail_point("epochlog.seal.fsync")
                failpoints.fail_point("columnar.segment.load")

        hot_loop()  # warm caches (bytecode, method lookups)
        before = blocks()
        hot_loop()
        delta = blocks() - before
        assert delta < 50, f"disarmed failpoints allocated {delta} blocks"


# ----------------------------------------------------------------------
# Policies: RetryPolicy
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_delay_count_is_attempts_minus_one(self):
        policy = RetryPolicy(max_attempts=5, seed=0)
        assert len(list(policy.delays())) == 4
        assert list(RetryPolicy(max_attempts=1, seed=0).delays()) == []

    def test_deterministic_under_seed(self):
        policy = RetryPolicy(max_attempts=6, seed=None)
        assert list(policy.delays(seed=42)) == list(policy.delays(seed=42))
        assert list(policy.delays(seed=42)) != list(policy.delays(seed=43))

    def test_decorrelated_jitter_respects_bounds(self):
        policy = RetryPolicy(
            max_attempts=50, base_delay=0.01, max_delay=0.3, seed=1
        )
        delays = list(policy.delays())
        assert all(0.01 <= d <= 0.3 for d in delays)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=1.0, max_delay=0.5)

    def test_run_retries_then_succeeds(self):
        sleeps = []
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise OSError("transient")
            return "done"

        policy = RetryPolicy(max_attempts=4, base_delay=0.1, seed=3)
        result = policy.run(flaky, retry_on=OSError, sleep=sleeps.append)
        assert result == "done"
        assert len(attempts) == 3
        assert sleeps == list(policy.delays())[:2]

    def test_run_exhausts_budget_and_raises_last_error(self):
        policy = RetryPolicy(max_attempts=3, base_delay=0.0, seed=0)
        attempts = []

        def always_fails():
            attempts.append(1)
            raise OSError("permanent")

        with pytest.raises(OSError, match="permanent"):
            policy.run(always_fails, sleep=lambda _d: None)
        assert len(attempts) == 3

    def test_run_should_retry_veto_propagates_immediately(self):
        policy = RetryPolicy(max_attempts=5, seed=0)
        attempts = []

        def fails():
            attempts.append(1)
            raise OSError("not worth retrying")

        with pytest.raises(OSError):
            policy.run(
                fails, should_retry=lambda _exc: False, sleep=lambda _d: None
            )
        assert len(attempts) == 1


# ----------------------------------------------------------------------
# Failpoint matrix: the epoch log never loses a sealed epoch
# ----------------------------------------------------------------------
WRITE_PATH_SITES = [
    "epochlog.seal.tmp_write",
    "epochlog.seal.fsync",
    "epochlog.seal.rename",
    "epochlog.manifest.commit",
    "epochlog.manifest.fsync",
    "columnar.segment.write",
]


@pytest.mark.parametrize("compress", [False, True], ids=["raw", "gzip"])
@pytest.mark.parametrize("action", ["raise", "truncate(9)"])
@pytest.mark.parametrize("site", WRITE_PATH_SITES)
class TestFailpointMatrix:
    def test_injected_fault_never_loses_a_sealed_epoch(
        self, tmp_path, site, action, compress
    ):
        history = make_history(5)
        clean = build_log(
            tmp_path / "clean.epochs", history, compress=compress
        )
        clean_verdict = stream_format(clean, SER)
        txns = list(stream_order(history))

        fault_dir = tmp_path / "fault.epochs"
        # The second seal faults (1*skip via count would need a skip rule;
        # instead let the very first firing hit, which is the hardest
        # case for tmp-file orphans), then the rule disarms.
        with failpoints.scoped(f"{site}=1*{action}"):
            try:
                with EpochLogWriter(
                    fault_dir, epoch_transactions=10, compress=compress
                ) as writer:
                    for txn in txns:
                        writer.append(txn)
            except OSError:
                pass  # the injected fault, surfacing exactly like real IO
            assert failpoints.fired(site) == 1

        # Recovery accepts only intact sealed epochs — a clean prefix of
        # the uninterrupted log — and sweeps any staged temp file.
        recovered = EpochLog.open(fault_dir)
        assert len(recovered) <= len(clean)
        assert [e.transactions for e in recovered.epochs] == [
            e.transactions for e in clean.epochs[: len(recovered)]
        ]
        assert not list(fault_dir.glob(".*.tmp"))

        # Resume from the durable prefix: append what recovery reports as
        # missing.  No sealed transaction is lost, none is duplicated, and
        # the stream verdict matches the uninterrupted run.
        done = sum(e.transactions for e in recovered.epochs)
        with EpochLogWriter(
            fault_dir, epoch_transactions=10, compress=compress
        ) as writer:
            for txn in txns[done:]:
                writer.append(txn)
        resumed = EpochLog.open(fault_dir)
        assert sum(e.transactions for e in resumed.epochs) == len(txns)
        assert stream_format(resumed, SER) == clean_verdict


# ----------------------------------------------------------------------
# Executor: killed workers recover to the inline verdict
# ----------------------------------------------------------------------
@pytest.mark.parametrize("level", [SER, SI])
class TestExecutorRecovery:
    def test_sigkilled_worker_recovers_to_serial_verdict(self, monkeypatch, level):
        monkeypatch.setattr(executor_module, "_cpu_count", lambda: 2)
        monkeypatch.setattr(executor_module, "_MIN_POOL_TXNS", 0)
        history = faulty_composite()
        serial = check_parallel(history, level, workers=1).format()
        shutdown_pool()
        # Worker-only delay rule (exported, parent unarmed): keeps shard
        # tasks in flight long enough to SIGKILL a worker mid-dispatch.
        monkeypatch.setenv(
            failpoints.ENV_VAR, "executor.shard.task=delay(0.15)"
        )
        outcome = {}

        def run():
            with obs.scoped() as reg:
                outcome["result"] = check_parallel(history, level, workers=2)
            outcome["effective"] = reg.value("repro_executor_workers_effective")

        thread = threading.Thread(target=run)
        thread.start()
        victim = None
        deadline = time.monotonic() + 15.0
        while victim is None and time.monotonic() < deadline:
            pool = executor_module._POOL
            if pool is not None and pool._processes:
                victim = next(iter(pool._processes))
            time.sleep(0.005)
        try:
            if victim is not None:
                try:
                    os.kill(victim, signal.SIGKILL)
                except ProcessLookupError:
                    pass  # worker already finished: degenerate but valid
            thread.join(120)
            assert not thread.is_alive()
            assert victim is not None
            assert outcome["effective"] == 2
            assert outcome["result"].format() == serial
        finally:
            shutdown_pool()

    def test_worker_killed_by_failpoint_falls_back_inline(self, monkeypatch, level):
        monkeypatch.setattr(executor_module, "_cpu_count", lambda: 2)
        monkeypatch.setattr(executor_module, "_MIN_POOL_TXNS", 0)
        history = faulty_composite()
        serial = check_parallel(history, level, workers=1).format()
        shutdown_pool()
        # Every worker process dies on its first shard task (fresh fire
        # counter per worker via the pool initializer); the parent stays
        # unarmed, so the inline completion path is clean.
        monkeypatch.setenv(failpoints.ENV_VAR, "executor.shard.task=1*kill")
        try:
            with obs.scoped() as reg:
                result = check_parallel(history, level, workers=2)
            assert reg.value("repro_executor_workers_effective") == 2
            # One fault, one teardown: the shards left finish inline.
            assert reg.value("repro_resilience_pool_faults_total", kind="broken") == 1
            assert executor_module._POOL is None
            assert result.format() == serial
        finally:
            shutdown_pool()


# ----------------------------------------------------------------------
# Collector: injected commit failures and hung adapters
# ----------------------------------------------------------------------
class _HangingSession(AdapterSession):
    """Commits block on an event — a wedged server connection — or, while
    ``aborts`` lasts, a healthy session's commit aborts (retryable)."""

    def __init__(self, release, hang, aborts):
        self._release = release
        self._hang = hang
        self._aborts = aborts

    def begin(self):
        pass

    def read(self, key):
        return 0

    def write(self, key, value):
        pass

    def commit(self):
        if self._hang:
            self._release.wait(timeout=30.0)
        elif self._aborts > 0:
            self._aborts -= 1
            raise AdapterAborted("injected abort", retryable=True)

    def abort(self):
        pass

    def close(self):
        pass


class _HangingAdapter(DatabaseAdapter):
    """Session 0 hangs at its first commit; other sessions are healthy."""

    def __init__(self, release, aborts_per_session=0):
        self._release = release
        self._aborts = aborts_per_session

    def capabilities(self):
        return AdapterCapabilities(
            name="hanging", isolation_levels=("SER",), real_time=True
        )

    def session(self, session_id):
        return _HangingSession(self._release, session_id == 0, self._aborts)

    def setup(self, keys, initial_value=0):
        pass

    def teardown(self):
        pass


class TestCollectorResilience:
    def _workload(self, sessions=2, txns=3):
        specs = [
            [
                TransactionSpec([PlannedOperation(PlannedOpKind.READ, "k"), PlannedOperation(PlannedOpKind.WRITE, "k")])
                for _ in range(txns)
            ]
            for _ in range(sessions)
        ]
        return Workload(sessions=specs, keys=["k"])

    def test_hung_adapter_surfaces_unknown_and_completes(self):
        release = threading.Event()
        try:
            collector = Collector(
                _HangingAdapter(release), txn_deadline=0.2, setup_keys=False
            )
            started = time.monotonic()
            with obs.scoped() as reg:
                result = collector.collect(self._workload())
            elapsed = time.monotonic() - started
        finally:
            release.set()  # unblock the abandoned daemon thread
        assert elapsed < 10.0  # the run completed; it did not block forever
        assert result.unknown == 1
        assert reg.value("repro_resilience_deadline_exceeded_total", component="collector") == 1
        statuses = [
            txn.status
            for session in result.history.sessions
            for txn in session.transactions
        ]
        assert statuses.count(TransactionStatus.UNKNOWN) == 1
        # UNKNOWN outcomes are conservative: the checker runs and reasons
        # only about committed transactions, skipping the abandoned one.
        # (The fake adapter is not a coherent engine, so the *verdict* is
        # meaningless here — only the accounting is under test.)
        verdict = MTChecker().verify(result.history, SER)
        committed = statuses.count(TransactionStatus.COMMITTED)
        assert verdict.num_transactions == committed

    def test_unknown_transactions_never_retried_or_double_recorded(self):
        release = threading.Event()
        try:
            collector = Collector(
                _HangingAdapter(release),
                txn_deadline=0.2,
                setup_keys=False,
                max_retries=5,
            )
            result = collector.collect(self._workload(sessions=1, txns=4))
            # Give the abandoned thread a chance to misbehave before the
            # assertions (it must go silent instead).
            release.set()
            time.sleep(0.2)
        finally:
            release.set()
        txns = result.history.sessions[0].transactions
        assert [t.status for t in txns].count(TransactionStatus.UNKNOWN) == 1
        # The hung session recorded exactly one transaction (the UNKNOWN
        # one): nothing after it, no duplicate of it.
        assert len(txns) == 1

    def test_hung_session_costs_the_pool_no_worker(self):
        """``max_inflight=1``: the only worker wedges in session 0; the
        monitor replaces it, so every other session still runs to quota."""
        release = threading.Event()
        seen = []
        try:
            collector = Collector(
                _HangingAdapter(release),
                txn_deadline=0.2,
                setup_keys=False,
                max_inflight=1,
                on_transaction=seen.append,
            )
            result = collector.collect(self._workload(sessions=4, txns=3))
            recorded = len(seen)
            release.set()  # the hung commit now "lands", late
            time.sleep(0.2)
        finally:
            release.set()
        assert result.unknown == 1
        statuses = [
            [txn.status for txn in session.transactions]
            for session in result.history.sessions
        ]
        assert statuses[0] == [TransactionStatus.UNKNOWN]
        assert statuses[1:] == [[TransactionStatus.COMMITTED] * 3] * 3
        assert result.stats.committed == 9
        assert len(seen) == recorded == 10  # the late finish recorded nothing

    def test_recorded_columns_equal_the_object_route(self):
        """The threaded collector records rows, not objects: with aborts
        and a hung session its columns are, column for column, what
        encoding its history (the route before one recorder) gives."""
        release = threading.Event()
        try:
            result = collect_history(
                _HangingAdapter(release, aborts_per_session=1),
                self._workload(sessions=4, txns=3),
                txn_deadline=0.2,
                setup_keys=False,
                max_inflight=1,
            )
            release.set()  # the hung commit lands late and must add no row
            time.sleep(0.2)
        finally:
            release.set()
        assert result.unknown == 1
        assert result.stats.aborted == 3 and result.stats.committed == 9
        expected = ColumnarHistory.from_history(result.history)
        assert result.columns.to_wire() == expected.to_wire()

    def test_an_attempt_that_already_finished_is_not_abandoned(self):
        # The watchdog snapshots hung attempts, then claims them one by
        # one; an attempt that recorded itself in between must not also be
        # recorded UNKNOWN (one txn id twice is a malformed history).
        collector = Collector(_HangingAdapter(threading.Event()), txn_deadline=0.2)
        collector._open_run(["k"])
        attempt = collector._begin(0, [OP_READ], ["k"], threading.current_thread())
        attempt.values.append(0)
        assert collector._record(attempt, _COMMITTED) is True
        assert collector._record(attempt, _UNKNOWN) is False
        assert collector._columns.num_transactions == 2  # ⊥T and the commit
        assert not collector._abandoned and not collector._in_flight

    def test_injected_sqlite_commit_failures_are_retried(self, tmp_path):
        workload = MTWorkloadGenerator(
            num_sessions=2, txns_per_session=6, num_objects=4, seed=3
        ).generate()
        adapter = SQLiteAdapter(str(tmp_path / "chaos.sqlite3"))
        with failpoints.scoped("sqlite.commit=3*raise"):
            with adapter:
                result = Collector(adapter, max_retries=4).collect(workload)
            assert failpoints.fired("sqlite.commit") == 3
        # Every injected abort was retried to a commit: nothing lost.
        assert result.stats.committed == workload.num_transactions
        assert result.stats.retries >= 3
        assert MTChecker().verify(result.history, SER).satisfied


# ----------------------------------------------------------------------
# Stopping and restarting `repro watch`
# ----------------------------------------------------------------------
class TestWatchStopAndRestart:
    """SIGINT / SIGTERM stop a following `watch` at a segment boundary with
    a final checkpoint and the verdict; a fault exits 2, and restarting is
    running `watch` again, which resumes from the newest checkpoint."""

    def _epochlog(self, tmp_path, seed=5):
        history = make_history(seed)
        directory = tmp_path / "watch.epochs"
        build_log(directory, history)
        return directory, stream_format(EpochLog.open(directory), SI)

    def _spawn_watch(self, *argv, interval="0.05"):
        def default_signals():  # not an ignored SIGINT inherited from a `&` job
            for signum in (signal.SIGINT, signal.SIGTERM):
                signal.signal(signum, signal.SIG_DFL)

        src = Path(__file__).resolve().parent.parent / "src"
        return subprocess.Popen(
            [sys.executable, "-m", "repro", "watch", "--level", "si", "--interval", interval, *map(str, argv)],
            env={**os.environ, "PYTHONPATH": str(src)},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            preexec_fn=default_signals,
        )

    def _signal_once(self, proc, signum, ready):
        """Send ``signum`` once ``ready()`` holds (the follow loop runs);
        return ``(exit code, stdout, stderr)``."""
        deadline = time.monotonic() + 60
        while not ready():
            assert proc.poll() is None, proc.communicate()
            assert time.monotonic() < deadline, "watch never reached its follow loop"
            time.sleep(0.02)
        proc.send_signal(signum)
        out, err = proc.communicate(timeout=60)
        return proc.returncode, out, err

    @pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT], ids=["SIGTERM", "SIGINT"])
    def test_signal_stops_a_following_epoch_log_watch(self, signum, tmp_path, capsys):
        directory, _expected = self._epochlog(tmp_path)
        proc = self._spawn_watch("--checkpoint-every", "2", directory)
        code, out, err = self._signal_once(
            proc, signum, lambda: any(directory.glob("checkpoint-*.ckpt"))
        )
        assert code == 0, (out, err)
        assert "Traceback" not in out + err
        stop, verdict = out.splitlines()[-2:]
        assert stop.startswith("stop requested; exiting at epoch boundary ")
        assert verdict.startswith("SI: SATISFIED")  # over the epochs verified so far
        position = int(stop.rsplit(" ", 1)[1])
        assert EpochLog.open(directory).latest_checkpoint().epochs == position
        # The rerun resumes there and reaches the uninterrupted verdict.
        assert repro_main(["watch", "--level", "si", "--once", "--checkpoint-every", "2", str(directory)]) == 0
        resumed = capsys.readouterr().out
        assert resumed.startswith(f"resumed from checkpoint: {position} epochs")
        assert repro_main(["watch", "--level", "si", "--once", "--no-resume", str(directory)]) == 0
        assert resumed.splitlines()[-1] == capsys.readouterr().out.splitlines()[-1]

    def test_sigint_stops_a_following_jsonl_watch(self, tmp_path, capsys):
        stream = tmp_path / "history.jsonl"
        write_history(make_history(5), stream)
        metrics = tmp_path / "watch.prom"
        proc = self._spawn_watch("--metrics-file", metrics, "--metrics-every", "0", stream)
        code, out, err = self._signal_once(proc, signal.SIGINT, metrics.exists)
        assert code == 0, (out, err)
        assert "Traceback" not in out + err
        assert repro_main(["watch", "--level", "si", "--once", str(stream)]) == 0
        stop, verdict = out.splitlines()[-2:]
        assert verdict == capsys.readouterr().out.splitlines()[-1]
        # A stream has no epochs: the stop names the transactions the verdict covers.
        verified = int(verdict.split("(", 1)[1].split()[0])
        assert stop == f"stop requested; exiting after {verified} transactions"

    def test_a_stop_ends_the_wait_between_polls(self, tmp_path):
        # Drained, the loop waits --interval (30 s) before it looks again;
        # SIGTERM ends that wait at once, with the verdict and exit 0.
        directory, _expected = self._epochlog(tmp_path)
        proc = self._spawn_watch("--checkpoint-every", "2", directory, interval="30")
        deadline = time.monotonic() + 60
        while not any(directory.glob("checkpoint-*.ckpt")):
            assert proc.poll() is None, proc.communicate()
            assert time.monotonic() < deadline, "watch never reached its follow loop"
            time.sleep(0.02)
        time.sleep(0.5)  # the log is complete: the loop drains it and waits
        signalled = time.monotonic()
        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=60)
        assert time.monotonic() - signalled < 5, (out, err)
        assert proc.returncode == 0, (out, err)
        stop, verdict = out.splitlines()[-2:]
        assert stop.startswith("stop requested; exiting at epoch boundary ")
        assert verdict.startswith("SI: SATISFIED")

    def test_stop_flushes_the_verified_prefix_and_restores_handlers(self, tmp_path, capsys, monkeypatch):
        # In process: SIGTERM arrives while the first epoch is ingested.  The
        # handler outside `watch` only records, so a watch that routed no
        # signal fails here instead of ending the test run.
        directory, expected = self._epochlog(tmp_path)
        outside = []

        def guard(signum, _frame):
            outside.append(signum)

        ingest = cli._ingest_epoch

        def ingest_then_sigterm(*args):
            os.kill(os.getpid(), signal.SIGTERM)
            return ingest(*args)

        monkeypatch.setattr(cli, "_ingest_epoch", ingest_then_sigterm)
        previous = signal.signal(signal.SIGTERM, guard)
        try:
            code = repro_main(["watch", "--level", "si", "--checkpoint-every", "2", str(directory)])
            assert signal.getsignal(signal.SIGTERM) is guard
        finally:
            signal.signal(signal.SIGTERM, previous)
        monkeypatch.undo()
        out = capsys.readouterr().out
        assert (code, outside) == (0, [])
        assert out.splitlines()[0] == "stop requested; exiting at epoch boundary 1"
        assert EpochLog.open(directory).latest_checkpoint().epochs == 1
        assert repro_main(["watch", "--level", "si", "--once", "--checkpoint-every", "2", str(directory)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("resumed from checkpoint: 1 epochs")
        assert out.endswith(expected + "\n")

    def test_an_ignored_sigint_stays_ignored(self, tmp_path, capsys, monkeypatch):
        # A `&` job in a shell script: the terminal's Ctrl-C is not for it.
        directory, expected = self._epochlog(tmp_path)
        ingest = cli._ingest_epoch

        def ingest_then_sigint(*args):
            os.kill(os.getpid(), signal.SIGINT)
            return ingest(*args)

        monkeypatch.setattr(cli, "_ingest_epoch", ingest_then_sigint)
        previous = signal.signal(signal.SIGINT, signal.SIG_IGN)
        try:
            code = repro_main(["watch", "--level", "si", "--once", str(directory)])
            assert signal.getsignal(signal.SIGINT) is signal.SIG_IGN
        finally:
            signal.signal(signal.SIGINT, previous)
        assert (code, capsys.readouterr().out) == (0, expected + "\n")

    def test_watch_off_the_main_thread_routes_no_signals(self, tmp_path, capsys):
        directory, expected = self._epochlog(tmp_path)
        codes = []
        worker = threading.Thread(target=lambda: codes.append(repro_main(["watch", "--level", "si", "--once", str(directory)])))
        worker.start()
        worker.join(60)
        assert codes == [0]
        assert capsys.readouterr().out == expected + "\n"

    def test_a_fault_exits_2_and_the_next_run_resumes(self, tmp_path, capsys, monkeypatch):
        directory, expected = self._epochlog(tmp_path)
        metrics = tmp_path / "watch.prom"
        save = EpochLog.save_checkpoint

        def save_then_arm(log, *args, **kwargs):
            save(log, *args, **kwargs)  # the first cadence checkpoint, then a load fault
            failpoints.configure("columnar.segment.load=1*raise")

        monkeypatch.setattr(EpochLog, "save_checkpoint", save_then_arm)
        code = repro_main(
            ["watch", "--level", "si", "--once", "--checkpoint-every", "2",
             "--metrics-file", str(metrics), str(directory)]
        )
        monkeypatch.undo()
        assert code == 2
        out = capsys.readouterr().out
        assert [line for line in out.splitlines() if line.startswith("error:")] == [
            "error: injected failure at failpoint 'columnar.segment.load'"
        ]
        assert "Traceback" not in out
        scrape = obs.parse_textfile(metrics.read_text())
        assert scrape['repro_resilience_failpoints_fired_total{site="columnar.segment.load"}'] == 1
        assert EpochLog.open(directory).latest_checkpoint().epochs == 2
        failpoints.deactivate()
        assert repro_main(["watch", "--level", "si", "--once", "--checkpoint-every", "2", str(directory)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("resumed from checkpoint: 2 epochs")
        assert out.endswith(expected + "\n")
