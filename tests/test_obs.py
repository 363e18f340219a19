"""Tests for the telemetry subsystem (:mod:`repro.obs`).

Covers the registry wire format (merge associativity, worker snapshot
folding), the disabled-mode fast path (no allocation), the Prometheus
textfile writer (atomic under a concurrent reader), the JSONL trace
reader (torn-final-line tolerance), ``verify(report=True)``, and the CLI
surfaces (``--metrics-file``, ``--trace``, ``check -v``, and the
checkpoint flush on an abnormal watch exit).
"""

import json
import os
import sys
import threading
import time

import pytest

from repro import MTChecker, IsolationLevel, obs
from repro.cli import main
from repro.core.anomalies import anomaly_history
from repro.obs.metrics import MetricsRegistry, series_name
from repro.parallel import check_parallel


@pytest.fixture(autouse=True)
def _clean_telemetry():
    """Telemetry is process-global state: never leak across tests."""
    obs.disable()
    obs.stop_trace()
    yield
    obs.disable()
    obs.stop_trace()


def _sample_registry(seed: int) -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.inc("repro_executor_checks_total", seed)
    reg.inc("repro_resilience_pool_faults_total", seed + 1, kind="broken")
    reg.set_gauge("repro_executor_shards", seed * 10)
    reg.observe("repro_phase_seconds", 0.01 * seed, phase="index_build")
    reg.observe("repro_phase_seconds", 3.0, phase="index_build")
    return reg


class TestRegistry:
    def test_counters_gauges_histograms_roundtrip(self):
        reg = _sample_registry(2)
        assert reg.value("repro_executor_checks_total") == 2
        assert reg.value("repro_resilience_pool_faults_total", kind="broken") == 3
        assert reg.value("repro_executor_shards") == 20
        hist = reg.snapshot()["histograms"][series_name("repro_phase_seconds", {"phase": "index_build"})]
        assert hist["count"] == 2 and hist["sum"] == pytest.approx(3.02)

    def test_merge_is_associative(self):
        snaps = [_sample_registry(s).snapshot() for s in (1, 2, 3)]

        left = MetricsRegistry()
        left.merge(snaps[0])
        left.merge(snaps[1])
        right = MetricsRegistry()
        right.merge(snaps[1])
        right.merge(snaps[2])

        ab_c = MetricsRegistry()
        ab_c.merge(left.snapshot())
        ab_c.merge(snaps[2])
        a_bc = MetricsRegistry()
        a_bc.merge(snaps[0])
        a_bc.merge(right.snapshot())

        assert ab_c.snapshot() == a_bc.snapshot()
        # ... and equals the flat fold.
        flat = MetricsRegistry()
        for snap in snaps:
            flat.merge(snap)
        assert flat.snapshot() == ab_c.snapshot()

    def test_merge_semantics(self):
        reg = MetricsRegistry()
        reg.inc("repro_executor_checks_total", 5)
        reg.set_gauge("repro_executor_shards", 99)
        reg.merge(_sample_registry(1).snapshot())
        # Counters add; gauges are last-write-wins.
        assert reg.value("repro_executor_checks_total") == 6
        assert reg.value("repro_executor_shards") == 10

    def test_merge_rejects_foreign_snapshots(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="metrics snapshot"):
            reg.merge({"format": "somebody-elses-v9", "counters": {}})

    def test_merge_rejects_mismatched_histogram_bounds(self):
        a = MetricsRegistry()
        a.observe("repro_phase_seconds", 0.1, phase="x")
        b = MetricsRegistry()
        b.observe("repro_phase_seconds", 0.1, buckets=(1.0, 2.0), phase="x")
        a_snap = a.snapshot()
        with pytest.raises(ValueError, match="bucket bounds differ"):
            b.merge(a_snap)

    def test_scoped_folds_into_parent(self):
        parent = obs.enable(fresh=True)
        with obs.scoped() as child:
            obs.inc("repro_executor_checks_total")
            assert obs.registry() is child
        assert obs.registry() is parent
        assert parent.value("repro_executor_checks_total") == 1


class TestDisabledFastPath:
    def test_disabled_recording_is_allocation_free(self):
        assert not obs.enabled()
        blocks = getattr(sys, "getallocatedblocks", None)
        if blocks is None:
            pytest.skip("sys.getallocatedblocks unavailable")

        def hot_loop():
            for _ in range(1000):
                obs.inc("repro_collector_txns_total")
                obs.set_gauge("repro_watch_epoch_lag", 3)
                obs.observe("repro_phase_seconds", 0.1)
                with obs.phase("ingest"):
                    pass

        hot_loop()  # warm caches (bytecode, method lookups)
        before = blocks()
        hot_loop()
        delta = blocks() - before
        assert delta < 50, f"disabled-mode telemetry allocated {delta} blocks"

    def test_phase_returns_shared_null_context(self):
        assert obs.phase("a") is obs.phase("b")


class TestTextfile:
    def test_render_exposes_whole_catalog_with_zero_fill(self):
        text = obs.render(MetricsRegistry())
        for family, (kind, _help) in obs.METRIC_CATALOG.items():
            assert f"# TYPE {family} {kind}" in text
        parsed = obs.parse_textfile(text)
        assert parsed["repro_executor_checks_total"] == 0

    def test_every_catalog_family_is_named_by_a_test(self):
        # The catalog audit: a family that no test names is unchecked or dead.
        from pathlib import Path

        tests = "".join(path.read_text(encoding="utf-8") for path in Path(__file__).parent.glob("test_*.py"))
        assert [family for family in obs.METRIC_CATALOG if family not in tests] == []

    def test_histogram_expansion(self):
        reg = MetricsRegistry()
        reg.observe("repro_phase_seconds", 0.01, phase="merge")
        parsed = obs.parse_textfile(obs.render(reg))
        assert parsed['repro_phase_seconds_count{phase="merge"}'] == 1
        assert parsed['repro_phase_seconds_bucket{le="+Inf",phase="merge"}'] == 1
        # Cumulative: every bucket at or above 0.025 saw the sample.
        assert parsed['repro_phase_seconds_bucket{le="0.025",phase="merge"}'] == 1
        assert parsed['repro_phase_seconds_bucket{le="0.001",phase="merge"}'] == 0

    def test_atomic_rewrite_under_concurrent_reader(self, tmp_path):
        path = str(tmp_path / "metrics.prom")
        reg = MetricsRegistry()
        obs.write_textfile(path, reg)
        stop = threading.Event()
        failures = []

        def writer():
            n = 0
            while not stop.is_set():
                reg.inc("repro_executor_checks_total")
                reg.observe("repro_phase_seconds", 0.001, phase="x")
                obs.write_textfile(path, reg)
                n += 1
            return n

        thread = threading.Thread(target=writer, daemon=True)
        thread.start()
        deadline = time.monotonic() + 1.0
        reads = 0
        try:
            while time.monotonic() < deadline:
                with open(path, encoding="utf-8") as fh:
                    text = fh.read()
                try:
                    parsed = obs.parse_textfile(text)
                except ValueError as exc:  # pragma: no cover - the failure mode
                    failures.append(str(exc))
                    break
                # A torn write would lose the tail families.
                if "repro_watch_heartbeats_total" not in parsed:
                    failures.append("scrape saw a partial file")
                    break
                reads += 1
        finally:
            stop.set()
            thread.join(timeout=5)
        assert not failures, failures[0]
        assert reads > 0


def test_obs_imports_no_history():
    """``repro.history`` builds on ``repro.obs``, never the other way round:
    the textfile's atomic publish comes from ``repro.ondisk``, below both."""
    import ast
    from pathlib import Path

    for module in sorted(Path(obs.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = [("." * node.level) + (node.module or "")]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            for name in names:
                assert name.lstrip(".").split(".")[0] != "history", (module.name, name)
                assert not name.startswith("repro.history"), (module.name, name)


class TestTrace:
    def test_spans_nest_and_parent_per_thread(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        writer = obs.TraceWriter(path)
        with writer.span("outer"):
            with writer.span("inner", detail=7):
                pass
        writer.close()
        records = {r["name"]: r for r in obs.iter_trace(path)}
        assert records["outer"]["parent"] is None
        assert records["inner"]["parent"] == records["outer"]["id"]
        assert records["inner"]["detail"] == 7
        assert records["inner"]["dur"] >= 0

    def test_torn_final_line_is_tolerated(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        good = json.dumps({"name": "a", "id": 1, "parent": None, "ts": 0.0, "dur": 0.1})
        path.write_text(good + "\n" + '{"name": "torn", "id"')
        records = list(obs.iter_trace(str(path)))
        assert [r["name"] for r in records] == ["a"]

    def test_malformed_interior_line_raises(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        good = json.dumps({"name": "a", "id": 1, "parent": None, "ts": 0.0, "dur": 0.1})
        path.write_text("not json at all\n" + good + "\n")
        with pytest.raises(ValueError, match="malformed trace record at line 1"):
            list(obs.iter_trace(str(path)))

    def test_error_field_recorded_on_exception(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        writer = obs.TraceWriter(path)
        with pytest.raises(RuntimeError):
            with writer.span("failing"):
                raise RuntimeError("boom")
        writer.close()
        (record,) = obs.iter_trace(path)
        assert record["error"] == "RuntimeError"


class TestWorkerMetrics:
    def _disjoint_history(self, shards=4, txns=6):
        from repro.bench import make_disjoint_history

        return make_disjoint_history(
            num_groups=shards, sessions_per_group=2, txns_per_session=txns,
            keys_per_group=4,
        )

    def test_merged_registry_equals_sum_of_worker_snapshots(self):
        from repro.core.index import HistoryIndex

        history = self._disjoint_history()
        committed = len(history.committed_transactions(include_initial=False))
        with obs.scoped() as reg:
            result = check_parallel(
                history, IsolationLevel.SERIALIZABILITY, workers=4
            )
        assert result.satisfied
        shards = int(reg.value("repro_executor_shards"))
        assert shards > 1
        # Every shard shipped a snapshot and the parent folded them all:
        # the merged counters are exactly the sums over the workers.
        assert reg.value("repro_executor_shard_checks_total") == shards
        assert reg.value("repro_executor_shard_txns_total") == committed
        # The parent's own numbers for the call: it built the index, once,
        # and pickled every payload to size it.
        assert reg.value("repro_executor_index_build_seconds") > 0
        assert reg.value("repro_executor_payload_bytes") > 0
        assert reg.value("repro_executor_payload_bytes_total") == reg.value(
            "repro_executor_payload_bytes"
        )
        with obs.scoped() as reg:
            check_parallel(
                history, IsolationLevel.SERIALIZABILITY, index=HistoryIndex.build(history)
            )
        assert reg.value("repro_executor_index_build_seconds") is None  # not built here

    def test_run_shard_ships_snapshot_only_when_asked(self):
        from repro.core.index import HistoryIndex
        from repro.parallel.executor import make_payload, _run_shard
        from repro.parallel.partition import partition_columns

        index = HistoryIndex.build(self._disjoint_history(shards=2))
        shards = partition_columns(index.columns, index=index)
        assert len(shards) == 2 and all(s.columns is not None for s in shards)
        plain = _run_shard(make_payload(shards[0], IsolationLevel.SERIALIZABILITY))
        assert plain.metrics is None
        shipped = [
            _run_shard(make_payload(shard, IsolationLevel.SERIALIZABILITY, with_metrics=True))
            for shard in shards
        ]
        merged = MetricsRegistry()
        for outcome in shipped:
            assert outcome.metrics is not None
            merged.merge(outcome.metrics)
        assert merged.value("repro_executor_shard_checks_total") == len(shards)
        # Shipping metrics must not leave a registry active in the worker.
        assert not obs.enabled()


class TestCollectorMetrics:
    """Every ``repro_collector_*`` family in the catalog is recorded by a
    collection: one family per quantity, whichever collector the adapter
    was sent to."""

    def _workload(self):
        from repro.workloads.mt_generator import MTWorkloadGenerator

        return MTWorkloadGenerator(
            num_sessions=4, txns_per_session=6, num_objects=6, seed=2
        ).generate()

    def test_shared_families_are_recorded_by_both_collectors(self, tmp_path):
        from repro.adapters import AsyncSimulatedAdapter, SQLiteAdapter, collect_history
        from repro.resilience import failpoints

        workload = self._workload()
        for kind in ("threaded", "coroutine"):
            in_flight = []
            with obs.scoped() as reg:
                sample = lambda _txn: in_flight.append(  # noqa: E731
                    reg.value("repro_collector_sessions_in_flight")
                )
                if kind == "threaded":
                    with SQLiteAdapter(str(tmp_path / "m.db")) as adapter:
                        with failpoints.scoped("sqlite.commit=2*raise"):
                            result = collect_history(
                                adapter, workload, on_transaction=sample
                            )
                else:  # op_delay: sessions are still open when the hook runs
                    result = collect_history(
                        AsyncSimulatedAdapter("si", op_delay=0.0002),
                        workload,
                        on_transaction=sample,
                    )
            stats = result.stats
            assert 0 < stats.committed <= 24, kind
            assert (
                reg.value("repro_collector_txns_total", status="committed")
                == stats.committed
            )
            assert reg.value("repro_collector_ops_total") == stats.operations
            assert max(in_flight) >= 1, kind
            assert reg.value("repro_collector_sessions_in_flight") == 0
            if kind == "threaded":  # two injected aborts, each retried once
                assert stats.committed == 24
                assert reg.value("repro_collector_txns_total", status="aborted") == 2
                assert reg.value("repro_collector_retries_total") == stats.retries == 2
                assert reg.value("repro_collector_retryable_aborts_total") == 2
                # Each retry waited out its backoff (the collector's policy:
                # 2 to 50 ms), which the shared family sums.
                assert 2 * 0.002 <= reg.value("repro_resilience_backoff_seconds_total") <= 2 * 0.05
            recorded = {f for f in reg.families() if "collector_" in f}
            assert recorded <= set(obs.METRIC_CATALOG), kind

    def test_the_catalog_has_only_the_shared_families(self):
        assert sorted(
            family for family in obs.METRIC_CATALOG if "collector_" in family
        ) == [
            "repro_collector_ops_total",
            "repro_collector_retries_total",
            "repro_collector_retryable_aborts_total",
            "repro_collector_sessions_in_flight",
            "repro_collector_txns_total",
        ]


class TestResilienceMetrics:
    def test_the_sqlite_busy_retry_counts_its_retries_and_backoff(self, tmp_path, monkeypatch):
        import sqlite3

        from repro.adapters import SQLiteAdapter

        with SQLiteAdapter(str(tmp_path / "busy.db")) as adapter:
            adapter.setup(["x"])
            real, busy = adapter._admin_once, [2]

            def locked_twice(*args, **kwargs):
                if busy[0]:
                    busy[0] -= 1
                    raise sqlite3.OperationalError("database is locked")
                return real(*args, **kwargs)

            monkeypatch.setattr(adapter, "_admin_once", locked_twice)
            with obs.scoped() as reg:
                assert adapter.committed_value("x") == 0
        delays = list(adapter.busy_retry.delays())
        assert reg.value("repro_resilience_retries_total", component="sqlite_admin") == 2
        assert reg.value("repro_resilience_backoff_seconds_total") == pytest.approx(sum(delays[:2]))


class TestVerifyReport:
    def test_report_wraps_result_and_phases(self):
        report = MTChecker().verify(
            anomaly_history("LostUpdate"),
            IsolationLevel.SNAPSHOT_ISOLATION,
            report=True,
        )
        assert isinstance(report, obs.VerifyReport)
        assert not report.satisfied and not report
        assert report.level is IsolationLevel.SNAPSHOT_ISOLATION
        phases = report.phases()
        assert "index_build" in phases
        text = report.format()
        assert "VIOLATED" in text and "phases:" in text

    def test_index_builds_is_one_unlabelled_series(self):
        # One construction path -> one series: no ``source`` label, and
        # exactly one build per verify for either input kind.
        from repro.history.columnar import ColumnarHistory

        history = anomaly_history("WriteSkew")
        for source in (history, ColumnarHistory.from_history(history)):
            report = MTChecker().verify(
                source, IsolationLevel.SERIALIZABILITY, report=True
            )
            series = [
                name for name in report.metrics["counters"]
                if name.startswith("repro_index_builds_total")
            ]
            assert series == ["repro_index_builds_total"]
            assert report.metrics["counters"]["repro_index_builds_total"] == 1
            assert report.metrics["histograms"]["repro_index_build_seconds"]["count"] == 1

    def test_sser_graph_gauges_count_the_time_nodes(self):
        from repro.core.graph import build_dependency
        from repro.core.model import History, Transaction, read

        # Five transactions finish before five others start: 26 explicit RT
        # pairs, but the peel reads one time node and 2 * 5 + 1 chain rows.
        txns = [
            Transaction(i, [read("x", 0)], session_id=i,
                        start_ts=0.0 if i < 5 else 2.0, finish_ts=1.0 if i < 5 else 3.0)
            for i in range(10)
        ]
        history = History.from_transactions([[t] for t in txns], initial_keys=["x"])
        csr = build_dependency(history, dense=True)
        for level, extra in ((IsolationLevel.SERIALIZABILITY, (0, 0)),
                             (IsolationLevel.STRICT_SERIALIZABILITY, (1, 11))):
            report = MTChecker().verify(history, level, report=True)
            assert report.graph_size() == (csr.num_nodes + extra[0], csr.num_edges + extra[1])

    def test_graph_families_hold_exact_counts(self):
        # ``check_level`` sets them once per verify: one build, then the
        # nodes and edge rows of the graph the acyclicity peel ran on.
        from repro.core.model import History, Transaction, read, write

        def graph(history, level):
            metrics = MTChecker().verify(history, level, report=True).metrics
            gauges = metrics["gauges"]
            return (metrics["counters"]["repro_graph_builds_total"],
                    gauges["repro_graph_nodes"], gauges["repro_graph_edges"])

        # SER: T2 reads T1's x=1.  Nodes: ⊥T and the 2 committed ones.  Rows:
        # SO ⊥T→T1, ⊥T→T2; WR ⊥T→T1, T1→T2; WW ⊥T→T1, T1→T2.
        t1 = Transaction(1, [read("x", 0), write("x", 1)])
        t2 = Transaction(2, [read("x", 1), write("x", 2)], session_id=1)
        history = History.from_transactions([[t1], [t2]], initial_keys=["x"])
        assert graph(history, IsolationLevel.SERIALIZABILITY) == (1, 3, 6)
        # k transactions finish before k others start, each in its own
        # session and reading ⊥T's x (test_csr.py's bipartite shape): 2k SO
        # and 2k WR rows from ⊥T.  SSER adds one time node V and 2k + 1
        # chain rows: each early one → V, V → each late one, ⊥T → the first
        # by start.
        for k in (1, 3, 10):
            txns = [Transaction(i, [read("x", 0)], session_id=i,
                                start_ts=0.0 if i < k else 2.0, finish_ts=1.0 if i < k else 3.0)
                    for i in range(2 * k)]
            history = History.from_transactions([[t] for t in txns], initial_keys=["x"])
            assert graph(history, IsolationLevel.SERIALIZABILITY) == (1, 2 * k + 1, 4 * k)
            assert graph(history, IsolationLevel.STRICT_SERIALIZABILITY) == (1, 2 * k + 2, 4 * k + 2 * k + 1)

    def test_report_false_returns_plain_result(self):
        result = MTChecker().verify(
            anomaly_history("LostUpdate"), IsolationLevel.SNAPSHOT_ISOLATION
        )
        assert not isinstance(result, obs.VerifyReport)

    def test_report_leaves_telemetry_disabled(self):
        MTChecker().verify(
            anomaly_history("WriteSkew"), IsolationLevel.SERIALIZABILITY, report=True
        )
        assert not obs.enabled()


class TestCheckerGauges:
    @pytest.mark.parametrize("level", [IsolationLevel.STRICT_SERIALIZABILITY, IsolationLevel.SNAPSHOT_ISOLATION])
    def test_windowed_session_publishes_its_counters(self, level):
        from repro.core.model import Transaction, read, write

        # A stale read only SSER forbids, then a chain of read-modify-writes
        # of y that the window of 4 evicts, then a read of a sealed version.
        registry = obs.enable(fresh=True)
        session = MTChecker().session(level, initial_keys=["x", "y"], window=4)
        session.ingest(Transaction(1, [read("x", 0), write("x", 1)], start_ts=0.0, finish_ts=1.0))
        session.ingest(Transaction(2, [read("x", 0)], session_id=1, start_ts=2.0, finish_ts=3.0))
        for i in range(3, 12):
            session.ingest(Transaction(i, [read("y", i - 1 if i > 3 else 0), write("y", i)],
                                       session_id=2, start_ts=2.0 * i, finish_ts=2.0 * i + 1))
        session.ingest(Transaction(12, [read("y", 4)], session_id=3, start_ts=30.0, finish_ts=31.0))
        result = session.result()
        gauge = registry.value
        sser = level is IsolationLevel.STRICT_SERIALIZABILITY
        assert gauge("repro_checker_violations") == len(result.violations) == (1 if sser else 0)
        assert gauge("repro_checker_window_evictions") == session.evicted_count == 8
        assert gauge("repro_checker_stale_reads") == session.stale_reads == 1
        assert gauge("repro_checker_pk_reorder_visits") == session._topo.reorder_visits > 0
        # Transactions only: the timeline's time nodes (SSER) and the
        # out-copies (SI) are not graph nodes.
        live = session.graph.num_nodes()
        assert gauge("repro_checker_graph_nodes") == live == 5 < len(session._topo)


class TestEpochLogMetrics:
    def test_every_epochlog_family_counts_what_it_names(self, tmp_path):
        from repro.core.model import Transaction, read, write
        from repro.history import EpochLog, EpochLogWriter, load_columns

        directory = tmp_path / "m.epochs"
        directory.mkdir()
        for stale in (".epoch-00009.seg.tmp", ".MANIFEST.log.tmp", ".notes.tmp"):
            (directory / stale).write_bytes(b"stale")  # the last is not the log's
        registry = obs.enable(fresh=True)
        with EpochLogWriter(directory, epoch_transactions=4) as writer:
            for i in range(10):  # three epochs: 4 + 4 + 2 rows
                writer.append(Transaction(i + 1, [read("x", i), write("x", i + 1)]))
        log = EpochLog.open(directory)
        value = registry.value
        assert value("repro_epochlog_tmp_swept_total") == 2
        assert value("repro_epochlog_epochs_sealed_total") == len(log) == 3
        assert value("repro_epochlog_txns_sealed_total") == log.num_transactions == 10
        assert value("repro_epochlog_bytes_written_total") == sum(
            (directory / entry.name).stat().st_size for entry in log.epochs)
        histograms = registry.snapshot()["histograms"]
        fsync, seal = histograms["repro_epochlog_fsync_seconds"], histograms["repro_epochlog_seal_seconds"]
        assert fsync["count"] == seal["count"] == 3 and 0 < fsync["sum"] <= seal["sum"]
        assert value("repro_epochlog_epochs_loaded_total") is None
        log.load_epoch(1)
        load_columns(directory)
        assert value("repro_epochlog_epochs_loaded_total") == 1 + 3  # one per load_epoch


class TestCLISurfaces:
    def _generate_epochs(self, path):
        return main(
            ["generate", "--isolation", "si", "--sessions", "4", "--txns", "20",
             "--objects", "8", "--epoch-txns", "16", "--output", str(path)]
        )

    def test_watch_metrics_file_scrape(self, tmp_path, capsys):
        path = tmp_path / "h.epochs"
        assert self._generate_epochs(path) == 0
        metrics = tmp_path / "metrics.prom"
        code = main(
            ["watch", "--once", "--level", "si", "--metrics-file", str(metrics),
             "--metrics-every", "0", str(path)]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "[watch]" in captured.err and "verdict=ok" in captured.err
        parsed = obs.parse_textfile(metrics.read_text())
        # The scrape exposes the instrumented families end to end...
        assert parsed["repro_checker_txns_ingested"] > 0
        assert parsed["repro_epochlog_epochs_loaded_total"] > 0
        assert parsed["repro_watch_heartbeats_total"] > 0
        assert parsed["repro_executor_checks_total"] == 0  # zero-filled catalog
        assert "repro_collector_txns_total" in obs.render(MetricsRegistry())
        # ...and the follower fully drained the log.
        assert parsed["repro_watch_epoch_lag"] == 0
        # Seal-to-verdict latency: one observation per epoch, from the wall
        # clock its manifest record carries to the moment it was verified.
        assert parsed["repro_verdict_latency_seconds_count"] == len(list(path.glob("epoch-*.seg")))
        assert 0 <= parsed["repro_verdict_latency_seconds_sum"] < 60
        assert obs.METRIC_CATALOG["repro_verdict_latency_seconds"][0] == "histogram"
        assert not obs.enabled()

    def test_watch_scrape_reports_last_checkpoint_payload_bytes(self, tmp_path, capsys):
        # "Why is the verdict late?": the write-time histogram says how long
        # the checkpoint epoch took, this gauge says how much it had to write.
        path = tmp_path / "h.epochs"
        assert self._generate_epochs(path) == 0
        metrics = tmp_path / "metrics.prom"
        assert main(
            ["watch", "--once", "--level", "si", "--checkpoint-every", "2",
             "--metrics-file", str(metrics), "--metrics-every", "0", str(path)]
        ) == 0
        capsys.readouterr()
        newest = sorted(path.glob("checkpoint-*.ckpt"))[-1]
        header = json.loads(newest.read_bytes().split(b"\n", 2)[1])
        parsed = obs.parse_textfile(metrics.read_text())
        assert parsed["repro_epochlog_checkpoint_bytes"] == header["payload_bytes"] > 0
        assert parsed["repro_epochlog_checkpoint_write_seconds_count"] >= 1
        # The checker's own share: building the state (op=save) here, and
        # rebuilding a checker from it (op=restore) when the next run resumes.
        saves = parsed['repro_checker_checkpoint_seconds_count{op="save"}']
        assert saves == parsed["repro_epochlog_checkpoint_write_seconds_count"]
        assert parsed.get('repro_checker_checkpoint_seconds_count{op="restore"}', 0) == 0
        assert obs.METRIC_CATALOG["repro_epochlog_checkpoint_bytes"][0] == "gauge"
        assert main(
            ["watch", "--once", "--level", "si", "--checkpoint-every", "2",
             "--metrics-file", str(metrics), "--metrics-every", "0", str(path)]
        ) == 0
        assert "resumed from checkpoint" in capsys.readouterr().out
        parsed = obs.parse_textfile(metrics.read_text())
        assert parsed['repro_checker_checkpoint_seconds_count{op="restore"}'] == 1
        assert parsed['repro_checker_checkpoint_seconds_sum{op="restore"}'] > 0
        assert obs.METRIC_CATALOG["repro_checker_checkpoint_seconds"][0] == "histogram"

    def test_watch_writes_the_metrics_file_once_on_exit(self, tmp_path, capsys, monkeypatch):
        # One final write on every exit path: after the follow loop, and
        # when the resume is refused before the loop starts.
        from repro.obs import textfile

        path = tmp_path / "h.epochs"
        assert self._generate_epochs(path) == 0
        metrics = tmp_path / "metrics.prom"
        writes = []
        write = textfile.write_textfile
        monkeypatch.setattr(obs, "write_textfile", lambda *args: writes.append(write(*args)))
        service = ["watch", "--once", "--level", "si", "--window", "8", "--checkpoint-every", "1",
                   "--metrics-file", str(metrics), "--metrics-every", "3600"]
        assert main([*service, "--retire", str(path)]) == 0
        assert len(writes) == 2  # the first snapshot, then the final one
        assert obs.parse_textfile(metrics.read_text())["repro_watch_epoch_lag"] == 0
        metrics.unlink()
        writes.clear()
        assert main([*service, "--no-resume", str(path)]) == 2
        assert "retired by window GC" in capsys.readouterr().out
        assert len(writes) == 1
        assert obs.parse_textfile(metrics.read_text())["repro_watch_heartbeats_total"] == 0
        assert not obs.enabled()

    def test_watch_jsonl_metrics_file(self, tmp_path, capsys):
        path = tmp_path / "h.jsonl"
        assert main(
            ["generate", "--isolation", "si", "--sessions", "2", "--txns", "10",
             "--objects", "6", "--output", str(path)]
        ) == 0
        metrics = tmp_path / "metrics.prom"
        code = main(
            ["watch", "--once", "--level", "si", "--metrics-file", str(metrics),
             str(path)]
        )
        assert code == 0
        capsys.readouterr()
        parsed = obs.parse_textfile(metrics.read_text())
        assert parsed["repro_watch_txns_ingested"] > 0
        assert parsed["repro_watch_epoch_lag"] == 0
        assert "repro_verdict_latency_seconds_count" not in parsed  # a stream records no seal time
        assert not obs.enabled()

    def test_watch_flushes_checkpoint_on_regressed_log(self, tmp_path, capsys):
        path = tmp_path / "h.epochs"
        assert self._generate_epochs(path) == 0
        capsys.readouterr()
        segs = sorted(path.glob("epoch-*.seg"))
        assert len(segs) > 1

        # Regress the log while the follower sleeps between polls (an idle
        # refresh() looks at the manifest, not at epoch files it has already
        # read): the next refresh() raises, and the fix flushes the verified
        # prefix first.
        def regress():
            segs[-1].unlink()
            (path / "MANIFEST.log").unlink()

        killer = threading.Timer(0.3, regress)
        killer.start()
        try:
            code = main(
                ["watch", "--level", "si", "--interval", "0.05",
                 "--max-seconds", "30", "--checkpoint-every", "100", str(path)]
            )
        finally:
            killer.cancel()
        out = capsys.readouterr().out
        assert code == 2
        assert "regressed" in out
        assert "flushed final checkpoint" in out
        assert sorted(path.glob("checkpoint-*.ckpt"))

    def test_check_verbose_prints_phase_report(self, tmp_path, capsys):
        path = tmp_path / "h.jsonl"
        assert main(
            ["generate", "--isolation", "si", "--sessions", "3", "--txns", "15",
             "--objects", "8", "--output", str(path)]
        ) == 0
        assert main(["check", "--level", "si", "-v", str(path)]) == 0
        out = capsys.readouterr().out
        assert "SATISFIED" in out and "phases:" in out and "index_build" in out

    def test_check_trace_writes_jsonl(self, tmp_path, capsys):
        path = tmp_path / "h.jsonl"
        assert main(
            ["generate", "--isolation", "si", "--sessions", "3", "--txns", "15",
             "--objects", "8", "--output", str(path)]
        ) == 0
        trace = tmp_path / "trace.jsonl"
        assert main(["check", "--level", "ser", "--trace", str(trace), str(path)]) == 0
        capsys.readouterr()
        records = list(obs.iter_trace(str(trace)))
        names = [r["name"] for r in records]
        assert "check" in names and "index_build" in names
        root = next(r for r in records if r["name"] == "check")
        assert root["parent"] is None
        assert all(
            r["parent"] == root["id"] for r in records if r["name"] != "check"
        )
        assert obs._TRACER is None

