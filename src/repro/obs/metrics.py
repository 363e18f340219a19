"""Process-local metrics: counters, gauges, and fixed-bucket histograms.

The registry is the one stats substrate of the pipeline: the collector, the
incremental checker, the epoch log, the history index, and the parallel
executor all record into whichever :class:`MetricsRegistry` is *active*
(module-level, installed via :func:`enable` / :func:`scoped`).  When no
registry is active every recording call returns after a single ``None``
check — the instrumented hot paths cost one attribute load and a branch,
and the label-less fast path allocates nothing (enforced by
``tests/test_obs.py``).

Design constraints, in order:

* **Dependency-free.**  Stdlib only; no prometheus_client, no opentelemetry.
* **Wire-safe.**  :meth:`MetricsRegistry.snapshot` is a JSON-safe dict of
  plain numbers — per-worker registries cross the process boundary next to
  the shard wire payloads without pickling any object, matching
  the columnar plane's discipline.
* **Mergeable.**  :meth:`MetricsRegistry.merge` folds a snapshot in:
  counters and histogram buckets add (associative and commutative, so any
  reduction-tree shape over worker snapshots yields the same totals);
  gauges are last-write-wins in merge order (point-in-time readings — a
  sum across processes would be meaningless for e.g. a topological-order
  size).
* **Thread-safe.**  One lock per registry: the concurrent
  :class:`~repro.adapters.collector.Collector` records from every worker
  thread.

Series identity follows the Prometheus exposition format: a series is
``name`` or ``name{key="value",...}`` with label keys sorted, which is also
exactly what :mod:`repro.obs.textfile` prints.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "DEFAULT_BUCKETS",
    "METRIC_CATALOG",
    "MetricsRegistry",
    "SNAPSHOT_FORMAT",
    "enable",
    "disable",
    "enabled",
    "registry",
    "scoped",
    "series_name",
]

#: Format tag carried by every :meth:`MetricsRegistry.snapshot` dict.
SNAPSHOT_FORMAT = "repro-metrics-v1"

#: Default histogram bucket upper bounds, in seconds (durations dominate).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10.0, 60.0,
)

#: The metric catalog: family name -> (kind, help text).  Families listed
#: here always appear in the Prometheus textfile (zero-valued when never
#: recorded), so a scrape of a quiet service still exposes the collector,
#: checker, epoch-log, and executor families; the table in
#: docs/ARCHITECTURE.md is generated from the same data.
METRIC_CATALOG: Dict[str, Tuple[str, str]] = {
    # Collectors (worker threads or coroutines driving a database adapter;
    # one family per quantity, whichever collector the adapter was sent to).
    "repro_collector_sessions_in_flight": (
        "gauge", "Sessions currently open on a collector worker thread or coroutine"),
    "repro_collector_txns_total": (
        "counter", "Transaction attempts recorded, by status label"),
    "repro_collector_ops_total": (
        "counter", "Operations executed against the adapter"),
    "repro_collector_retries_total": (
        "counter", "Aborted transactions that were retried"),
    "repro_collector_retryable_aborts_total": (
        "counter", "Aborts the engine marked as retryable"),
    # Incremental checker (streaming verification).
    "repro_checker_txns_ingested": (
        "gauge", "Committed transactions ingested by the streaming checker"),
    "repro_checker_violations": (
        "gauge", "Violations confirmed so far by the streaming checker"),
    "repro_checker_window_evictions": (
        "gauge", "Transactions garbage-collected by the bounded window"),
    "repro_checker_stale_reads": (
        "gauge", "Reads that fell outside the streaming window"),
    "repro_checker_pk_reorder_visits": (
        "gauge", "Nodes visited by Pearce-Kelly affected-region reorderings"),
    "repro_checker_graph_nodes": (
        "gauge", "Live nodes in the streaming dependency graph"),
    "repro_checker_checkpoint_seconds": (
        "histogram", "Checker checkpoint save/restore time, by op label"),
    # Epoch log (durable history store).
    "repro_epochlog_epochs_sealed_total": (
        "counter", "Epoch segments sealed by the writer"),
    "repro_epochlog_txns_sealed_total": (
        "counter", "Transactions sealed into epoch segments"),
    "repro_epochlog_bytes_written_total": (
        "counter", "Bytes of sealed epoch segment files"),
    "repro_epochlog_fsync_seconds": (
        "histogram", "fsync time per sealed epoch segment"),
    "repro_epochlog_seal_seconds": (
        "histogram", "End-to-end seal time per epoch (segment write+fsync+rename, record append+fsync)"),
    "repro_epochlog_epochs_loaded_total": (
        "counter", "Epoch segments loaded by readers"),
    "repro_epochlog_checkpoint_write_seconds": (
        "histogram", "Verifier checkpoint persist time into the epoch log"),
    "repro_epochlog_checkpoint_bytes": (
        "gauge", "Payload size of the last verifier checkpoint written"),
    # History index.
    "repro_index_builds_total": (
        "counter", "HistoryIndex constructions (column scans)"),
    "repro_index_build_seconds": (
        "histogram", "HistoryIndex construction scan time"),
    # Dependency graph / CSR kernel.
    "repro_graph_builds_total": (
        "counter", "Batch BUILDDEPENDENCY runs"),
    "repro_graph_nodes": (
        "gauge", "Nodes of the graph the last acyclicity peel ran on (SSER: plus time nodes)"),
    "repro_graph_edges": (
        "gauge", "Edge rows of the graph the last acyclicity peel ran on (SSER: plus chain rows)"),
    # Parallel executor (per-call gauges live in a per-call scoped registry;
    # shard-level counters are recorded inside the workers and merged back).
    "repro_executor_checks_total": (
        "counter", "check_parallel invocations"),
    "repro_executor_workers_requested": ("gauge", "Worker processes requested"),
    "repro_executor_workers_effective": ("gauge", "Worker processes used"),
    "repro_executor_shards": ("gauge", "Key-connected shards of the last check"),
    "repro_executor_inline": ("gauge", "1 when the last check ran inline"),
    "repro_executor_payload_bytes": (
        "gauge", "Pickled shard payload bytes of the last check"),
    "repro_executor_payload_bytes_total": (
        "counter", "Pickled shard payload bytes across checks"),
    "repro_executor_index_build_seconds": (
        "gauge", "Parent index build time of the last check"),
    "repro_executor_shard_txns_total": (
        "counter", "Committed transactions checked across shard tasks"),
    "repro_executor_shard_checks_total": (
        "counter", "Shard check tasks executed (workers and inline)"),
    # Phase timers (shared histogram; the span name is the phase label).
    "repro_phase_seconds": (
        "histogram", "Wall-clock of named pipeline phases, by phase label"),
    # Watch service.
    "repro_watch_epoch_lag": (
        "gauge", "Sealed epochs not yet ingested by the follower"),
    "repro_verdict_latency_seconds": (
        "histogram", "Wall clock from an epoch's seal to its verdict in repro watch"),
    "repro_watch_txns_ingested": (
        "gauge", "Transactions ingested by the watch follower"),
    "repro_watch_heartbeats_total": ("counter", "Watch heartbeats emitted"),
    # Resilience layer (failpoints, retry policies, pool faults).
    "repro_resilience_failpoints_fired_total": (
        "counter", "Failpoint activations, by site label"),
    "repro_resilience_retries_total": (
        "counter", "Retries scheduled by RetryPolicy, by component label"),
    "repro_resilience_backoff_seconds_total": (
        "counter", "Backoff sleep scheduled by RetryPolicy"),
    "repro_resilience_deadline_exceeded_total": (
        "counter", "Operations abandoned at a deadline, by component label"),
    "repro_resilience_pool_faults_total": (
        "counter", "Worker-pool faults absorbed by the executor, by kind label"),
    "repro_epochlog_tmp_swept_total": (
        "counter", "Orphaned temp files removed by epoch-log crash recovery"),
}


def series_name(name: str, labels: Dict[str, Any]) -> str:
    """The Prometheus series identity for ``name`` + ``labels``."""
    if not labels:
        return name
    inner = ",".join(f'{k}="{labels[k]}"' for k in sorted(labels))
    return f"{name}{{{inner}}}"


def family_of(series: str) -> str:
    """The family (metric name without labels) of a series identity."""
    brace = series.find("{")
    return series if brace < 0 else series[:brace]


class _Histogram:
    """Fixed-bucket histogram: per-bucket counts plus sum/count."""

    __slots__ = ("bounds", "counts", "total", "count")

    def __init__(self, bounds: Tuple[float, ...]) -> None:
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # trailing +Inf bucket
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        slot = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                slot = i
                break
        self.counts[slot] += 1
        self.total += value
        self.count += 1


class MetricsRegistry:
    """A process-local bag of counters, gauges, and histograms.

    Example:
        >>> reg = MetricsRegistry()
        >>> reg.inc("repro_executor_checks_total")
        >>> reg.inc("repro_resilience_pool_faults_total", kind="broken")
        >>> reg.value("repro_resilience_pool_faults_total", kind="broken")
        1.0
        >>> snap = reg.snapshot()
        >>> other = MetricsRegistry()
        >>> other.merge(snap); other.merge(snap)
        >>> other.value("repro_executor_checks_total")
        2.0
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, _Histogram] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def inc(self, name: str, amount: float = 1.0, **labels: Any) -> None:
        """Add ``amount`` to a (monotonic) counter series."""
        series = series_name(name, labels)
        with self._lock:
            self._counters[series] = self._counters.get(series, 0.0) + amount

    def set_gauge(self, name: str, value: float, **labels: Any) -> None:
        """Set a gauge series to ``value``."""
        series = series_name(name, labels)
        with self._lock:
            self._gauges[series] = float(value)

    def gauge_add(self, name: str, delta: float, **labels: Any) -> None:
        """Adjust a gauge series by ``delta`` (e.g. sessions in flight)."""
        series = series_name(name, labels)
        with self._lock:
            self._gauges[series] = self._gauges.get(series, 0.0) + delta

    def observe(
        self,
        name: str,
        value: float,
        *,
        buckets: Optional[Tuple[float, ...]] = None,
        **labels: Any,
    ) -> None:
        """Record ``value`` into a histogram series."""
        series = series_name(name, labels)
        with self._lock:
            hist = self._histograms.get(series)
            if hist is None:
                hist = _Histogram(tuple(buckets) if buckets else DEFAULT_BUCKETS)
                self._histograms[series] = hist
            hist.observe(value)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def value(self, name: str, **labels: Any) -> Optional[float]:
        """The current value of a counter or gauge series, or ``None``."""
        series = series_name(name, labels)
        with self._lock:
            if series in self._counters:
                return self._counters[series]
            return self._gauges.get(series)

    def families(self) -> List[str]:
        """Every family with at least one recorded series, sorted."""
        with self._lock:
            names = {family_of(s) for s in self._counters}
            names.update(family_of(s) for s in self._gauges)
            names.update(family_of(s) for s in self._histograms)
        return sorted(names)

    # ------------------------------------------------------------------
    # Wire format
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """A JSON-safe, mergeable copy of every series (no live objects)."""
        with self._lock:
            return {
                "format": SNAPSHOT_FORMAT,
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {
                    series: {
                        "bounds": list(hist.bounds),
                        "counts": list(hist.counts),
                        "sum": hist.total,
                        "count": hist.count,
                    }
                    for series, hist in self._histograms.items()
                },
            }

    def merge(self, snapshot: Dict[str, Any]) -> None:
        """Fold a :meth:`snapshot` dict into this registry.

        Counters and histograms add element-wise; gauges take the incoming
        value (last write wins).  Merging is associative, so per-worker
        snapshots may be folded pairwise, tree-shaped, or sequentially with
        identical totals.  Raises ``ValueError`` on a foreign format tag or
        mismatched histogram bucket bounds.
        """
        if snapshot.get("format") != SNAPSHOT_FORMAT:
            raise ValueError(f"not a {SNAPSHOT_FORMAT} metrics snapshot")
        with self._lock:
            for series, value in snapshot.get("counters", {}).items():
                self._counters[series] = self._counters.get(series, 0.0) + value
            for series, value in snapshot.get("gauges", {}).items():
                self._gauges[series] = float(value)
            for series, data in snapshot.get("histograms", {}).items():
                bounds = tuple(data["bounds"])
                hist = self._histograms.get(series)
                if hist is None:
                    hist = _Histogram(bounds)
                    self._histograms[series] = hist
                elif hist.bounds != bounds:
                    raise ValueError(
                        f"histogram {series}: bucket bounds differ across "
                        "snapshots; cannot merge"
                    )
                for i, count in enumerate(data["counts"]):
                    hist.counts[i] += count
                hist.total += data["sum"]
                hist.count += data["count"]


# ----------------------------------------------------------------------
# Module-level active registry (the no-op fast path when None)
# ----------------------------------------------------------------------
_ACTIVE: Optional[MetricsRegistry] = None


def enabled() -> bool:
    """Whether a registry is currently active in this process."""
    return _ACTIVE is not None


def registry() -> Optional[MetricsRegistry]:
    """The active registry, or ``None`` when telemetry is disabled."""
    return _ACTIVE


def enable(*, fresh: bool = False) -> MetricsRegistry:
    """Install (or return) the process-wide active registry."""
    global _ACTIVE
    if _ACTIVE is None or fresh:
        _ACTIVE = MetricsRegistry()
    return _ACTIVE


def disable() -> None:
    """Deactivate telemetry; recording calls become no-ops again."""
    global _ACTIVE
    _ACTIVE = None


def swap_active(reg: Optional[MetricsRegistry]) -> Optional[MetricsRegistry]:
    """Install ``reg`` as the active registry; return the previous one."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = reg
    return previous


@contextmanager
def scoped() -> Iterator[MetricsRegistry]:
    """Activate a fresh registry for the dynamic extent of the block.

    On exit the previous registry is restored and — when there was one —
    the scoped registry's snapshot is folded into it, so nested scopes
    (e.g. ``verify(report=True)`` under ``repro watch --metrics-file``)
    both see the recordings.
    """
    parent = swap_active(MetricsRegistry())
    reg = _ACTIVE
    assert reg is not None
    try:
        yield reg
    finally:
        swap_active(parent)
        if parent is not None:
            parent.merge(reg.snapshot())
