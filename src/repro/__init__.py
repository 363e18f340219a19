"""repro — a from-scratch reproduction of "Boosting End-to-End Database
Isolation Checking via Mini-Transactions" (ICDE 2025).

The package provides:

* :mod:`repro.core` — the MTC checkers (SSER, SER, SI, linearizability),
  the history/dependency-graph model, and the anomaly catalog;
* :mod:`repro.db` — an in-memory transactional key-value database simulator
  with pluggable isolation engines and fault injection;
* :mod:`repro.workloads` — MT, GT, list-append, and LWT workload generators
  plus the runner that records histories;
* :mod:`repro.baselines` — reimplementations of the baseline checkers
  (Cobra, PolySI, Porcupine, Elle, dbcop) used for comparison;
* :mod:`repro.bench` — the harness behind the ``benchmarks/bench_*``
  scripts reproducing the paper's tables and figures (this repository's own
  performance benchmark is ``benchmarks/pipeline``, outside the package).

Every public name below (and in each subpackage) is imported from its
defining module on first access (:mod:`repro._lazy`), so ``import repro``
loads nothing it is not asked for; ``repro.MTChecker is
repro.core.checker.MTChecker``.
"""

from ._lazy import surface

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = surface(__name__, {
    "AnomalyKind": ".core.result",
    "CheckResult": ".core.result",
    "IsolationLevel": ".core.result",
    "Violation": ".core.result",
    "CSRGraph": ".core.csr",
    "CheckerSession": ".core.incremental",
    "IncrementalChecker": ".core.incremental",
    "PearceKellyOrder": ".core.incremental",
    "DependencyGraph": ".core.graph",
    "EdgeType": ".core.graph",
    "build_dependency": ".core.graph",
    "History": ".core.model",
    "Operation": ".core.model",
    "OpType": ".core.model",
    "Session": ".core.model",
    "Transaction": ".core.model",
    "TransactionStatus": ".core.model",
    "read": ".core.model",
    "stream_order": ".core.model",
    "write": ".core.model",
    "HistoryIndex": ".core.index",
    "LWTHistory": ".core.lwt",
    "LWTOperation": ".core.lwt",
    "check_linearizability": ".core.lwt",
    "MTChecker": ".core.checker",
    "anomaly_catalog": ".core.anomalies",
    "anomaly_history": ".core.anomalies",
    "check_ser": ".core.checkers",
    "check_si": ".core.checkers",
    "check_sser": ".core.checkers",
    "is_mini_transaction": ".core.mini",
    "is_mt_history": ".core.mini",
    "AsyncCollector": ".adapters.acollector",
    "AsyncSimulatedAdapter": ".adapters.aio",
    "ChaosAdapter": ".adapters.chaos",
    "ChaosPlan": ".adapters.chaos",
    "CollectionResult": ".adapters.collector",
    "Collector": ".adapters.collector",
    "DatabaseAdapter": ".adapters.base",
    "SQLiteAdapter": ".adapters.sqlite",
    "collect_history": ".adapters",
    "make_adapter": ".adapters",
    "Database": ".db.database",
    "DatabaseStats": ".db.database",
    "FaultPlan": ".db.faults",
    "TransactionAborted": ".db.errors",
    "ColumnarHistory": ".history.columnar",
    "load_history_segment": ".history.columnar",
    "write_history_segment": ".history.columnar",
    "HistoryStreamWriter": ".history.serialization",
    "Shard": ".parallel.partition",
    "partition_columns": ".parallel.partition",
    "check_parallel": ".parallel.executor",
    "GTWorkloadGenerator": ".workloads.gt_generator",
    "LWTHistoryGenerator": ".workloads.lwt_generator",
    "ListAppendWorkloadGenerator": ".workloads.list_append",
    "MTWorkloadGenerator": ".workloads.mt_generator",
    "WorkloadRunner": ".workloads.runner",
    "run_workload": ".workloads.runner",
    "__version__": ".",
})
