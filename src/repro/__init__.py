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
"""

from .core import (
    AnomalyKind,
    CheckResult,
    CheckerSession,
    CSRGraph,
    DependencyGraph,
    EdgeType,
    History,
    HistoryIndex,
    IncrementalChecker,
    IsolationLevel,
    LWTHistory,
    LWTOperation,
    MTChecker,
    Operation,
    OpType,
    PearceKellyOrder,
    Session,
    Transaction,
    TransactionStatus,
    Violation,
    anomaly_catalog,
    anomaly_history,
    build_dependency,
    check_linearizability,
    check_ser,
    check_si,
    check_sser,
    is_mini_transaction,
    is_mt_history,
    read,
    stream_order,
    write,
)
from .adapters import (
    AsyncCollector,
    AsyncSimulatedAdapter,
    ChaosAdapter,
    ChaosPlan,
    CollectionResult,
    Collector,
    DatabaseAdapter,
    SQLiteAdapter,
    collect_history,
    make_adapter,
)
from .db import Database, DatabaseStats, FaultPlan, TransactionAborted
from .history import (
    ColumnarHistory,
    HistoryStreamWriter,
    load_history_segment,
    write_history_segment,
)
from .parallel import Shard, check_parallel, partition_columns
from .workloads import (
    GTWorkloadGenerator,
    LWTHistoryGenerator,
    ListAppendWorkloadGenerator,
    MTWorkloadGenerator,
    WorkloadRunner,
    run_workload,
)

__version__ = "1.0.0"

__all__ = [
    "AnomalyKind",
    "AsyncCollector",
    "AsyncSimulatedAdapter",
    "CSRGraph",
    "ChaosAdapter",
    "ChaosPlan",
    "CheckResult",
    "CheckerSession",
    "CollectionResult",
    "Collector",
    "ColumnarHistory",
    "Database",
    "DatabaseAdapter",
    "DatabaseStats",
    "DependencyGraph",
    "EdgeType",
    "FaultPlan",
    "GTWorkloadGenerator",
    "History",
    "HistoryIndex",
    "HistoryStreamWriter",
    "IncrementalChecker",
    "IsolationLevel",
    "LWTHistory",
    "LWTHistoryGenerator",
    "LWTOperation",
    "ListAppendWorkloadGenerator",
    "MTChecker",
    "MTWorkloadGenerator",
    "Operation",
    "OpType",
    "PearceKellyOrder",
    "SQLiteAdapter",
    "Session",
    "Shard",
    "Transaction",
    "TransactionAborted",
    "TransactionStatus",
    "Violation",
    "WorkloadRunner",
    "anomaly_catalog",
    "anomaly_history",
    "build_dependency",
    "check_linearizability",
    "check_parallel",
    "check_ser",
    "check_si",
    "check_sser",
    "collect_history",
    "is_mini_transaction",
    "is_mt_history",
    "load_history_segment",
    "make_adapter",
    "partition_columns",
    "read",
    "run_workload",
    "stream_order",
    "write",
    "write_history_segment",
    "__version__",
]
