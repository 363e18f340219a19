"""Core of the reproduction: history model, dependency graphs, and the MTC
verification algorithms for SSER, SER, SI, and linearizability."""

from .anomalies import ANOMALY_NAMES, AnomalySpec, anomaly_catalog, anomaly_history
from .checker import MTChecker
from .checkers import MTHistoryError, check_ser, check_si, check_sser
from .csr import CSRGraph
from .divergence import DivergenceInstance, find_all_divergences, find_divergence
from .graph import DependencyGraph, Edge, EdgeType, build_dependency
from .incremental import (
    CheckerSession,
    IncrementalChecker,
    PearceKellyOrder,
    stream_order,
)
from .index import HistoryIndex
from .intcheck import check_internal_consistency
from .lwt import LWTHistory, LWTKind, LWTOperation, check_linearizability, check_object_linearizability
from .mini import is_mini_transaction, is_mt_history, validate_mt_history
from .model import (
    INITIAL_TXN_ID,
    INITIAL_VALUE,
    History,
    Operation,
    OpType,
    Session,
    Transaction,
    TransactionStatus,
    make_initial_transaction,
    read,
    write,
)
from .result import AnomalyKind, CheckResult, IsolationLevel, Violation

__all__ = [
    "ANOMALY_NAMES",
    "AnomalyKind",
    "AnomalySpec",
    "CSRGraph",
    "CheckResult",
    "CheckerSession",
    "DependencyGraph",
    "DivergenceInstance",
    "Edge",
    "EdgeType",
    "History",
    "HistoryIndex",
    "INITIAL_TXN_ID",
    "INITIAL_VALUE",
    "IncrementalChecker",
    "IsolationLevel",
    "LWTHistory",
    "LWTKind",
    "LWTOperation",
    "MTChecker",
    "MTHistoryError",
    "Operation",
    "OpType",
    "PearceKellyOrder",
    "Session",
    "Transaction",
    "TransactionStatus",
    "Violation",
    "anomaly_catalog",
    "anomaly_history",
    "build_dependency",
    "check_internal_consistency",
    "check_linearizability",
    "check_object_linearizability",
    "check_ser",
    "check_si",
    "check_sser",
    "find_all_divergences",
    "find_divergence",
    "is_mini_transaction",
    "is_mt_history",
    "make_initial_transaction",
    "read",
    "stream_order",
    "validate_mt_history",
    "write",
]
