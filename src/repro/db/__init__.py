"""The in-memory transactional database simulator: the "black box" that the
workload generators stress and from which histories are recorded."""

from .._lazy import surface

__all__, __getattr__, __dir__ = surface(__name__, {
    "Database": ".database",
    "DatabaseStats": ".database",
    "ENGINE_REGISTRY": ".database",
    "engine_for_level": ".database",
    "DatabaseError": ".errors",
    "TransactionAborted": ".errors",
    "TransactionStateError": ".errors",
    "FaultPlan": ".faults",
    "FaultyEngine": ".faults",
    "ReadCommittedEngine": ".rc",
    "StrictTwoPhaseLockingEngine": ".s2pl",
    "SerializableEngine": ".ser",
    "SnapshotIsolationEngine": ".si",
    "TransactionContext": ".transaction",
    "TxnState": ".transaction",
})
