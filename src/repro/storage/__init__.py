"""Storage primitives for the in-memory transactional database simulator:
a logical clock, a multi-version key-value store, and a lock manager."""

from .._lazy import surface

__all__, __getattr__, __dir__ = surface(__name__, {
    "LogicalClock": ".clock",
    "SkewedClock": ".clock",
    "LockKind": ".locks",
    "LockManager": ".locks",
    "LockConflict": ".locks",
    "Version": ".mvcc",
    "VersionedStore": ".mvcc",
})
