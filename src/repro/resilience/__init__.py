"""Resilience layer: failpoints, retry/backoff policies, supervision.

Three cooperating pieces, each usable alone:

* :mod:`repro.resilience.failpoints` — deterministic fault injection at
  registered IO/IPC boundaries (``REPRO_FAILPOINTS``-driven chaos);
* :mod:`repro.resilience.policy` — :class:`RetryPolicy`,
  :class:`Deadline`, and :class:`CircuitBreaker`, the shared
  failure-handling arithmetic of the collector, executor, and adapters;
* :mod:`repro.resilience.supervisor` — the bounded restart loop behind
  ``repro watch --supervise``.
"""

from .._lazy import surface

__all__, __getattr__, __dir__ = surface(__name__, {
    "FAILPOINT_SITES": ".failpoints",
    "FailpointError": ".failpoints",
    "fail_point": ".failpoints",
    "CircuitBreaker": ".policy",
    "Deadline": ".policy",
    "DeadlineExceeded": ".policy",
    "RetryPolicy": ".policy",
    "Supervisor": ".supervisor",
})
