"""Resilience layer: failpoints and retry/backoff policies.

Two pieces, each usable alone:

* :mod:`repro.resilience.failpoints` — deterministic fault injection at
  registered IO/IPC boundaries (``REPRO_FAILPOINTS``-driven chaos);
* :mod:`repro.resilience.policy` — :class:`RetryPolicy`, the backoff
  schedule shared by the collector and the SQLite adapter.

``repro watch`` has no restart loop of its own: a fault exits 2, and the
next invocation resumes from the newest durable checkpoint.
"""

from .._lazy import surface

__all__, __getattr__, __dir__ = surface(__name__, {
    "FAILPOINT_SITES": ".failpoints",
    "FailpointError": ".failpoints",
    "fail_point": ".failpoints",
    "RetryPolicy": ".policy",
})
