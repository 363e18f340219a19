"""Telemetry facade: the one import the rest of the pipeline touches.

Instrumented code calls the module-level helpers here::

    from .. import obs
    obs.inc("repro_epochlog_epochs_sealed_total")
    with obs.phase("index_build"):
        ...

Every helper starts with the same guard — *is a registry (or tracer)
active?* — and returns immediately when not, so a pipeline with telemetry
disabled pays one global load and a ``None`` check per call site, and the
shared :data:`_NULL` phase context allocates nothing.  ``enable()`` /
``scoped()`` (metrics) and ``start_trace()`` (spans) switch the real
implementations on.

Everything is stdlib-only and lives in this package:

* :mod:`.metrics` — registry, snapshot/merge wire format, catalog
* :mod:`.trace` — JSONL span writer and reader
* :mod:`.textfile` — atomic Prometheus-textfile exposition
* :mod:`.report` — :class:`VerifyReport` for ``verify(report=True)``
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Dict, Optional

from .._lazy import surface
from . import metrics as _metrics

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .trace import Span, TraceWriter

__all__, __getattr__, __dir__ = surface(__name__, {
    "gauge_add": ".",
    "inc": ".",
    "merge": ".",
    "observe": ".",
    "phase": ".",
    "set_gauge": ".",
    "start_trace": ".",
    "stop_trace": ".",
    "trace_span": ".",
    "DEFAULT_BUCKETS": ".metrics",
    "METRIC_CATALOG": ".metrics",
    "MetricsRegistry": ".metrics",
    "disable": ".metrics",
    "enable": ".metrics",
    "enabled": ".metrics",
    "registry": ".metrics",
    "scoped": ".metrics",
    "VerifyReport": ".report",
    "parse_textfile": ".textfile",
    "render": ".textfile",
    "write_textfile": ".textfile",
    "Span": ".trace",
    "TraceWriter": ".trace",
    "iter_trace": ".trace",
})


# ----------------------------------------------------------------------
# Metrics fast paths (no-ops while metrics._ACTIVE is None)
# ----------------------------------------------------------------------
def inc(name: str, amount: float = 1.0, **labels: Any) -> None:
    reg = _metrics._ACTIVE
    if reg is not None:
        reg.inc(name, amount, **labels)


def set_gauge(name: str, value: float, **labels: Any) -> None:
    reg = _metrics._ACTIVE
    if reg is not None:
        reg.set_gauge(name, value, **labels)


def gauge_add(name: str, delta: float, **labels: Any) -> None:
    reg = _metrics._ACTIVE
    if reg is not None:
        reg.gauge_add(name, delta, **labels)


def observe(name: str, value: float, **labels: Any) -> None:
    reg = _metrics._ACTIVE
    if reg is not None:
        reg.observe(name, value, **labels)


def merge(snapshot: Optional[Dict[str, Any]]) -> None:
    """Fold a worker snapshot into the active registry, if any."""
    reg = _metrics._ACTIVE
    if reg is not None and snapshot:
        reg.merge(snapshot)


# ----------------------------------------------------------------------
# Tracing (module-level writer; spans parented per thread)
# ----------------------------------------------------------------------
_TRACER: Optional[TraceWriter] = None


def start_trace(path: str) -> TraceWriter:
    """Open (or replace) the process-wide trace writer."""
    global _TRACER
    from .trace import TraceWriter

    if _TRACER is not None:
        _TRACER.close()
    _TRACER = TraceWriter(path)
    return _TRACER


def stop_trace() -> None:
    global _TRACER
    if _TRACER is not None:
        _TRACER.close()
        _TRACER = None


def trace_span(name: str, **fields: Any):
    """An explicit span (no metrics side), or the null context if off."""
    if _TRACER is None:
        return _NULL
    return _TRACER.span(name, **fields)


# ----------------------------------------------------------------------
# Phase timers: one context manager feeding both planes
# ----------------------------------------------------------------------
class _NullPhase:
    """Shared do-nothing context; the disabled-mode fast path."""

    __slots__ = ()

    def __enter__(self) -> "_NullPhase":
        return self

    def __exit__(self, *exc: Any) -> None:
        return None


_NULL = _NullPhase()


class _Phase:
    """Times a named pipeline phase into metrics and/or the trace."""

    __slots__ = ("name", "span", "started")

    def __init__(self, name: str, span: Optional[Span]) -> None:
        self.name = name
        self.span = span
        self.started = 0.0

    def __enter__(self) -> "_Phase":
        self.started = time.perf_counter()
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        elapsed = time.perf_counter() - self.started
        reg = _metrics._ACTIVE
        if reg is not None:
            reg.observe("repro_phase_seconds", elapsed, phase=self.name)
        if self.span is not None:
            self.span.__exit__(exc_type, exc, tb)


def phase(name: str, **fields: Any):
    """Time a named phase; records a histogram sample and/or a span.

    Returns the shared null context when both planes are off — the hot
    call sites (``with obs.phase("ingest"):``) stay allocation-free.
    """
    tracer = _TRACER
    if _metrics._ACTIVE is None and tracer is None:
        return _NULL
    span = tracer.span(name, **fields) if tracer is not None else None
    return _Phase(name, span)
