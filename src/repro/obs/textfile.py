"""Prometheus textfile exposition for :class:`MetricsRegistry`.

:func:`write_textfile` renders the registry in the Prometheus text format
(``# HELP`` / ``# TYPE`` headers, ``name{labels} value`` series, histogram
``_bucket``/``_sum``/``_count`` expansion) and installs it atomically
(:func:`repro.ondisk.atomic_write`: staging file, fsync, rename) —
so a concurrent scraper (node_exporter's textfile collector, or a plain
``cat``) never observes a torn snapshot.

Every family in :data:`~repro.obs.metrics.METRIC_CATALOG` is always
emitted; label-less counter/gauge families that were never recorded appear
as an explicit ``0`` series, so a scrape of a freshly started service still
exposes the collector, checker, epoch-log, and executor families.
"""

from __future__ import annotations

import math
from typing import Dict, List

from ..ondisk import atomic_write
from .metrics import METRIC_CATALOG, MetricsRegistry, family_of

__all__ = ["render", "write_textfile", "parse_textfile"]


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _series_with_label(series: str, key: str, value: str) -> str:
    """Insert ``key="value"`` into a series identity's label set."""
    brace = series.find("{")
    if brace < 0:
        return f'{series}{{{key}="{value}"}}'
    return f'{series[:brace + 1]}{key}="{value}",{series[brace + 1:-1]}}}'


def render(reg: MetricsRegistry) -> str:
    """The registry in Prometheus text exposition format."""
    snap = reg.snapshot()
    by_family: Dict[str, List[str]] = {}

    def emit(family: str, line: str) -> None:
        by_family.setdefault(family, []).append(line)

    for series in sorted(snap["counters"]):
        emit(family_of(series),
             f"{series} {_format_value(snap['counters'][series])}")
    for series in sorted(snap["gauges"]):
        emit(family_of(series),
             f"{series} {_format_value(snap['gauges'][series])}")
    for series in sorted(snap["histograms"]):
        family = family_of(series)
        data = snap["histograms"][series]
        cumulative = 0
        bucket_family = f"{family}_bucket"
        suffix = series[len(family):]  # "" or "{...}"
        for bound, count in zip(
            list(data["bounds"]) + [math.inf], data["counts"]
        ):
            cumulative += count
            line_series = _series_with_label(
                f"{bucket_family}{suffix}", "le", _format_value(bound))
            emit(family, f"{line_series} {cumulative}")
        emit(family, f"{family}_sum{suffix} {_format_value(data['sum'])}")
        emit(family, f"{family}_count{suffix} {data['count']}")

    out: List[str] = []
    known = set(METRIC_CATALOG)
    for family, (kind, help_text) in METRIC_CATALOG.items():
        out.append(f"# HELP {family} {help_text}")
        out.append(f"# TYPE {family} {kind}")
        lines = by_family.pop(family, None)
        if lines:
            out.extend(lines)
        elif kind in ("counter", "gauge"):
            out.append(f"{family} 0")
        # A never-observed histogram family gets headers only.
    for family in sorted(by_family):  # ad-hoc families outside the catalog
        if family not in known:
            out.append(f"# TYPE {family} untyped")
        out.extend(by_family[family])
    return "\n".join(out) + "\n"


def write_textfile(path: str, reg: MetricsRegistry) -> None:
    """Atomically (re)write ``path`` with the registry's exposition."""
    atomic_write(path, render(reg).encode("utf-8"))


def parse_textfile(text: str) -> Dict[str, float]:
    """Parse an exposition back into ``{series: value}``.

    A deliberately strict little parser used by tests and the CI smoke
    job: comment/blank lines are skipped, every other line must be
    ``series value`` with a float value.
    """
    series: Dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name, sep, value = line.rpartition(" ")
        if not sep:
            raise ValueError(f"line {lineno}: not a series line: {raw!r}")
        series[name] = math.inf if value == "+Inf" else float(value)
    return series
