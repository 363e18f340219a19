"""Measurement utilities for the experiment harness.

The paper reports wall-clock time (split into history generation and
verification) and peak memory for end-to-end checking.  This module wraps
``time.perf_counter`` and ``tracemalloc`` so every benchmark reports the
same quantities.
"""

from __future__ import annotations

import time
import tracemalloc
from dataclasses import dataclass
from typing import Any, Callable

__all__ = ["Measurement", "measure"]


@dataclass
class Measurement:
    """Result of measuring one callable."""

    seconds: float
    peak_memory_mb: float
    value: Any = None


def measure(fn: Callable[[], Any]) -> Measurement:
    """Run ``fn`` once, measuring wall-clock time and peak memory.

    Peak memory is the Python-allocator high-water mark during the call (via
    ``tracemalloc``); it tracks the relative memory behaviour the paper
    reports, not RSS.
    """
    tracemalloc.start()
    started = time.perf_counter()
    value = fn()
    elapsed = time.perf_counter() - started
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return Measurement(seconds=elapsed, peak_memory_mb=peak / (1024 * 1024), value=value)
