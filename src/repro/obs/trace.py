"""Structured JSONL tracing: spans with monotonic timestamps and parent ids.

A trace is an append-only JSONL file, one completed span per line:

    {"name": "check", "id": 3, "parent": null, "ts": 1.204, "dur": 0.031}

``ts`` is ``time.monotonic()`` at span start (a process-local clock — only
deltas within one trace are meaningful), ``dur`` the wall-clock extent, and
``parent`` the id of the enclosing span on the same thread (``None`` at the
root).  Spans are written when they *close*, so a crash loses at most the
open spans plus — like the JSONL history format — a torn final line, which
:func:`iter_trace` tolerates.  Extra keyword fields on a span land as
additional JSON keys.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from typing import Any, Dict, Iterator, List, Optional

__all__ = ["TraceWriter", "Span", "iter_trace"]


class Span:
    """A single timed unit of work; use as a context manager."""

    __slots__ = ("writer", "name", "span_id", "parent_id", "fields",
                 "started", "_closed")

    def __init__(
        self,
        writer: "TraceWriter",
        name: str,
        span_id: int,
        parent_id: Optional[int],
        fields: Dict[str, Any],
    ) -> None:
        self.writer = writer
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.fields = fields
        self.started = time.monotonic()
        self._closed = False

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        if exc_type is not None:
            self.fields.setdefault("error", exc_type.__name__)
        self.close()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.writer._finish(self)


class TraceWriter:
    """Appends completed spans to a JSONL file, one line per span.

    Thread-safe: span ids come from a shared counter and writes are
    serialised under a lock; the parent-span stack is per-thread, so
    collector session threads each get their own span lineage.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._fh = open(path, "a", encoding="utf-8")
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def span(self, name: str, **fields: Any) -> Span:
        """Open a span; parented under the thread's innermost open span."""
        stack = self._stack()
        parent_id = stack[-1].span_id if stack else None
        span = Span(self, name, next(self._ids), parent_id, dict(fields))
        stack.append(span)
        return span

    def _finish(self, span: Span) -> None:
        stack = self._stack()
        if span in stack:
            # Pop through the closing span; tolerate out-of-order closes.
            while stack and stack.pop() is not span:
                pass
        record: Dict[str, Any] = {
            "name": span.name,
            "id": span.span_id,
            "parent": span.parent_id,
            "ts": round(span.started, 6),
            "dur": round(time.monotonic() - span.started, 6),
        }
        record.update(span.fields)
        line = json.dumps(record, sort_keys=True, default=str)
        with self._lock:
            if not self._fh.closed:
                self._fh.write(line + "\n")
                self._fh.flush()

    def close(self) -> None:
        with self._lock:
            if not self._fh.closed:
                self._fh.close()


def iter_trace(path: str) -> Iterator[Dict[str, Any]]:
    """Yield span records from a trace file.

    A torn *final* line (crash mid-append) is skipped, matching the JSONL
    history reader's contract; a malformed line anywhere else raises
    ``ValueError`` — that is corruption, not a crash artefact.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    for lineno, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            yield json.loads(line)
        except json.JSONDecodeError:
            if lineno == len(lines) - 1:
                return  # torn final line: tolerated
            raise ValueError(
                f"{path}: malformed trace record at line {lineno + 1}"
            ) from None
