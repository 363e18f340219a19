"""One door for history files: what a path holds, how to read and write it.

Four containers hold the same rows (see :mod:`repro.history`); whatever
depends on *which* one a path names is decided here, once.  The byte
helpers every on-disk artefact shares live below in :mod:`repro.ondisk`;
the stream container imports this module, so it reaches the containers only
inside functions.
"""

from __future__ import annotations

import gzip
import json
import os
import warnings
from itertools import islice
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Union

from ..core.model import History, stream_order

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .columnar import ColumnarHistory

__all__ = [
    "StreamFollower",
    "history_format",
    "is_epochlog_path",
    "is_stream_path",
    "load_columns",
    "read_segments",
    "write_history",
]

#: Rows per segment when a JSONL stream is read as segments.
STREAM_SEGMENT_ROWS = 1024
STREAM_FORMAT = "repro-history-stream-v1"


# ----------------------------------------------------------------------
# The door
# ----------------------------------------------------------------------
def history_format(path: Union[str, Path]) -> str:
    """What ``path`` holds, asked in this order: an existing directory or a
    ``.epochs`` name is a ``"log"``, ``.seg[.gz]`` a ``"segment"``, ``.jsonl`` /
    ``.ndjson`` (``[.gz]``) a ``"stream"``, anything else a ``"document"``."""
    from .columnar import is_segment_path

    if is_epochlog_path(path):
        return "log"
    if is_segment_path(path):
        return "segment"
    return "stream" if is_stream_path(path) else "document"


def is_epochlog_path(path: Union[str, Path]) -> bool:
    """Whether ``path`` denotes an epoch-log directory.

    True for the conventional ``*.epochs`` suffix (even before the
    directory exists — output paths) and for any existing directory.
    """
    p = Path(path)
    return p.name.lower().endswith(".epochs") or p.is_dir()


def is_stream_path(path: Union[str, Path]) -> bool:
    """Whether ``path`` looks like a JSONL history stream (by suffix).

    Gzip-compressed streams (``*.jsonl.gz`` / ``*.ndjson.gz``) count: the
    stream reader, :class:`StreamFollower`, decompresses transparently.
    """
    name = Path(path).name.lower()
    if name.endswith(".gz"):
        name = name[: -len(".gz")]
    return name.endswith((".jsonl", ".ndjson"))


def _open_log(path: Union[str, Path]):
    """The epoch log at ``path``, refused when window GC retired part of it."""
    from .epochlog import EpochLog, EpochLogError

    log = EpochLog.open_existing(path)
    if log.retired_through >= 0:
        raise EpochLogError(
            f"{path}: epochs 0..{log.retired_through} were retired by window "
            "GC, so the full history is no longer on disk; use `repro watch` "
            "to resume from a checkpoint"
        )
    return log


def read_segments(path: Union[str, Path]) -> Iterator["ColumnarHistory"]:
    """Yield the history at ``path`` as columnar segments in arrival order:
    a document or a ``.seg`` is one, an epoch log yields its epochs, a stream
    is read lazily, :data:`STREAM_SEGMENT_ROWS` rows at a time."""
    from .columnar import ColumnarHistory

    kind = history_format(path)
    if kind == "log":
        for _entry, segment in _open_log(path).iter_segments():
            yield segment
    elif kind == "segment":
        # Uncompressed segments are mapped: a check never pages in the
        # columns it does not read (ARCHITECTURE.md, "Segment loads").
        yield ColumnarHistory.load(path, mmap=not str(path).lower().endswith(".gz"))
    elif kind == "stream":
        with StreamFollower(path) as follower:
            yield from iter(follower.poll, None)
            follower.warn()
    else:
        from .serialization import load_history

        yield ColumnarHistory.from_history(load_history(path))


def load_columns(path: Union[str, Path]) -> "ColumnarHistory":
    """The history at ``path`` as one set of columns, for a batch check: its
    :func:`read_segments` joined (a lone uncompressed segment stays
    memory-mapped)."""
    from .columnar import ColumnarHistory

    return ColumnarHistory.join(read_segments(path))


def write_history(
    source: Union[History, "ColumnarHistory", Iterable["ColumnarHistory"]],
    path: Union[str, Path],
    *,
    epoch_transactions: int = 1024,
) -> int:
    """Write ``source`` in the container ``path`` names; return the rows written.

    ``source`` is a :class:`History` (written in ``stream_order``), columns,
    or the segments of one history in arrival order (:func:`read_segments`).
    Rows go from columns to the destination; only a ``History`` written as a
    stream or a document is written from its objects, so its integer stamps
    stay integers.
    """
    from .columnar import ColumnarHistory
    from .epochlog import EpochLogWriter
    from .columnar import build_record
    from .serialization import HistoryStreamWriter, save_history

    kind = history_format(path)
    if isinstance(source, History):
        if kind == "document":
            save_history(source, path)
            return len(source.transactions())
        if kind == "stream":
            rows = list(stream_order(source))  # refused before the file is opened
            initial = source.initial_transaction
            with HistoryStreamWriter(path, initial_transaction=initial, flush_every=1024) as out:
                for txn in rows[initial is not None :]:
                    out.write(txn)
            return len(rows)
        source = ColumnarHistory.from_history(source)
    segments = iter((source,) if isinstance(source, ColumnarHistory) else source)
    if kind in ("segment", "document"):
        columns = ColumnarHistory.join(segments)
        if kind == "segment":
            columns.save(path)
        else:
            save_history(columns.to_history(), path)
        return columns.num_transactions
    # Read before the destination is opened: a missing or corrupt source
    # fails without creating an empty log or truncating a stream.
    first = next(segments, ColumnarHistory())
    if kind == "log":
        writer, lo = EpochLogWriter(path, epoch_transactions=epoch_transactions), 0
    else:  # a stream's ⊥T is its header's
        lo = int(first.has_initial)
        header = build_record(first.row_at(0)) if lo else None
        writer = HistoryStreamWriter(path, initial_transaction=header, flush_every=1024)
    rows = len(first)
    with writer:
        writer.extend(first, lo)
        for segment in segments:
            writer.extend(segment)
            rows += len(segment)
    return rows


# ----------------------------------------------------------------------
# Following a JSONL stream
# ----------------------------------------------------------------------
class StreamFollower:
    """Tail a JSONL history stream — the one reader of the format.

    The header is checked on construction (``ValueError`` naming the path).
    A line is a record once its newline has arrived; blank lines are
    skipped; an unterminated tail stays pending (:attr:`pending_bytes`)
    until it parses.  A gzip stream cut mid-member cannot be resumed: its
    complete prefix is delivered, then ``done`` turns true.  ``repro watch``
    asks it what it asks an ``EpochLog``: :meth:`poll`, :meth:`refresh`,
    ``position``, ``lag``, ``done``.
    """

    #: A stream has no sealed-but-unread backlog: what is readable is read.
    lag = 0

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = path
        #: Segments handed out by :meth:`poll`.
        self.position = 0
        #: Nothing more can ever be read (torn gzip member).
        self.done = False
        self._pending = ""
        with open(path, "rb") as probe:  # gzip by content, not by suffix
            gzipped = probe.read(2) == b"\x1f\x8b"
        self._fh = gzip.open(path, "rt", encoding="utf-8") if gzipped else open(path, encoding="utf-8")
        try:
            line = self._fh.readline()
            if not line.strip():
                raise ValueError("empty history stream (missing header)")
            try:
                header = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"not a {STREAM_FORMAT} stream: {exc}") from None
            if not isinstance(header, dict) or header.get("format") != STREAM_FORMAT:
                raise ValueError(f"not a {STREAM_FORMAT} stream")
        except EOFError:
            # A gzip member cut off before its end-of-stream marker — the
            # producer is still writing (or the copy was truncated).
            self._fh.close()
            raise ValueError(f"{path}: truncated compressed stream (no header)") from None
        except ValueError as exc:
            self._fh.close()
            raise ValueError(f"{path}: {exc}") from None
        self._initial = header.get("initial_transaction")

    @property
    def pending_bytes(self) -> int:
        """Length of the unterminated, not-yet-parseable tail (0 when none)."""
        return len(self._pending) if self._pending.strip() else 0

    def _records(self) -> Iterator[object]:
        """Yield the records readable right now, parsed, ``⊥T`` first, then
        stop."""
        if self._initial is not None:
            initial, self._initial = self._initial, None
            yield initial
        while not self.done:
            try:
                chunk = self._fh.readline()
            except EOFError:
                self.done = True
                return
            line = self._pending = self._pending + chunk
            if line.strip():
                if chunk and not line.endswith("\n"):
                    continue  # the rest of the line may already be readable
                try:
                    payload = json.loads(line)
                except json.JSONDecodeError:
                    if line.endswith("\n"):
                        raise
                    return  # torn tail: pending until the producer completes it
                self._pending = ""
                yield payload
            elif line.endswith("\n"):
                self._pending = ""
            if not chunk:
                return

    def poll(self) -> Optional["ColumnarHistory"]:
        """The newly readable records (at most :data:`STREAM_SEGMENT_ROWS`),
        parsed into one segment's columns, else ``None``."""
        from .columnar import ColumnarHistory, parse_record

        segment = ColumnarHistory()
        try:
            for record in islice(self._records(), STREAM_SEGMENT_ROWS):
                segment.append_raw(*parse_record(record))
        except json.JSONDecodeError:
            if not segment.num_transactions:
                raise
            # The rows before a malformed line are verified first; the line
            # is still pending, so the next poll raises.
        if not segment.num_transactions:
            return None
        self.position += 1
        return segment

    def refresh(self) -> None:
        """Raise ``ValueError`` when the file is gone: the open handle keeps it
        readable on POSIX, but no producer can ever append to it again."""
        if not os.path.exists(self.path):
            raise ValueError(
                f"{self.path}: stream deleted while being followed; "
                "stopping at the last complete transaction"
            )

    def warn(self) -> None:
        """``UserWarning`` for a stream that ended torn (one-shot readers)."""
        if self.done:
            warnings.warn(
                f"{self.path}: compressed stream truncated mid-member "
                f"(producer still writing?); stopping at the last "
                f"complete transaction",
                stacklevel=3,
            )
        if self.pending_bytes:
            warnings.warn(
                f"{self.path}: skipping torn final line "
                f"({self.pending_bytes} bytes without a newline)",
                stacklevel=3,
            )

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "StreamFollower":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
