"""History persistence: JSON documents, streaming JSONL, columnar segments.

Four formats, one data model:

* ``*.json`` — a single JSON document (archival);
* ``*.jsonl`` / ``*.ndjson`` (optionally ``.gz``) — a line-oriented stream
  (live tailing, interchange, debugging);
* ``*.seg`` (optionally ``.gz``) — a binary columnar segment
  (:mod:`repro.history.columnar`), the fast path into the checker: its
  columns are read as they were written;
* ``*.epochs/`` — a durable epoch-log directory
  (:mod:`repro.history.epochlog`): crash-safe multi-segment storage with
  a manifest, verifier checkpoints, and window-GC retirement — the
  substrate of the resumable verification service.

``repro convert`` moves histories losslessly between all of them, through
the one door that knows which is which: :mod:`repro.history.files`
(:func:`history_format`, :func:`read_segments` / :func:`load_columns`,
:func:`write_history`, :class:`StreamFollower`).
"""

from .columnar import (
    OP_READ,
    OP_WRITE,
    ColumnarHistory,
    is_segment_path,
    load_history_segment,
    write_history_segment,
)
from .epochlog import (
    CheckpointInfo,
    EpochInfo,
    EpochLog,
    EpochLogError,
    EpochLogWriter,
    is_epochlog_path,
)
from .files import (
    StreamFollower,
    history_format,
    load_columns,
    read_segments,
    write_history,
)
from .serialization import (
    HistoryStreamWriter,
    history_from_dict,
    history_to_dict,
    is_stream_path,
    iter_history_jsonl,
    load_history,
    load_history_jsonl,
    load_lwt_history,
    lwt_history_from_dict,
    lwt_history_to_dict,
    open_history_stream,
    parse_stream_header,
    save_history,
    save_lwt_history,
    transaction_from_dict,
    transaction_to_dict,
    write_history_jsonl,
)

__all__ = [
    "CheckpointInfo",
    "ColumnarHistory",
    "OP_READ",
    "OP_WRITE",
    "EpochInfo",
    "EpochLog",
    "EpochLogError",
    "EpochLogWriter",
    "HistoryStreamWriter",
    "StreamFollower",
    "history_format",
    "load_columns",
    "read_segments",
    "write_history",
    "is_epochlog_path",
    "history_from_dict",
    "history_to_dict",
    "is_segment_path",
    "is_stream_path",
    "iter_history_jsonl",
    "load_history",
    "load_history_jsonl",
    "load_history_segment",
    "load_lwt_history",
    "lwt_history_from_dict",
    "lwt_history_to_dict",
    "open_history_stream",
    "parse_stream_header",
    "save_history",
    "save_lwt_history",
    "transaction_from_dict",
    "transaction_to_dict",
    "write_history_jsonl",
    "write_history_segment",
]
