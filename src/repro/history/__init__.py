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

from .._lazy import surface

__all__, __getattr__, __dir__ = surface(__name__, {
    "OP_READ": ".columnar",
    "OP_WRITE": ".columnar",
    "ColumnarHistory": ".columnar",
    "build_record": ".columnar",
    "parse_record": ".columnar",
    "is_segment_path": ".columnar",
    "load_history_segment": ".columnar",
    "write_history_segment": ".columnar",
    "CheckpointInfo": ".epochlog",
    "EpochInfo": ".epochlog",
    "EpochLog": ".epochlog",
    "EpochLogError": ".epochlog",
    "EpochLogWriter": ".epochlog",
    "StreamFollower": ".files",
    "history_format": ".files",
    "is_epochlog_path": ".files",
    "is_stream_path": ".files",
    "load_columns": ".files",
    "read_segments": ".files",
    "write_history": ".files",
    "HistoryStreamWriter": ".serialization",
    "history_from_dict": ".serialization",
    "history_to_dict": ".serialization",
    "iter_history_jsonl": ".serialization",
    "load_history": ".serialization",
    "load_history_jsonl": ".serialization",
    "load_lwt_history": ".serialization",
    "lwt_history_from_dict": ".serialization",
    "lwt_history_to_dict": ".serialization",
    "save_history": ".serialization",
    "save_lwt_history": ".serialization",
    "transaction_from_dict": ".serialization",
    "transaction_to_dict": ".serialization",
    "write_history_jsonl": ".serialization",
})
