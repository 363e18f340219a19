"""Bytes on disk: atomic publish, the magic + header + CRC frame, typed
columns packed as deflated byte planes.  Imports nothing from the
package, so :mod:`repro.obs` and :mod:`repro.history` both build on it
without importing each other."""

from __future__ import annotations

import json
import os
import sys
import zlib
from array import array
from pathlib import Path
from typing import IO, Any, Callable, Dict, List, Optional, Tuple, Union

__all__ = ["atomic_write", "frame", "unframe", "pack_columns", "unpack_columns"]

#: Typecodes a packed column may have: flags and small codes, ids and values,
#: stamps and order indices.
COLUMN_TYPECODES = ("b", "q", "d")
#: Deflate's largest expansion: a deflate stream inflates to at most this many
#: times its size, which bounds what a header may claim before anything is
#: allocated.
DEFLATE_MAX_RATIO = 1032
#: Deflate level of packed columns — part of the format, not a knob.  The
#: rule: the cheapest level whose checkpoint file is no larger than the
#: previous format's for the same session.  Measured on checkpoint states
#: (docs/ARCHITECTURE.md; window 512/2048 x SER/SI/SSER x 3 seeds): every
#: level 1-9 writes 11-35 % fewer bytes than the JSON/gzip checkpoint, so the
#: rule picks the fastest, 1 (deflate 13-52 % faster than level 4 in all 18
#: cells: the byte planes of small ints are long zero runs).
PACK_DEFLATE_LEVEL = 1


def atomic_write(
    path: Union[str, Path], data: Union[bytes, Callable[[IO[bytes]], object]]
) -> None:
    """Publish ``data`` at ``path``: staging file, fsync, ``os.replace``.

    A failed write leaves the previous file alone.  ``data`` is the bytes, or
    a callable that streams them into the open staging file — ``.{name}.tmp``
    beside ``path``, the name the epoch log sweeps after a kill.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "wb") as fh:
            if callable(data):
                data(fh)
            else:
                fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise


def frame(magic: bytes, header: Dict[str, Any], payload: bytes) -> bytes:
    """``magic`` + one JSON header line + ``payload``; the header gains the
    payload's ``crc32`` and ``payload_bytes``, which :func:`unframe` verifies."""
    stamped = {**header, "crc32": zlib.crc32(payload), "payload_bytes": len(payload)}
    line = json.dumps(stamped, separators=(",", ":"))
    return magic + line.encode("utf-8") + b"\n" + payload


def unframe(magic: bytes, blob: bytes) -> Optional[Tuple[Dict[str, Any], bytes]]:
    """``(header, payload)`` of a :func:`frame` blob; ``None`` (a miss, never an
    error) for other magic, a torn header, a wrong payload length or CRC."""
    if not blob.startswith(magic):
        return None
    header_line, _, payload = blob[len(magic):].partition(b"\n")
    try:
        header = json.loads(header_line)
    except ValueError:
        return None
    if (
        not isinstance(header, dict)
        or header.get("payload_bytes") != len(payload)
        or header.get("crc32") != zlib.crc32(payload)
    ):
        return None
    return header, payload


def pack_columns(doc: Dict[str, Any]) -> Tuple[Dict[str, Any], bytes]:
    """``doc`` — nested dicts whose leaves are JSON values or typed ``array``
    columns — as ``(header, payload)`` for :func:`frame`.

    The payload is one deflate stream (at :data:`PACK_DEFLATE_LEVEL`) of a
    JSON line — the
    non-array leaves under ``"doc"``, each column's dotted path, typecode and
    length under ``"columns"`` — followed by the columns grouped by item size,
    each group split into byte planes (byte ``j`` of every item, then byte
    ``j + 1``: the high bytes of small ints become long zero runs).  The
    header holds the inflated size, which :func:`unpack_columns` checks before
    it inflates anything.
    """
    columns: List[Tuple[str, array]] = []

    def split(table: Dict[str, Any], prefix: str) -> Dict[str, Any]:
        rest = {}
        for name, value in table.items():
            if isinstance(value, array):
                if value.typecode not in COLUMN_TYPECODES:
                    raise ValueError(f"column {prefix + name!r}: typecode {value.typecode!r} cannot be packed")
                columns.append((prefix + name, value))
            else:
                rest[name] = split(value, f"{prefix}{name}.") if isinstance(value, dict) else value
        return rest

    line = {"byteorder": sys.byteorder, "doc": split(doc, "")}
    line["columns"] = [[path, column.typecode, len(column)] for path, column in columns]
    parts = [json.dumps(line, separators=(",", ":")).encode("utf-8"), b"\n"]
    for size in sorted({column.itemsize for _, column in columns}):
        group = b"".join(column.tobytes() for _, column in columns if column.itemsize == size)
        parts.extend(group[plane::size] for plane in range(size))
    inflated = b"".join(parts)
    return {"inflated_bytes": len(inflated)}, zlib.compress(inflated, PACK_DEFLATE_LEVEL)


def unpack_columns(header: Dict[str, Any], payload: bytes) -> Dict[str, Any]:
    """The ``doc`` a :func:`pack_columns` ``(header, payload)`` holds.

    Raises ``ValueError`` (or ``zlib.error``) for a declared size past the
    deflate bound or other than the stream's, a typecode outside
    :data:`COLUMN_TYPECODES`, column lengths that disagree with the planes,
    or a column path that lands on something other than a new name in a
    table; nothing larger than the declared size is ever allocated.
    """
    size = header.get("inflated_bytes")
    if type(size) is not int or not 0 < size <= len(payload) * DEFLATE_MAX_RATIO:
        raise ValueError(f"inflated size {size!r} is past the deflate bound of {len(payload)} bytes")
    inflater = zlib.decompressobj()
    inflated = inflater.decompress(payload, size)
    if len(inflated) != size or not inflater.eof or inflater.unconsumed_tail or inflater.unused_data:
        raise ValueError(f"the deflate stream does not inflate to the declared {size} bytes")
    line_end = inflated.index(b"\n")
    line = json.loads(inflated[:line_end])
    if not isinstance(line, dict):
        raise ValueError("malformed column header")
    doc, schema, byteorder = line.get("doc"), line.get("columns"), line.get("byteorder")
    if not isinstance(doc, dict) or not isinstance(schema, list) or byteorder not in ("little", "big"):
        raise ValueError("malformed column header")
    entries = []
    for entry in schema:
        path, typecode, count = entry if isinstance(entry, list) and len(entry) == 3 else (entry, None, None)
        if not isinstance(path, str) or typecode not in COLUMN_TYPECODES or type(count) is not int or count < 0:
            raise ValueError(f"column {path!r}: unknown typecode {typecode!r} or bad length {count!r}")
        entries.append((path, array(typecode), count))
    sizes = sorted({column.itemsize for _, column, _ in entries})
    totals = {s: sum(count for _, column, count in entries if column.itemsize == s) for s in sizes}
    planes = memoryview(inflated)[line_end + 1:]
    if sum(s * n for s, n in totals.items()) != len(planes):
        raise ValueError("column lengths disagree with the payload")
    at = 0
    for s in sizes:
        n = totals[s]
        group = bytearray(s * n)
        for plane in range(s):
            group[plane::s] = planes[at + plane * n : at + (plane + 1) * n]
        at += s * n
        offset = 0
        for path, column, count in entries:
            if column.itemsize == s:
                column.frombytes(group[offset : offset + s * count])
                offset += s * count
                if byteorder != sys.byteorder:
                    column.byteswap()
    for path, column, _ in entries:
        *tables, name = path.split(".")
        table = doc
        for part in tables:
            table = table.get(part)
            if not isinstance(table, dict):
                raise ValueError(f"column {path!r} is not under a table")
        if name in table:
            raise ValueError(f"column {path!r} is written twice")
        table[name] = column
    return doc

