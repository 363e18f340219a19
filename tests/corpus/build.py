"""Build the frozen corpus: ``PYTHONPATH=src python tests/corpus/build.py [DIR]``.

Every source is deterministic, so a rebuild is byte-identical (CI ``cmp``s
it).  ``EXPECTED`` has one JSON line per entry: per level, the ``batch`` and
``stream`` verdicts with sorted anomaly kinds, the ``window`` verdict with
its ``stale_reads``, and the baselines that ``agree`` (``null``: too large).
An ``exit: 2`` entry is refused by every unwindowed route with a message
holding ``error``.  A ``flag:`` entry is an ``argv`` whose ``{log}`` is the
epoch log of ``base``; a ``log:`` entry is that log with its manifest
damaged as ``damage`` says (without ``exit``, it reads as ``base`` does).
"""

import gzip
import json
import sys
from functools import partial
from pathlib import Path

from repro import Database, IsolationLevel, MTChecker, run_workload
from repro.adapters import collect_history, make_adapter
from repro.baselines import CobraChecker, DbcopChecker, PolySIChecker
from repro.core.anomalies import anomaly_catalog
from repro.core.divergence import find_divergence
from repro.core.graph import build_dependency
from repro.core.intcheck import check_internal_consistency
from repro.core.model import History, Transaction, TransactionStatus, read, write
from repro.db import FaultPlan
from repro.history import ColumnarHistory, load_columns, write_history
from repro.workloads.mt_generator import MTWorkloadGenerator

LEVELS = {
    "ser": IsolationLevel.SERIALIZABILITY,
    "si": IsolationLevel.SNAPSHOT_ISOLATION,
    "sser": IsolationLevel.STRICT_SERIALIZABILITY,
}
WINDOW = 8
#: Largest committed count the solver baselines are run on.
BASELINE_MAX = 40
BASELINES = {"cobra": ("ser", CobraChecker), "dbcop": ("ser", DbcopChecker), "polysi": ("si", PolySIChecker)}
#: The entry the ``flag:`` and ``log:`` entries are built on.
BASE = "engine-si-healthy.seg"
COMMITTED, ABORTED, UNKNOWN = TransactionStatus.COMMITTED, TransactionStatus.ABORTED, TransactionStatus.UNKNOWN
DUPLICATE = {"exit": 2, "error": "duplicate transaction id 1"}
INVERTED = {"exit": 2, "error": "finishes at"}


def txn(txn_id, *ops, session=0, status=COMMITTED):
    return Transaction(txn_id, list(ops), session_id=session, status=status)


def timed(txn_id, start, finish, *ops, session=0):
    return Transaction(txn_id, list(ops), session_id=session, start_ts=start, finish_ts=finish)


def history(*sessions, keys=("x", "y")):
    return History.from_transactions(list(sessions), initial_keys=list(keys))


def lost_update(second_id=2, second_status=COMMITTED):
    return history([txn(1, read("x", 0), write("x", 1))],
                   [txn(second_id, read("x", 0), write("x", 2), session=1, status=second_status)], keys=("x",))


def chain(first, count):
    """``count`` read-modify-writes of ``y``, each reading the one before."""
    return [txn(first + i, read("y", first + i - 1 if i else 0), write("y", first + i)) for i in range(count)]


def runner_history(engine, fault, seed):
    workload = MTWorkloadGenerator(
        num_sessions=3, txns_per_session=6, num_objects=4, distribution="zipf", seed=seed
    ).generate()
    faults = FaultPlan.for_anomaly(fault, rate=0.6, seed=seed) if fault else None
    return run_workload(Database(engine, keys=workload.keys, faults=faults), workload, seed=seed + 1).history


def chaos_history(fault, seed=3):
    workload = MTWorkloadGenerator(num_sessions=3, txns_per_session=6, num_objects=4, seed=seed).generate()
    adapter = make_adapter("simulated", chaos=fault, chaos_rate=0.5, seed=seed)
    # One session at a time: a retry's backoff cannot reorder the sessions.
    return collect_history(adapter, workload, max_inflight=1).columns.to_history()


def mutated(mutation):
    """The lost update's columns, damaged as ``mutation`` says (checksums hold)."""
    columns = ColumnarHistory.from_history(lost_update())
    if mutation == "key-id-too-large":
        columns.op_keys[1] = len(columns.key_names)
    elif mutation == "key-id-negative":
        columns.op_keys[1] = -1
    elif mutation == "offsets-not-sorted":
        columns.op_offsets[1], columns.op_offsets[2] = columns.op_offsets[2], columns.op_offsets[1]
    elif mutation == "offsets-past-the-end":
        columns.op_offsets[-1] += 1
    elif mutation == "status-unknown":
        columns.statuses[1] = 7
    elif mutation == "kind-unknown":
        columns.op_kinds[1] = 2
    else:
        columns.op_values.pop()
    return columns


#: Header edits ``save`` could never write: name -> (edit, the refusal's words).
HEADER_EDITS = {
    "not-an-object": (lambda header: [1, 2], "not a JSON object"),
    "key-names-not-a-list": (lambda header: {**header, "key_names": 7}, "key_names is not a list of strings"),
    "columns-not-a-list": (lambda header: {**header, "columns": 5}, "columns is not a list of"),
    "typecode-unicode": (lambda header: column_edit(header, 1, "u"), "has typecode 'u', not 'q'"),
    "typecode-number": (lambda header: column_edit(header, 1, 5), "has typecode 5, not 'q'"),
    "nbytes-string": (lambda header: column_edit(header, 2, "abc"), "nbytes 'abc' is not a non-negative"),
    "nbytes-float": (lambda header: column_edit(header, 2, 8.0), "nbytes 8.0 is not a non-negative"),
    "nbytes-negative": (lambda header: column_edit(header, 2, -8), "nbytes -8 is not a non-negative"),
    "nbytes-not-a-multiple": (lambda header: column_edit(header, 2, 7), "nbytes 7 is not a non-negative"),
    "nbytes-past-the-end": (lambda header: column_edit(header, 2, 1 << 40), "truncated segment column 'txn_ids'"),
    "byteorder-middle": (lambda header: {**header, "byteorder": "middle"}, "byteorder 'middle' is not"),
}


def column_edit(header, field, value):
    """``header`` with field ``field`` of its first column (``txn_ids``) set to ``value``."""
    first = list(header["columns"][0])
    first[field] = value
    return {**header, "columns": [first, *header["columns"][1:]]}


def lost_update_segment(out):
    """The bytes of the lost update's segment file."""
    scratch = out / ".lost-update.seg"
    ColumnarHistory.from_history(lost_update()).save(scratch)
    data = scratch.read_bytes()
    scratch.unlink()
    return data


def edited_header(edit, out):
    """The lost update's segment bytes with its JSON header line rewritten by ``edit``."""
    magic, header, body = lost_update_segment(out).split(b"\n", 2)
    return b"\n".join((magic, json.dumps(edit(json.loads(header)), separators=(",", ":")).encode(), body))


def trailer_cut(out):
    """The lost update's segment as one gzip member (stored blocks and no
    mtime, so the bytes never vary), its last 4 bytes (the length) cut off."""
    return gzip.compress(lost_update_segment(out), compresslevel=0, mtime=0)[:-4]


def concatenated(out):
    """Two whole segment files, one behind the other (``cat a.seg b.seg``)."""
    return (out / BASE).read_bytes() + (out / "engine-si-lostupdate.seg").read_bytes()


def entries():
    """``(file name, source, rows, extra EXPECTED fields)`` per file entry."""
    for name, spec in anomaly_catalog().items():
        yield f"catalog-{name}.jsonl", f"Table I catalog: {name}", spec.build(), {}
    for seed, engine in enumerate(("si", "serializable", "s2pl", "read-committed"), 1):
        for fault in (None, "lostupdate", "writeskew", "staleread", "abortedread"):
            source = f"runner: {engine}{f' + FaultPlan {fault}' if fault else ''}, seed {seed}"
            yield f"engine-{engine}-{fault or 'healthy'}.seg", source, runner_history(engine, fault, seed), {}
    for fault in ("lost-write", "stale-read", "duplicate-commit"):
        yield f"chaos-{fault}.seg", f"coroutine collector: si + chaos {fault}, seed 3", chaos_history(fault), {}
    yield "aborted-rows.jsonl", "hand: aborted writers nobody reads", history(
        [txn(1, read("x", 0), write("x", 1)), txn(2, read("x", 1), write("x", 9), status=ABORTED)],
        [txn(3, read("x", 1), write("x", 3), session=1), txn(4, read("y", 0), write("y", 4), session=1, status=ABORTED)],
    ), {}
    yield "unknown-read-of-unknown-write.jsonl", "hand: a committed read of an UNKNOWN row's write", history(
        [txn(1, read("x", 0), write("x", 1), status=UNKNOWN)], [txn(2, read("x", 1), write("x", 2), session=1)],
    ), {}
    yield "unknown-hides-lost-update.jsonl", "hand: a lost update whose second writer is UNKNOWN", lost_update(
        second_status=UNKNOWN), {}
    yield "rt-stale-read.jsonl", "hand: a read of x=0 that starts after x=1 committed", history(
        [timed(1, 0.0, 1.0, read("x", 0), write("x", 1))], [timed(2, 2.0, 3.0, read("x", 0), session=1)]), {}
    yield "rt-touching-intervals.jsonl", "hand: that stale read starts the instant x=1 commits", history(
        [timed(1, 0.0, 1.0, read("x", 0), write("x", 1))], [timed(2, 1.0, 2.0, read("x", 0), session=1)]), {}
    yield "rt-untimed-row.jsonl", "hand: that stale read, but the writer of x=1 carries no stamps", history(
        [txn(1, read("x", 0), write("x", 1))], [timed(2, 5.0, 6.0, read("x", 0), session=1)],
        [timed(3, 0.0, 1.0, read("y", 0), write("y", 3), session=2)]), {}
    yield "exit2-rt-inverted-interval.jsonl", "hand: inverted rows, a start in one's gap; a stale read past it", history(
        [timed(1, 0.0, 1.0, read("x", 0), write("x", 1))], [timed(2, 5.0, 2.0, read("y", 0), session=1)],
        [timed(3, 3.0, 4.0, read("x", 0), session=2)], [timed(4, 5.5, 5.8, read("y", 0), write("y", 4), session=3)],
        [timed(5, 6.0, 7.0, read("y", 0), session=4)], [timed(6, 9.0, 8.5, read("x", 1), session=5)]), INVERTED
    yield "exit2-rt-inverted-stale-read.jsonl", "hand: a stale read across an inverted row's gap, that row last", history(
        [timed(1, 0.0, 1.0, read("y", 0), write("y", 1))], [timed(2, 10.0, 11.0, read("y", 0), session=1)],
        [timed(3, 7.0, 6.0, read("y", 1), session=2)], keys=("y",)), INVERTED
    yield "rt-bipartite.jsonl", "hand: 8 rows finish before 8 others start; one of those reads stale", history(
        *([timed(i + 1, 0.0, 1.0, *([read("x", 0), write("x", 1)] if i == 0 else [read("y", 0)]), session=i)]
          for i in range(8)),
        *([timed(i + 9, 2.0, 3.0, read("x", 0 if i == 0 else 1), session=i + 8)] for i in range(8))), {}
    for name, ops in (("valueless-first-read", [read("x", None), write("x", 1)]),
                      ("valueless-then-valued", [read("x", None), read("x", 0)]),
                      ("valueless-only", [read("x", None)])):
        yield f"{name}.jsonl", "hand: a read without a value", history([txn(1, *ops)]), {}
    yield "window-bounded.jsonl", "hand: a lost update on a version 1 row old, after 20 rows", history(
        [*chain(1, 20), txn(21, read("y", 20), write("y", 21)), txn(22, read("y", 20), write("y", 22))]), {}
    yield "window-stale-read.jsonl", "hand: a lost update whose halves are 21 rows apart", history(
        [txn(1, read("x", 0), write("x", 1)), *chain(2, 20), txn(22, read("x", 0), write("x", 22))]), {}
    yield "exit2-duplicate-id.jsonl", "hand: both halves of a lost update have id 1", lost_update(1), DUPLICATE
    yield "window-evicted-duplicate-id.jsonl", "hand: id 1 again, 21 rows after the first", history(
        [txn(1, read("x", 0), write("x", 1)), *chain(2, 20), txn(1, read("x", 1), write("x", 22))]), DUPLICATE
    for mutation in ("key-id-too-large", "key-id-negative", "offsets-not-sorted", "offsets-past-the-end",
                     "status-unknown", "kind-unknown", "column-too-short"):
        yield (f"exit2-seg-{mutation}.seg", f"segment mutation: {mutation}", mutated(mutation),
               {"exit": 2, "error": "malformed segment"})
    for damage, (edit, error) in HEADER_EDITS.items():
        yield (f"exit2-seg-header-{damage}.seg", f"segment header edit: {damage}", partial(edited_header, edit),
               {"exit": 2, "error": error})
    yield ("exit2-seg-trailing-bytes.seg", f"bytes: {BASE}, then engine-si-lostupdate.seg", concatenated,
           {"exit": 2, "error": "bytes past the last segment column"})
    yield ("exit2-seg-gz-trailer-cut.seg.gz", "bytes: the lost update's .seg.gz, cut 4 bytes into its trailer",
           trailer_cut, {"exit": 2, "error": "truncated segment"})


def pseudo_entries():
    """The ``EXPECTED`` lines of the entries without a file of their own."""
    yield {"entry": "flag:collect --txn-deadline 0", "source": "every session abandoned", "exit": 2,
           "error": "--txn-deadline must be positive", "argv": [
               "collect", "--adapter", "simulated", "--sessions", "2", "--txns", "2", "--txn-deadline", "0",
               "--check", "ser"]}
    for flag, value in (("--checkpoint-every", "0"), ("--checkpoint-every", "-1"), ("--window", "0"),
                        ("--window", "-5"), ("--interval", "-1"), ("--interval", "nan"), ("--max-seconds", "-1"),
                        ("--max-seconds", "nan"), ("--metrics-every", "-1"), ("--metrics-every", "nan")):
        yield {"entry": f"flag:watch {flag} {value}", "source": "watch flag out of range", "exit": 2,
               "error": flag, "base": BASE, "argv": ["watch", "--once", flag, value, "{log}"]}
    yield {"entry": "log:foreign-record", "source": "a CRC-valid manifest record naming another file",
           "exit": 2, "error": "checksum", "base": BASE, "damage": "foreign-record"}
    yield {"entry": "log:torn-record", "source": "the last manifest record cut mid-line",
           "base": BASE, "damage": "torn-record"}
    yield {"entry": "log:v1-manifest", "source": "MANIFEST.log renamed MANIFEST.json, the repro-epoch-log-v1 name",
           "exit": 2, "error": "MANIFEST.json is the manifest of the older", "base": BASE, "damage": "v1-manifest"}


def describe(result):
    kinds = sorted({v.kind.value for v in result.violations})
    return "SATISFIED" if result.satisfied else "VIOLATED " + ",".join(kinds)


def reference_satisfied(rows, level):
    """Algorithm 1 on the object model: no index, no CSR kernel."""
    if check_internal_consistency(rows):
        return False
    if level is IsolationLevel.SNAPSHOT_ISOLATION:
        return find_divergence(rows) is None and build_dependency(rows).si_induced_graph().find_cycle() is None
    return build_dependency(rows, with_rt=level is IsolationLevel.STRICT_SERIALIZABILITY).find_cycle() is None


def agreeing_baselines(rows, batch):
    """The baselines whose verdict equals ``batch`` (level -> described verdict)."""
    return sorted(name for name, (short, checker) in BASELINES.items()
                  if checker().check(rows).satisfied == (batch[short] == "SATISFIED"))


def windowed(columns, level):
    session = MTChecker().session(level, window=WINDOW)
    session.ingest_segment(columns)
    return f"{describe(session.result())} stale_reads={session.stale_reads}"


def expected(name, source, columns, extra):
    line = {"entry": name, "source": source}
    if "exit" not in extra:
        rows = columns.to_history()
        line["batch"], line["stream"] = {}, {}
        for short, level in LEVELS.items():
            batch, session = MTChecker().verify(columns, level), MTChecker().session(level)
            session.ingest_segment(columns)
            line["batch"][short], line["stream"][short] = describe(batch), describe(session.result())
            if not batch.satisfied == session.result().satisfied == reference_satisfied(rows, level):
                raise SystemExit(f"{name}: kernel, streaming checker and reference disagree at {short}")
    line["window"] = {"rows": WINDOW}
    for short, level in LEVELS.items():
        try:
            line["window"][short] = windowed(columns, level)
        except ValueError:
            pass  # refused on the windowed route too
    if "exit" not in extra:
        small = len(rows.committed_transactions()) <= BASELINE_MAX
        line["agree"] = agreeing_baselines(rows, line["batch"]) if small else None
    return {**line, **extra}


def build(out):
    out.mkdir(parents=True, exist_ok=True)
    lines = list(pseudo_entries())
    for name, source, rows, extra in entries():
        if isinstance(rows, ColumnarHistory):  # damaged: written as it is, never loaded
            rows.save(out / name)
            lines.append({"entry": name, "source": source, **extra})
        elif callable(rows):  # bytes (built from the entries before): written, never loaded
            (out / name).write_bytes(rows(out))
            lines.append({"entry": name, "source": source, **extra})
        else:
            write_history(rows, out / name)
            lines.append(expected(name, source, load_columns(out / name), extra))
    with open(out / "EXPECTED", "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(line) + "\n" for line in sorted(lines, key=lambda line: line["entry"]))


if __name__ == "__main__":
    build(Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parent)
