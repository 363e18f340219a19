"""Linear time as a test: the work a route does per row is flat in n.

Wall-clock ratios cannot tell a linear route from a quadratic one on a
shared machine; the number of Python trace events can.  Each route runs at
n and 8n rows (the key count grows with the rows, so a per-row scan of the
key table grows too), and its work per row may grow by at most 1.25x.

Blind spot: work done inside one C call (``sorted``, ``list.index``,
``x in list``) is one trace event whatever its length;
``tests/test_index.py::TestBytesPerRow`` covers the index's bytes instead,
the SSER reject gate also bounds its traced peak bytes per row, and the
SER / SI accept gate those of the index scan.
"""

import sys
import tracemalloc

import pytest

from repro.bench import generate_mt_history
from repro.core.checker import MTChecker
from repro.core.incremental import CheckerSession
from repro.core.index import HistoryIndex
from repro.core.model import History, Transaction, read, stream_order, write
from repro.core.result import AnomalyKind, IsolationLevel
from repro.db import FaultPlan
from repro.history import load_columns, write_history
from repro.history.columnar import ColumnarHistory

SESSIONS = 16
SMALL = 25  # transactions per session: about 460 rows; 8x that about 3 300


def work(fn):
    """The number of trace events (calls, lines, returns) ``fn()`` makes."""
    events = 0

    def count(frame, event, arg):
        nonlocal events
        events += 1
        return count

    previous = sys.gettrace()
    sys.settrace(count)
    try:
        fn()
    finally:
        sys.settrace(previous)
    return events


@pytest.fixture(scope="module")
def histories():
    """A healthy history at n and 8n rows, four keys per session transaction."""
    return [
        generate_mt_history(
            isolation="serializable", num_sessions=SESSIONS, txns_per_session=tps,
            num_objects=4 * tps, seed=5,
        ).history
        for tps in (SMALL, 8 * SMALL)
    ]


def peak_bytes(fn):
    """The traced peak of the memory ``fn()`` allocates, in bytes."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def bipartite_lost_update(rows, *, early=False):
    """Half the rows finish before the other half start, so the reduced
    real-time order has rows²/4 pairs, and the last two rows read one
    version and both overwrite it: a lost update, found by the labeler's
    DFS below the first early row.  With ``early`` the last two rows of
    the early half hold it instead, so the DFS reaches it only behind
    every early row, each with the whole late half as its reduced
    real-time successors (ARCHITECTURE "SSER's real-time order as a
    chain")."""
    half = rows // 2
    txns = [
        Transaction(i, [read("x", 0)], session_id=i,
                    start_ts=0.0 if i <= half else 2.0, finish_ts=1.0 if i <= half else 3.0)
        for i in range(1, 2 * half + 1)
    ]
    writers = txns[half - 2:half] if early else txns[-2:]
    for value, txn in enumerate(writers, 1):
        txn.operations[:] = [read("y", 0), write("y", value)]
    return History.from_transactions([[t] for t in txns], initial_keys=["x", "y"])


def assert_flat(per_row):
    small, large = per_row
    assert large <= 1.25 * small, f"work per row grew {large / small:.2f}x: {small:.1f} -> {large:.1f}"


def rows(history):
    return sum(1 for _ in history.transactions())


def test_jsonl_load_is_linear(histories, tmp_path):
    per_row = []
    for n, history in enumerate(histories):
        path = tmp_path / f"h{n}.jsonl"
        write_history(history, path)
        per_row.append(work(lambda: load_columns(path)) / rows(history))
    assert_flat(per_row)


def test_column_encoding_is_linear(histories):
    per_row = []
    for history in histories:
        transactions = list(stream_order(history))
        per_row.append(
            work(lambda: ColumnarHistory.from_transactions(transactions)) / len(transactions)
        )
    assert_flat(per_row)


def test_ingest_history_is_linear(histories):
    level = IsolationLevel.SERIALIZABILITY
    per_row = []
    for history in histories:
        verdict = []
        per_row.append(
            work(lambda: verdict.append(MTChecker().session(level).ingest_history(history)))
            / rows(history)
        )
        assert verdict[0].satisfied
    assert_flat(per_row)


@pytest.mark.parametrize("window", [None, 64])
def test_per_row_ingest_is_linear(histories, window):
    # ``session.ingest(txn)`` is a one-row segment: the segment loop's
    # per-call setup must not grow with the session's state.
    level = IsolationLevel.SERIALIZABILITY
    per_row = []
    for history in histories:
        transactions = list(stream_order(history))
        session = MTChecker().session(level, window=window)
        per_row.append(work(lambda: [session.ingest(txn) for txn in transactions]) / len(transactions))
        assert session.satisfied and (window is None or session.evicted_count > 0)
    assert_flat(per_row)


def test_batch_sser_accept_is_linear(histories):
    level = IsolationLevel.STRICT_SERIALIZABILITY
    per_row = []
    for history in histories:
        columns = ColumnarHistory.from_history(history)
        verdict = []
        per_row.append(
            work(lambda: verdict.append(MTChecker().verify(columns, level))) / len(columns)
        )
        assert verdict[0].satisfied
    assert_flat(per_row)


def test_batch_ser_and_si_accept_are_linear(histories):
    # Most of these rows take a straight-line arm of the index scan, whose
    # per-op work is C-level ``bytes`` slicing that emits no trace event:
    # the scan's traced peak bytes per row are bounded too, by 1.4x.  Ids,
    # positions and values below 257 are CPython's cached small ints, so
    # many cost no bytes at n rows and few do at 8n: the per-op scan this
    # one replaced peaked at 498 and 631 bytes per row here (1.27x).
    columns = [ColumnarHistory.from_history(history) for history in histories]
    for level in (IsolationLevel.SERIALIZABILITY, IsolationLevel.SNAPSHOT_ISOLATION):
        per_row = []
        for segment in columns:
            verdict = []
            per_row.append(
                work(lambda: verdict.append(MTChecker().verify(segment, level))) / len(segment)
            )
            assert verdict[0].satisfied
        assert_flat(per_row)
    small, large = (peak_bytes(lambda: HistoryIndex.from_columns(segment)) / len(segment) for segment in columns)
    assert large <= 1.4 * small, f"peak bytes per row grew {large / small:.2f}x: {small:.0f} -> {large:.0f}"


@pytest.mark.parametrize(
    "level", [IsolationLevel.SERIALIZABILITY, IsolationLevel.SNAPSHOT_ISOLATION, IsolationLevel.STRICT_SERIALIZABILITY]
)
def test_checkpoint_and_restore_are_linear(histories, level):
    # The checkpoint is the session's columns and restore adopts them: no
    # per-structure codec whose cost could grow faster than the state.
    per_row = []
    for history in histories:
        session = MTChecker().session(level)
        verdict = session.ingest_history(history)
        resumed = []
        per_row.append(work(lambda: resumed.append(CheckerSession.restore(session.checkpoint()))) / rows(history))
        assert resumed[0].result().format() == verdict.format()
    assert_flat(per_row)


def test_windowed_ingest_is_linear(histories):
    # Window GC marks and compacts in order: its cost per row must not grow
    # with the stream (a compaction per eviction, or a scan of every
    # version per seal, would).
    level = IsolationLevel.SERIALIZABILITY
    per_row = []
    for history in histories:
        columns = ColumnarHistory.from_history(history)
        session = MTChecker().session(level, window=64)
        per_row.append(work(lambda: session.ingest_segment(columns)) / len(columns))
        assert session.satisfied and session.evicted_count > 0
    assert_flat(per_row)


def assert_sser_reject_is_linear(early, cycle_of):
    level = IsolationLevel.STRICT_SERIALIZABILITY
    per_row, peak_per_row = [], []
    for rows in (460, 8 * 460):
        columns = ColumnarHistory.from_history(bipartite_lost_update(rows, early=early))
        verdict = []
        per_row.append(work(lambda: verdict.append(MTChecker().verify(columns, level))) / len(columns))
        assert verdict[0].violation.txn_ids == cycle_of(rows)
        peak_per_row.append(peak_bytes(lambda: MTChecker().verify(columns, level)) / len(columns))
    assert_flat(per_row)
    assert_flat(peak_per_row)


def test_batch_sser_reject_is_linear():
    # The counterexample is labeled on the chain the peel ran on; no
    # reduced real-time pair (rows²/4 of them here) is built.
    assert_sser_reject_is_linear(False, lambda rows: [rows - 1, rows])


def test_batch_sser_reject_behind_the_early_half_is_linear():
    # Each early row's late-half successors are finished after the first
    # early row; the labeler's real-time walk drops them instead of handing
    # all rows/2 of them to every early row.
    assert_sser_reject_is_linear(True, lambda rows: [rows // 2 - 1, rows // 2])


@pytest.fixture(scope="module")
def lost_updates():
    """A lost-update history at n and 8n rows, recorded from an SI engine."""
    return [
        ColumnarHistory.from_history(generate_mt_history(
            isolation="si", num_sessions=SESSIONS, txns_per_session=tps, num_objects=4 * tps,
            seed=5, faults=FaultPlan(lost_update_rate=0.05, seed=5),
        ).history)
        for tps in (SMALL, 8 * SMALL)
    ]


@pytest.mark.parametrize(
    "level, kinds",
    [
        (IsolationLevel.SERIALIZABILITY, {AnomalyKind.DEPENDENCY_CYCLE, AnomalyKind.LOST_UPDATE}),
        (IsolationLevel.SNAPSHOT_ISOLATION, {AnomalyKind.LOST_UPDATE}),
    ],
)
def test_batch_reject_is_linear(lost_updates, level, kinds):
    per_row = []
    for columns in lost_updates:
        verdict = []
        per_row.append(work(lambda: verdict.append(MTChecker().verify(columns, level))) / len(columns))
        assert verdict[0].violation.kind in kinds
    assert_flat(per_row)


@pytest.fixture(scope="module")
def si_histories():
    """A healthy history recorded from an SI engine, at n and 8n rows."""
    return [
        ColumnarHistory.from_history(generate_mt_history(
            isolation="si", num_sessions=SESSIONS, txns_per_session=tps, num_objects=4 * tps, seed=5,
        ).history)
        for tps in (SMALL, 8 * SMALL)
    ]


def test_si_ingest_work_is_close_to_ser(si_histories):
    # At SI the streaming checker runs the SER loop over one more node per
    # transaction (its out-copy) and one more edge (the internal one), so
    # its work stays a constant factor of SER's on the same rows.
    for columns in si_histories:
        work_at = {}
        for level in (IsolationLevel.SERIALIZABILITY, IsolationLevel.SNAPSHOT_ISOLATION):
            session = CheckerSession(level)
            work_at[level] = work(lambda: session.ingest_segment(columns))
            assert session.satisfied
        ratio = work_at[IsolationLevel.SNAPSHOT_ISOLATION] / work_at[IsolationLevel.SERIALIZABILITY]
        assert ratio <= 1.75, f"SI ingest does {ratio:.2f}x the work of SER on {len(columns)} rows"
