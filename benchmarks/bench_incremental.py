"""Incremental streaming verification vs batch re-verification.

The streaming subsystem exists so that continuous traffic can be checked
without re-running the batch pipeline after every transaction.  This
benchmark quantifies the gap on a single growing stream: at each checkpoint
``n`` it reports

* the *amortized* per-transaction cost of incremental ingestion (cumulative
  ingest time / n) — this should stay essentially flat as the stream grows;
* the cost of one batch verification of the n-transaction prefix — this
  grows with n, so a monitor that re-verifies after every round pays an
  ever-increasing price per round.

The acceptance claim: on a ~5k-transaction stream the amortized incremental
cost grows sublinearly in ``n`` while batch re-verification grows linearly,
i.e. the ratio ``batch(n) / incremental_per_txn(n)`` keeps widening.
"""

from __future__ import annotations

import time
from typing import Dict, List

import pytest

from repro.core.incremental import CheckerSession, stream_order
from repro.core.model import History, Session
from repro.core.result import IsolationLevel
from repro.bench import generate_mt_history, scaled

from _common import check_ser, check_si, run_once

#: Checkpoints (committed-transaction counts) at which costs are sampled.
CHECKPOINTS = [500, 1000, 2000, 3500, 5000]


def _stream_fixture():
    """One ~5.5k-transaction SI history plus its canonical stream order."""
    generated = generate_mt_history(
        isolation="si",
        num_sessions=scaled(10),
        txns_per_session=scaled(550),
        num_objects=scaled(60),
        distribution="zipf",
        seed=11,
    )
    history = generated.history
    stream = [txn for txn in stream_order(history) if not txn.is_initial]
    return history, stream


def _prefix_history(history: History, stream, n: int) -> History:
    """The history induced by the first ``n`` streamed transactions."""
    sessions: Dict[int, Session] = {}
    for txn in stream[:n]:
        sessions.setdefault(txn.session_id, Session(txn.session_id)).transactions.append(txn)
    return History(
        sessions=[sessions[sid] for sid in sorted(sessions)],
        initial_transaction=history.initial_transaction,
    )


def _sweep(level: IsolationLevel, batch_check) -> List[Dict[str, object]]:
    history, stream = _stream_fixture()
    checkpoints = [n for n in CHECKPOINTS if n <= len(stream)]
    session = CheckerSession(level)
    session.ingest(history.initial_transaction)

    rows = []
    ingested = 0
    for n in checkpoints:
        for txn in stream[ingested:n]:
            session.ingest(txn)
        ingested = n
        incremental_total = session.result().elapsed_seconds or 0.0

        prefix = _prefix_history(history, stream, n)
        started = time.perf_counter()
        batch_result = batch_check(prefix)
        batch_seconds = time.perf_counter() - started
        assert batch_result.satisfied == session.satisfied

        rows.append(
            {
                "n": n,
                "inc_total_s": round(incremental_total, 4),
                "inc_us_per_txn": round(1e6 * incremental_total / n, 2),
                "batch_check_s": round(batch_seconds, 4),
                "batch_us_per_txn": round(1e6 * batch_seconds / n, 2),
                "speedup_vs_recheck": round(
                    batch_seconds / max(incremental_total / n, 1e-9) / 1e3, 1
                ),
            }
        )
    return rows


def _sweep_ser() -> List[Dict[str, object]]:
    return _sweep(IsolationLevel.SERIALIZABILITY, check_ser)


def _sweep_si() -> List[Dict[str, object]]:
    return _sweep(IsolationLevel.SNAPSHOT_ISOLATION, check_si)


def _assert_sublinear(rows: List[Dict[str, object]]) -> None:
    """Amortized ingest cost must grow sublinearly vs batch re-verification."""
    first, last = rows[0], rows[-1]
    growth = last["n"] / first["n"]  # 10x by default
    inc_growth = last["inc_us_per_txn"] / max(first["inc_us_per_txn"], 1e-9)
    # Amortized per-transaction ingest cost stays far below linear growth.
    assert inc_growth < 0.5 * growth, (inc_growth, growth)
    # One batch pass over the full stream already costs hundreds of times the
    # per-transaction ingest price, so per-round re-verification loses badly.
    assert last["batch_check_s"] > 10 * (last["inc_total_s"] / last["n"])


@pytest.mark.benchmark(group="incremental-streaming")
def test_incremental_vs_batch_ser(benchmark):
    rows = run_once(
        benchmark, _sweep_ser, "Incremental SER ingest vs batch re-verification"
    )
    _assert_sublinear(rows)


@pytest.mark.benchmark(group="incremental-streaming")
def test_incremental_vs_batch_si(benchmark):
    rows = run_once(
        benchmark, _sweep_si, "Incremental SI ingest vs batch re-verification"
    )
    _assert_sublinear(rows)


@pytest.mark.benchmark(group="incremental-streaming")
def test_windowed_ingest_bounds_memory(benchmark):
    """Window GC keeps the graph bounded without changing the verdict."""

    def sweep() -> List[Dict[str, object]]:
        history, stream = _stream_fixture()
        rows = []
        for window in (None, 1000, 250):
            session = CheckerSession(
                IsolationLevel.SNAPSHOT_ISOLATION, window=window
            )
            session.ingest(history.initial_transaction)
            started = time.perf_counter()
            for txn in stream:
                session.ingest(txn)
            elapsed = time.perf_counter() - started
            assert session.satisfied and session.stale_reads == 0
            rows.append(
                {
                    "window": window or "unbounded",
                    "graph_nodes": session.graph.num_nodes(),
                    "evicted": session.evicted_count,
                    "ingest_s": round(elapsed, 4),
                }
            )
        return rows

    rows = run_once(benchmark, sweep, "Windowed streaming ingest (SI)")
    bounded = [row for row in rows if row["window"] != "unbounded"]
    assert all(row["graph_nodes"] <= row["window"] + 2 for row in bounded)


if __name__ == "__main__":
    from repro.bench import print_table

    print_table(_sweep_ser(), "Incremental SER ingest vs batch re-verification")
    print_table(_sweep_si(), "Incremental SI ingest vs batch re-verification")
