"""Streaming verification: check a workload live, while it executes.

The batch workflow (``examples/end_to_end_checking.py``) records a complete
history and verifies it afterwards.  This example hands a
``CheckerSession``'s ``ingest`` (the one-row case of ``ingest_segment``,
the session's one door) to the workload runner's ``on_transaction`` hook,
so every transaction is verified the moment it commits:

1. a correct SI engine runs a workload under live SI checking — the stream
   stays clean all the way through;
2. a database with an injected lost-update defect runs under the same
   monitor — the violation is reported at the exact transaction that
   completes the anomaly, not at the end of the run;
3. the same faulty run is repeated with a bounded window, showing that the
   monitor holds only a fixed-size suffix of the graph in memory.

Run with:  python examples/streaming_checking.py
"""

from repro import Database, IsolationLevel, MTChecker, run_workload
from repro.db.faults import FaultPlan
from repro.workloads.mt_generator import MTWorkloadGenerator


def make_workload(seed: int):
    generator = MTWorkloadGenerator(
        num_sessions=6,
        txns_per_session=50,
        num_objects=10,
        distribution="zipf",
        seed=seed,
    )
    return generator.generate()


def live_check(database: Database, workload, *, window=None, seed: int = 1):
    """Run ``workload`` with a live SI monitor; return (session, run)."""
    checker = MTChecker()
    session = checker.session(
        IsolationLevel.SNAPSHOT_ISOLATION,
        initial_keys=workload.keys,
        window=window,
    )
    first_violation = []

    def on_transaction(txn):
        violations = session.ingest(txn)
        if violations and not first_violation:
            first_violation.append((session.num_ingested, violations[0]))

    run = run_workload(database, workload, seed=seed, on_transaction=on_transaction)
    return session, run, first_violation


def main() -> None:
    workload = make_workload(seed=7)

    print("=== 1. Correct SI engine under a live SI monitor ===")
    session, run, first = live_check(Database("si", keys=workload.keys), workload)
    result = session.result()
    print(
        f"{run.stats.committed} committed transactions streamed; "
        f"verdict: {'satisfied' if result.satisfied else 'VIOLATED'}"
    )
    assert result.satisfied and not first

    print()
    print("=== 2. Lost-update defect caught mid-stream ===")
    faulty = Database(
        "si",
        keys=workload.keys,
        faults=FaultPlan.for_anomaly("lostupdate", rate=0.5, seed=7),
    )
    session, run, first = live_check(faulty, workload)
    assert first, "the injected defect should surface during the run"
    at_txn, violation = first[0]
    print(f"violation surfaced after ingesting {at_txn} transactions:")
    print("  " + violation.format().replace("\n", "\n  "))
    print(f"final verdict over {session.num_ingested} transactions: "
          f"{'satisfied' if session.satisfied else 'VIOLATED'}")

    print()
    print("=== 3. Same stream with a bounded window (memory-capped) ===")
    faulty = Database(
        "si",
        keys=workload.keys,
        faults=FaultPlan.for_anomaly("lostupdate", rate=0.5, seed=7),
    )
    session, run, first = live_check(faulty, workload, window=60)
    print(
        f"window=60: verdict {'satisfied' if session.satisfied else 'VIOLATED'}, "
        f"graph holds {session.graph.num_nodes()} nodes "
        f"({session.evicted_count} garbage-collected, "
        f"{session.stale_reads} stale reads)"
    )
    assert not session.satisfied
    assert session.graph.num_nodes() <= 62


if __name__ == "__main__":
    main()
