"""End-to-end black-box isolation checking (the Figure 2 workflow).

The example runs the complete pipeline the paper describes:

1. generate a randomized mini-transaction workload;
2. execute it against the in-memory transactional database simulator under
   a chosen isolation engine, recording the client-visible history;
3. verify the history against SER, SI, and SSER with the MTC checkers;
4. repeat with a deliberately weaker engine (read committed) to show how the
   checkers expose the missing guarantees.

Run with:  python examples/end_to_end_checking.py
"""

from repro import Database, MTChecker, MTWorkloadGenerator, run_workload
from repro.history import write_history


def check_engine(engine: str, *, sessions: int = 8, txns: int = 100, objects: int = 30) -> None:
    generator = MTWorkloadGenerator(
        num_sessions=sessions,
        txns_per_session=txns,
        num_objects=objects,
        distribution="zipf",
        seed=42,
    )
    workload = generator.generate()
    database = Database(engine, keys=workload.keys)
    run = run_workload(database, workload, seed=7)
    history = run.history

    checker = MTChecker()
    ser = checker.check_ser(history)
    si = checker.check_si(history)
    sser = checker.check_sser(history)

    print(f"--- engine: {engine} ---")
    print(
        f"committed={run.stats.committed}  aborted={run.stats.aborted}  "
        f"abort_rate={run.stats.abort_rate:.1%}  generation={run.stats.wall_seconds:.3f}s"
    )
    for result in (ser, si, sser):
        status = "satisfied" if result.satisfied else "VIOLATED"
        print(f"  {result.level.short_name:5s}: {status}  ({result.elapsed_seconds:.3f}s)")
        if result.violation is not None:
            print("    " + result.violation.format().splitlines()[0])
    print()


def main() -> None:
    # A database that provides strict serializability: everything passes.
    check_engine("s2pl")
    # Snapshot isolation: SER/SSER may be violated (write skew), SI holds.
    check_engine("si")
    # Read committed: all three strong levels are violated.
    check_engine("read-committed")

    # Histories can be persisted and re-verified later.
    generator = MTWorkloadGenerator(num_sessions=4, txns_per_session=25, num_objects=10, seed=1)
    workload = generator.generate()
    database = Database("si", keys=workload.keys)
    run = run_workload(database, workload, seed=3)
    write_history(run.history, "/tmp/repro_quickstart_history.jsonl")
    print("saved a reusable history to /tmp/repro_quickstart_history.jsonl")


if __name__ == "__main__":
    main()
