"""Parallel sharded verification with ``MTChecker(workers=N)``.

Large histories recorded from sharded or multi-tenant databases usually
decompose into groups of keys that no transaction ever links: each tenant
(or partition) touches its own key range.  The key-connectivity partitioner
exploits exactly that — it splits the history into independently checkable
shards, fans the shard checks out over worker processes, and merges the
verdicts, with the guarantee that the sharded verdict equals the serial
one on *every* history.

This example:

1. builds a disjoint-key history (4 key groups, a few thousand
   transactions) and shows the partitioner finding the 4 shards;
2. verifies it serially and with ``workers=2``, asserting the verdicts
   agree and printing both timings (on a single-core machine the parallel
   run merely timeshares — the point is the identical verdict);
3. corrupts one key group with a lost-update anomaly and shows the sharded
   check pinpointing the violation without touching the healthy shards.

Run with:  python examples/parallel_checking.py
"""

import time

from repro import (
    ColumnarHistory,
    History,
    IsolationLevel,
    MTChecker,
    Transaction,
    read,
    write,
)
from repro.bench import make_disjoint_history
from repro.core.model import Session
from repro.parallel import partition_columns


def timed_verify(checker: MTChecker, history, level):
    started = time.perf_counter()
    result = checker.verify(history, level)
    return result, time.perf_counter() - started


def main() -> None:
    history = make_disjoint_history(
        num_groups=4, sessions_per_group=3, txns_per_session=150, keys_per_group=8
    )
    shards = partition_columns(ColumnarHistory.from_history(history))
    print(f"history: {history.num_transactions()} transactions, "
          f"{len(shards)} key-connected shards")
    for shard in shards:
        print(f"  shard {shard.index}: {shard.num_transactions} txns over "
              f"{len(shard.keys)} keys (e.g. {shard.keys[0]})")

    serial, serial_s = timed_verify(MTChecker(), history, IsolationLevel.SERIALIZABILITY)
    sharded, sharded_s = timed_verify(
        MTChecker(workers=2), history, IsolationLevel.SERIALIZABILITY
    )
    assert serial.satisfied == sharded.satisfied
    print(f"\nSER serial:  {serial.format().splitlines()[0]}  ({serial_s:.3f}s)")
    print(f"SER sharded: {sharded.format().splitlines()[0]}  ({sharded_s:.3f}s)")

    # Inject a lost update into group 2: two transactions read the same
    # version of g2:k0 and both overwrite it.
    t_a = Transaction(900001, [read("g2:k0", 0), write("g2:k0", 900001)], 90)
    t_b = Transaction(900002, [read("g2:k0", 0), write("g2:k0", 900002)], 91)
    corrupted = History(
        list(history.sessions) + [Session(90, [t_a]), Session(91, [t_b])],
        initial_transaction=history.initial_transaction,
    )
    verdict = MTChecker(workers=2).verify(corrupted, IsolationLevel.SNAPSHOT_ISOLATION)
    assert not verdict.satisfied
    print("\nwith a corrupted shard:")
    print(verdict.format())
    culprit_keys = {v.key for v in verdict.violations}
    print(f"violations confined to the corrupted shard's keys: {sorted(culprit_keys)}")


if __name__ == "__main__":
    main()
