"""Tests for the streaming incremental verification subsystem.

Violations surface at the exact offending transaction, the Pearce–Kelly
order stays consistent under insertions and removals, the bounded window
garbage-collects without changing verdicts on well-behaved streams, and a
checkpoint restores to the uninterrupted verdict.  That a complete stream
(in any session-preserving order) reaches the batch verdict is the route
driver's job, ``tests/test_routes.py``.
"""

import random
from array import array

import pytest
from hypothesis import HealthCheck, given, settings

from repro import Database, MTChecker, run_workload
from repro.core.checkers import check_ser, check_si, check_sser
from repro.core.incremental import (
    CHECKPOINT_STATE_FORMAT,
    CheckerSession,
    IncrementalChecker,
    PearceKellyOrder,
    stream_order,
)
from repro.core.model import History, Transaction, TransactionStatus, read, write
from repro.core.result import AnomalyKind, IsolationLevel
from repro.workloads.mt_generator import MTWorkloadGenerator

from test_routes import mt_histories

SER = IsolationLevel.SERIALIZABILITY
SI = IsolationLevel.SNAPSHOT_ISOLATION
SSER = IsolationLevel.STRICT_SERIALIZABILITY

SLOW = settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def packed(state):
    """``state`` through the bytes a checkpoint file holds."""
    from repro.ondisk import pack_columns, unpack_columns

    return unpack_columns(*pack_columns(state))


def generated_history(seed, *, engine="si", sessions=4, txns=15, objects=8):
    workload = MTWorkloadGenerator(
        num_sessions=sessions, txns_per_session=txns, num_objects=objects, seed=seed
    ).generate()
    return run_workload(Database(engine, keys=workload.keys), workload, seed=seed + 1).history


# ----------------------------------------------------------------------
# Pearce–Kelly online topological order
# ----------------------------------------------------------------------
class TestPearceKellyOrder:
    def test_forward_insertions_are_cheap_and_acyclic(self):
        topo = PearceKellyOrder()
        for i in range(10):
            assert topo.add_edge(i, i + 1) is None
        assert all(topo.order_of(i) < topo.order_of(i + 1) for i in range(10))

    def test_back_edge_triggers_reorder_not_cycle(self):
        topo = PearceKellyOrder()
        topo.add_node(1)
        topo.add_node(2)  # insertion order 1, 2
        assert topo.add_edge(2, 1) is None  # must reorder, not report a cycle
        assert topo.order_of(2) < topo.order_of(1)

    def test_cycle_is_reported_with_the_closing_path(self):
        topo = PearceKellyOrder()
        assert topo.add_edge(1, 2) is None
        assert topo.add_edge(2, 3) is None
        cycle = topo.add_edge(3, 1)
        assert cycle == [1, 2, 3]
        # The rejected edge leaves the structure acyclic and usable.
        assert topo.add_edge(1, 3) is None

    def test_self_loop_is_a_cycle(self):
        topo = PearceKellyOrder()
        assert topo.add_edge(5, 5) == [5]

    def test_duplicate_edges_are_noops_and_labels_accumulate(self):
        topo = PearceKellyOrder()
        assert topo.add_edge(1, 2) is None
        assert topo.add_edge(1, 2) is None
        assert topo.has_edge(1, 2) and topo.labels(1, 2) == [None]
        assert topo.add_edge(1, 2, ("WR", "x")) is None and topo.add_edge(1, 2, ("WR", "x")) is None
        assert topo.labels(1, 2) == [None, ("WR", "x")]
        assert list(topo.edges()) == [(1, 2, [None, ("WR", "x")])]
        assert topo.add_edge(2, 1, ("RW", "x")) == [1, 2]  # refused: no edge, no label
        assert topo.labels(2, 1) == [] and not topo.has_edge(2, 1)

    def test_remove_node_unblocks_former_cycles(self):
        topo = PearceKellyOrder()
        topo.add_edge(1, 2, "a")
        topo.add_edge(2, 3, "b")
        topo.remove_node(2)
        assert topo.labels(1, 2) == topo.labels(2, 3) == [] and 2 not in topo
        assert topo.add_edge(3, 1) is None  # 1 -> 2 -> 3 is gone

    def test_remove_node_never_scans_the_whole_adjacency(self):
        # Window GC is one ``remove_node``: it must stay O(degree), touching
        # only the rows of the node's own neighbours.
        class Counting(dict):
            scans = lookups = 0

            def __iter__(self):
                Counting.scans += 1
                return super().__iter__()

            def values(self):
                return [self[key] for key in self]

            def items(self):
                return [(key, self[key]) for key in self]

            def __getitem__(self, key):
                Counting.lookups += 1
                return super().__getitem__(key)

        topo = PearceKellyOrder()
        for node in range(499):
            topo.add_edge(node, node + 1)
        topo._succ, topo._pred = Counting(topo._succ), Counting(topo._pred)
        topo.remove_node(250)
        assert Counting.scans == 0 and Counting.lookups <= 2
        assert not topo.has_edge(249, 250) and not topo.has_edge(250, 251) and len(topo) == 499

    def test_random_insertions_maintain_topological_order(self):
        rng = random.Random(42)
        for _ in range(30):
            topo = PearceKellyOrder()
            edges = set()
            for _ in range(60):
                source, target = rng.randrange(15), rng.randrange(15)
                if topo.add_edge(source, target) is None and source != target:
                    edges.add((source, target))
                for a, b in edges:
                    assert topo.order_of(a) < topo.order_of(b)


# ----------------------------------------------------------------------
# Online behaviour: violations at the exact offending transaction
# ----------------------------------------------------------------------
class TestOnlineDetection:
    def test_lost_update_cycle_reported_at_second_overwriter_under_ser(self):
        checker = IncrementalChecker(SER, initial_keys=["x"])
        assert checker.ingest(Transaction(1, [read("x", 0), write("x", 1)])) == []
        violations = checker.ingest(
            Transaction(2, [read("x", 0), write("x", 2)], session_id=1)
        )
        # The RW/RW 2-cycle between the two overwriters (batch classifies the
        # same shape as a generic dependency cycle under SER).
        assert violations and violations[0].cycle
        assert sorted(violations[0].txn_ids) == [1, 2]
        assert not checker.satisfied

    def test_lost_update_divergence_reported_at_second_overwriter_under_si(self):
        checker = IncrementalChecker(SI, initial_keys=["x"])
        assert checker.ingest(Transaction(1, [read("x", 0), write("x", 1)])) == []
        violations = checker.ingest(
            Transaction(2, [read("x", 0), write("x", 2)], session_id=1)
        )
        assert violations and violations[0].kind is AnomalyKind.LOST_UPDATE

    def test_write_skew_reported_at_second_writer_under_ser(self):
        checker = IncrementalChecker(SER, initial_keys=["x", "y"])
        t1 = Transaction(1, [read("x", 0), read("y", 0), write("x", 1)])
        t2 = Transaction(2, [read("x", 0), read("y", 0), write("y", 2)], session_id=1)
        assert checker.ingest(t1) == []
        violations = checker.ingest(t2)
        assert violations and violations[0].kind is AnomalyKind.WRITE_SKEW

    def test_write_skew_is_allowed_under_si(self):
        checker = IncrementalChecker(SI, initial_keys=["x", "y"])
        checker.ingest(Transaction(1, [read("x", 0), read("y", 0), write("x", 1)]))
        checker.ingest(Transaction(2, [read("x", 0), read("y", 0), write("y", 2)], session_id=1))
        assert checker.result().satisfied

    def test_checking_continues_past_the_first_violation(self):
        checker = IncrementalChecker(SER, initial_keys=["x", "y"])
        checker.ingest(Transaction(1, [read("x", 0), write("x", 1)]))
        first = checker.ingest(Transaction(2, [read("x", 0), write("x", 2)], session_id=1))
        assert first
        checker.ingest(Transaction(3, [read("y", 0), write("y", 3)], session_id=2))
        second = checker.ingest(Transaction(4, [read("y", 0), write("y", 4)], session_id=3))
        assert second, "an unrelated later anomaly must still be detected"

    def test_pending_read_resolves_when_writer_arrives(self):
        checker = IncrementalChecker(SER, initial_keys=["x"])
        checker.ingest(Transaction(2, [read("x", 7)], session_id=1))
        assert not checker.result().satisfied  # writer unseen: thin-air so far
        checker.ingest(Transaction(1, [read("x", 0), write("x", 7)]))
        assert checker.result().satisfied

    def test_future_read_reports_exactly_the_batch_anomalies(self):
        # A FutureRead must not additionally surface as a phantom ThinAirRead
        # from the pending-read sweep (the read's value is the reader's own).
        txn = Transaction(1, [read("x", 5), write("x", 5), write("x", 6)])
        history = History.from_transactions([[txn]], initial_keys=["x"])
        batch_kinds = [v.kind for v in check_ser(history).violations]
        result = CheckerSession(SER).ingest_history(history)
        assert [v.kind for v in result.violations] == batch_kinds
        assert batch_kinds == [AnomalyKind.FUTURE_READ]

    def test_unresolved_read_is_thin_air_at_result_time(self):
        checker = IncrementalChecker(SER, initial_keys=["x"])
        checker.ingest(Transaction(1, [read("x", 99)]))
        result = checker.result()
        assert not result.satisfied
        assert result.violation.kind is AnomalyKind.THIN_AIR_READ

    def test_aborted_writer_flags_pending_reader_on_arrival(self):
        checker = IncrementalChecker(SER, initial_keys=["x"])
        checker.ingest(Transaction(2, [read("x", 7)], session_id=1))
        checker.ingest(
            Transaction(
                1,
                [read("x", 0), write("x", 7)],
                status=TransactionStatus.ABORTED,
            )
        )
        kinds = {v.kind for v in checker.violations}
        assert AnomalyKind.ABORTED_READ in kinds

    def test_rt_violation_detected_under_sser(self):
        # t2 starts after t1 finished in real time, yet observes the state
        # t1 overwrote — a stale read that only SSER forbids.
        t1 = Transaction(1, [read("x", 0), write("x", 1)], start_ts=0.0, finish_ts=1.0)
        t2 = Transaction(2, [read("x", 0)], session_id=1, start_ts=2.0, finish_ts=3.0)

        checker = IncrementalChecker(SSER, initial_keys=["x"])
        assert checker.ingest(t1) == []
        violations = checker.ingest(t2)
        assert violations and violations[0].kind is AnomalyKind.REAL_TIME_VIOLATION

        relaxed = IncrementalChecker(SER, initial_keys=["x"])
        relaxed.ingest(t1)
        relaxed.ingest(t2)
        assert relaxed.result().satisfied  # SER allows serializing t2 first

    def test_unsupported_levels_are_rejected(self):
        with pytest.raises(ValueError):
            IncrementalChecker(IsolationLevel.READ_COMMITTED)


# ----------------------------------------------------------------------
# Bounded-window garbage collection
# ----------------------------------------------------------------------
class TestWindowGC:
    def test_graph_stays_bounded_and_verdict_clean(self):
        history = generated_history(3, sessions=6, txns=80, objects=20)
        session = CheckerSession(SI, window=100)
        result = session.ingest_history(history)
        assert result.satisfied
        assert session.stale_reads == 0
        assert session.evicted_count > 0
        assert session.graph.num_nodes() <= 102  # window + ⊥T + slack

    def test_current_versions_remain_readable_beyond_the_window(self):
        # A key written once at the start and read much later: the version is
        # still the latest, so the read is legitimate at any age.
        checker = IncrementalChecker(SER, initial_keys=["hot", "cold"], window=10)
        checker.ingest(Transaction(1, [read("cold", 0), write("cold", 1)]))
        last_hot = 0
        for i in range(2, 40):
            checker.ingest(Transaction(i, [read("hot", last_hot), write("hot", 1000 + i)]))
            last_hot = 1000 + i
        late_reader = Transaction(99, [read("cold", 1)], session_id=1)
        checker.ingest(late_reader)
        assert checker.stale_reads == 0
        assert checker.result().satisfied

    def test_stale_read_beyond_window_is_counted(self):
        checker = IncrementalChecker(SER, initial_keys=["x"], window=5)
        value = 0
        for i in range(1, 20):  # overwrite x repeatedly; old versions seal
            checker.ingest(Transaction(i, [read("x", value), write("x", i * 100)]))
            value = i * 100
        assert checker.ingest(Transaction(50, [read("x", 100)], session_id=1)) == []
        assert checker.stale_reads == 1

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError):
            IncrementalChecker(SER, window=0)

    def test_sealed_marker_fifo_cap_value(self):
        # The documented cap is max(4 * window, 1024) markers; no window
        # means no cap bookkeeping at all.
        assert IncrementalChecker(SER, window=2)._sealed_cap == 1024
        assert IncrementalChecker(SER, window=300)._sealed_cap == 1200
        assert IncrementalChecker(SER)._sealed_cap == 0

    def test_sealed_marker_fifo_caps_at_documented_bound(self):
        # Overwrite one key far more times than the marker cap: the FIFO
        # must top out at exactly the cap while the stream stays healthy.
        checker = IncrementalChecker(SER, initial_keys=["x"], window=2)
        cap = checker._sealed_cap
        last = 0
        for i in range(1, cap + 201):
            checker.ingest(Transaction(i, [read("x", last), write("x", i)]))
            last = i
        assert len(checker._sealed_fifo) == cap
        assert checker.result().satisfied
        assert checker.stale_reads == 0

    def test_read_of_expired_marker_reports_thin_air_not_stale(self):
        # A read of a version whose sealed marker already left the FIFO can
        # no longer be recognised as "stale": it must surface as the louder
        # ThinAirRead verdict, with the stale-read counter untouched.
        checker = IncrementalChecker(SER, initial_keys=["x"], window=2)
        cap = checker._sealed_cap
        last = 0
        for i in range(1, cap + 201):
            checker.ingest(Transaction(i, [read("x", last), write("x", i)]))
            last = i
        assert ("x", 5) not in map(checker._version, checker._slots)  # marker expired
        checker.ingest(Transaction(9000, [read("x", 5)], session_id=1))
        assert checker.stale_reads == 0
        result = checker.result()
        assert not result.satisfied
        assert {v.kind for v in result.violations} == {AnomalyKind.THIN_AIR_READ}

    def test_read_of_sealed_marker_counts_stale_not_thin_air(self):
        # While the marker is still in the FIFO the same read is classified
        # as a window violation (stale read), not as an anomaly.
        checker = IncrementalChecker(SER, initial_keys=["x"], window=2)
        last = 0
        for i in range(1, 50):
            checker.ingest(Transaction(i, [read("x", last), write("x", i)]))
            last = i
        assert ("x", 5) in map(checker._version, checker._slots)  # sealed marker present
        checker.ingest(Transaction(9000, [read("x", 5)], session_id=1))
        assert checker.stale_reads == 1
        assert checker.result().satisfied

    def test_window_mode_is_bounded_memory(self):
        # A single hot key overwritten thousands of times: slots, graph, and
        # topology must all stay bounded by the window/marker cap, not the
        # stream length.
        checker = IncrementalChecker(SER, initial_keys=["x"], window=4)
        last = 0
        for i in range(1, 2001):
            checker.ingest(Transaction(i, [read("x", last), write("x", i)]))
            last = i
        assert checker.result().satisfied
        assert checker.graph.num_nodes() <= 6
        assert len(checker._slots) <= checker._sealed_cap + 8
        assert len(checker._sealed_fifo) <= checker._sealed_cap


    @pytest.mark.parametrize("stale_read", [False, True])
    def test_sser_window_keeps_the_timeline_bounded(self, stale_read):
        # Random overlapping intervals in random arrival order: after every
        # ingest (each evicts once the window is full) the live timeline
        # holds at most two time nodes per live transaction, and the verdict
        # is the batch one, with or without a stale read only SSER forbids.
        rng = random.Random(11)
        txns = []
        for txn_id in range(1, 401):
            start = rng.uniform(0, 100)
            finish = start + rng.choice([0.0, rng.uniform(0, 30)])
            txns.append(Transaction(txn_id, [read("x", 0)], session_id=txn_id,
                                    start_ts=start, finish_ts=finish))
        if stale_read:
            txns[200:200] = [
                Transaction(500, [read("y", 0), write("y", 1)], session_id=500,
                            start_ts=50.0, finish_ts=51.0),
                Transaction(501, [read("y", 0)], session_id=501, start_ts=60.0, finish_ts=61.0),
            ]
        checker = IncrementalChecker(SSER, initial_keys=["x", "y"], window=16)
        for txn in txns:
            checker.ingest(txn)
            assert len(checker._timeline) <= 2 * 16 + 2, txn.txn_id
        assert checker.evicted_count == len(txns) - 16 and checker.stale_reads == 0
        batch = check_sser(History.from_transactions([[t] for t in txns], initial_keys=["x", "y"]))
        assert checker.result().satisfied == batch.satisfied == (not stale_read)
        assert {v.kind for v in checker.violations} == {v.kind for v in batch.violations}

    def test_a_retired_finish_node_passes_its_links_on(self):
        # A [4, 5] arrives first and is evicted after Q; its finish node sits
        # between P's (1) and C's (9) on the chain, and C's start node 7
        # hangs from it.  Retiring it must link 1 -> 7, or B, starting at 7
        # after P overwrote the x=0 it reads, closes no real-time cycle.
        rows = [
            Transaction(1, [read("y", 0)], session_id=1, start_ts=4.0, finish_ts=5.0),
            Transaction(2, [read("z", 0)], session_id=2, start_ts=7.0, finish_ts=9.0),
            Transaction(3, [read("x", 0), write("x", 3)], session_id=3, start_ts=0.0, finish_ts=1.0),
            Transaction(4, [read("z", 0)], session_id=4),
            Transaction(5, [read("x", 0)], session_id=5, start_ts=7.0, finish_ts=8.0),
        ]
        checker = IncrementalChecker(SSER, initial_keys=["x", "y", "z"], window=3)
        reports = [checker.ingest(txn) for txn in rows]
        assert checker.evicted_count == 2 and checker.stale_reads == 0
        assert [[v.kind for v in r] for r in reports] == [[], [], [], [], [AnomalyKind.REAL_TIME_VIOLATION]]

    @pytest.mark.parametrize("window", [None, 256])
    def test_bipartite_sser_stream_holds_linear_order_edges(self, window):
        # Half the transactions finish before the other half start: the
        # real-time order's reduction alone holds 300 * 300 pairs.
        n = 300
        session = CheckerSession(SSER, initial_keys=["x"], window=window)
        for i in range(2 * n):
            early = i < n
            session.ingest(Transaction(i, [read("x", 0)], session_id=i,
                                       start_ts=0.0 if early else 2.0, finish_ts=1.0 if early else 3.0))
        assert session.result().satisfied
        assert sum(1 for _ in session._topo.edges()) <= 4 * 2 * n

    def test_windowed_sser_ingest_is_not_quadratic_in_the_window(self):
        import sys

        from repro.history.columnar import ColumnarHistory

        segment = ColumnarHistory.from_history(
            generated_history(9, engine="ser", sessions=8, txns=250, objects=40)
        )

        def steps(window):
            # Trace events (calls, returns and lines) the ingest makes: a
            # deterministic measure of its work, where a wall-clock ratio on a
            # shared host read anywhere from 1.0 to 1.9 against the same bound.
            # A line event fires on every loop iteration, comprehensions too,
            # so the count grows with the elements a rebuild touches.
            checker = IncrementalChecker(SSER, window=window)
            made = [0]

            def step(frame, event, arg):
                made[0] += 1
                return step

            previous = sys.gettrace()
            sys.settrace(step)
            try:
                checker.ingest_segment(segment)
            finally:
                sys.settrace(previous)
            assert checker.satisfied and (checker.evicted_count > 0) == (window is not None)
            return made[0]

        # Rebuilding the real-time chain per eviction with a comprehension
        # over the timeline read 3.7x here; the ingest as written reads 1.15x.
        assert steps(1024) < 2 * steps(None)


# ----------------------------------------------------------------------
# One adjacency: the order carries the labels
# ----------------------------------------------------------------------
class TestOrderCarriesTheLabels:
    @pytest.mark.parametrize("window", [None, 64])
    @pytest.mark.parametrize("level", [SER, SI, SSER])
    def test_accept_path_builds_no_graph_edge_or_transaction(self, monkeypatch, level, window):
        from repro.core.graph import DependencyGraph, Edge
        from repro.history.columnar import ColumnarHistory

        rows = list(stream_order(generated_history(5, engine="ser", txns=60)))
        committed = sum(txn.committed and not txn.is_initial for txn in rows)
        segments = [
            ColumnarHistory.from_transactions(rows[i : i + 50]) for i in range(0, len(rows), 50)
        ]

        def refuse(*args, **kwargs):
            raise AssertionError("constructed on the accept path")

        for cls, name in (
            (DependencyGraph, "__init__"), (DependencyGraph, "add_edge"),
            (Edge, "__init__"), (Transaction, "__init__"),
        ):
            monkeypatch.setattr(cls, name, refuse)
        checker = IncrementalChecker(level, window=window)
        for segment in segments:
            assert checker.ingest_segment(segment) == []
        checker.checkpoint()
        assert checker.result().satisfied and checker.num_ingested == committed
        assert checker.evicted_count == (0 if window is None else committed - window)

    @pytest.mark.parametrize("window", [None, 4])
    def test_refused_pair_offered_again_is_labeled_over_both_labels(self, window):
        from repro.core.graph import DependencyGraph, EdgeType

        # T1 and T2 both read-modify-write x (resolved at once) and y (pending
        # until its writer arrives).  T1 -RW(x)-> T2 closes a cycle and is
        # refused while T2 is ingested; T1 -RW(y)-> T2 is the same pair under
        # another label, offered when the writer of y=5 shows up -- after the
        # window (if any) evicted a filler.
        checker = IncrementalChecker(SER, initial_keys=["x", "y"], window=window)
        rmw = lambda v: [read("x", 0), read("y", 5), write("x", v), write("y", 10 + v)]
        stream = [
            Transaction(10, [read("x", 0)], session_id=9),
            Transaction(12, [read("x", 0)], session_id=9),
            Transaction(1, rmw(1), session_id=1),
            Transaction(2, rmw(2), session_id=2),
            Transaction(11, [read("y", 0)], session_id=8),
            Transaction(3, [write("y", 5)], session_id=3),
        ]
        reports = [checker.ingest(txn) for txn in stream]
        assert [len(r) for r in reports] == [0, 0, 0, 1, 0, 1]
        assert checker.evicted_count == (0 if window is None else 2)

        union = DependencyGraph()
        for key in ("x", "y"):
            union.add_edge(1, 2, EdgeType.RW, key)
            union.add_edge(2, 1, EdgeType.RW, key)
        expected = [(e.source, e.target, e.label) for e in union.label_cycle([2, 1])]
        assert expected == [(2, 1, "RW(x)"), (1, 2, "RW(x)")]  # not the offered RW(y)
        assert reports[5][0].cycle == expected == reports[3][0].cycle

        graph = checker.graph  # refused edges are edges of the dependency graph
        assert graph.has_edge(1, 2, EdgeType.RW, "x") and graph.has_edge(1, 2, EdgeType.RW, "y")
        assert not checker._topo.has_edge(1, 2) and checker._topo.has_edge(2, 1)
        # ... and of the snapshot: the restored checker refuses the duplicate too.
        resumed = IncrementalChecker.restore(checker.checkpoint())
        assert resumed.result().format() == checker.result().format()
        assert set(resumed.graph.edges()) == set(graph.edges())

# ----------------------------------------------------------------------
# Real time: an interval that finishes before it starts is refused
# ----------------------------------------------------------------------
def test_inverted_interval_is_refused_in_either_arrival_order_and_changes_nothing():
    # T2 starts at 10 and reads y=0, which T1 overwrote by 1 at time 1: a
    # real-time cycle.  T3 finishes at 6 before it starts at 7, and the
    # batch reduction would drop T1 -> T2 across that gap (a false
    # SATISFIED).  Every route refuses the history instead, wherever T3 arrives.
    from repro.history.columnar import ColumnarHistory

    rows = [Transaction(1, [read("y", 0), write("y", 1)], start_ts=0, finish_ts=1),
            Transaction(2, [read("y", 0)], session_id=1, start_ts=10, finish_ts=11),
            Transaction(3, [read("y", 1)], session_id=2, start_ts=7, finish_ts=6)]
    refused = "malformed history: transaction 3 finishes at 6.0 before it starts at 7.0"

    def state(checker):
        return {name: table for name, table in checker.checkpoint().items() if name != "elapsed"}

    never_saw = CheckerSession(SSER, initial_keys=["y"])
    clean = [[v.format() for v in never_saw.ingest(t)] for t in rows[:2]]
    assert clean[0] == [] and [line.split(":")[0] for line in clean[1]] == ["RealTimeViolation"]
    history = History.from_transactions([[t] for t in rows], initial_keys=["y"])
    for order in (rows, [rows[2], *rows[:2]]):
        columns = ColumnarHistory.from_transactions([history.initial_transaction, *order])
        routes = [lambda: check_sser(history), lambda: CheckerSession(SSER).ingest_segment(columns)]
        for level in (SER, SI, SSER):
            routes += [lambda level=level: MTChecker().verify(history, level),
                       lambda level=level: MTChecker().verify(columns, level)]
        for route in routes:
            with pytest.raises(ValueError, match=refused):
                route()

        # A session that caught the refusal goes on as one that never saw the row.
        session, reports = CheckerSession(SSER, initial_keys=["y"]), []
        for txn in order:
            try:
                reports.append([v.format() for v in session.ingest(txn)])
            except ValueError as exc:
                assert str(exc) == refused and txn is rows[2]
        segment = CheckerSession(SSER, initial_keys=["y"])
        with pytest.raises(ValueError, match=refused):
            segment.ingest_segment(ColumnarHistory.from_transactions(order))
        assert [v.format() for v in segment.ingest_segment(ColumnarHistory.from_transactions(rows[:2]))] == clean[1]
        assert reports == clean
        for caught in (session, segment):
            assert caught.result().format() == never_saw.result().format()
            assert state(caught) == state(never_saw)


def test_timed_histories_stream_to_the_batch_verdict_in_any_arrival_order():
    # With inverted rows refused, every other drawn history streams to the
    # batch verdict, in finish order and shuffled within session order.
    from repro.history.columnar import ColumnarHistory
    from test_csr import first_inverted, timed_history
    from test_routes import session_shuffle

    rng, rejects = random.Random(37), 0
    for seed in range(1500):
        history = timed_history(rng)
        if first_inverted(history) is not None:
            continue
        batch = check_sser(history).satisfied
        for stream in (stream_order(history), session_shuffle(ColumnarHistory.from_history(history), seed)):
            session = CheckerSession(SSER)
            session.ingest_round(stream)
            assert session.result().satisfied == batch
        rejects += not batch
    assert rejects > 500


# ----------------------------------------------------------------------
# The CheckerSession facade and live checking
# ----------------------------------------------------------------------
class TestCheckerSession:
    def test_mtchecker_session_factory_refuses_strict_mt(self):
        # Strict MT validation is the batch pre-check; a session does not
        # silently drop the flag.
        with pytest.raises(ValueError, match="strict MT validation is batch-only"):
            MTChecker(strict_mt=True).session(SER, initial_keys=["x"])

    def test_session_rejects_lwt_levels(self):
        with pytest.raises(ValueError):
            MTChecker().session(IsolationLevel.LINEARIZABILITY)

    def test_live_checking_hook_on_runner(self):
        workload = MTWorkloadGenerator(
            num_sessions=4, txns_per_session=20, num_objects=10, seed=2
        ).generate()
        with MTChecker().session(SI, initial_keys=workload.keys) as session:
            run = run_workload(
                Database("si", keys=workload.keys), workload, seed=3, on_transaction=session
            )
            assert session.num_ingested == run.stats.committed
            assert session.result().satisfied

    def test_live_checking_matches_post_hoc_batch_on_faulty_run(self):
        from repro.db.faults import FaultPlan

        workload = MTWorkloadGenerator(
            num_sessions=4, txns_per_session=40, num_objects=5, seed=9, distribution="zipf"
        ).generate()
        database = Database(
            "si", keys=workload.keys, faults=FaultPlan.for_anomaly("lostupdate", rate=0.6, seed=9)
        )
        session = MTChecker().session(SI, initial_keys=workload.keys)
        run = run_workload(database, workload, seed=10, on_transaction=session)
        assert session.result().satisfied == check_si(run.history).satisfied

    def test_ingest_round(self):
        session = CheckerSession(SER, initial_keys=["x"])
        round_one = [
            Transaction(1, [read("x", 0), write("x", 1)]),
            Transaction(2, [read("x", 1), write("x", 2)], session_id=1),
        ]
        assert session.ingest_round(round_one) == []
        assert session.result().satisfied


# ----------------------------------------------------------------------
# Canonical stream order
# ----------------------------------------------------------------------
class TestStreamOrder:
    def test_initial_first_and_per_session_order_preserved(self):
        history = generated_history(4)
        stream = list(stream_order(history))
        assert stream[0].is_initial
        positions = {txn.txn_id: i for i, txn in enumerate(stream)}
        for session in history.sessions:
            ids = [t.txn_id for t in session.transactions]
            assert [positions[i] for i in ids] == sorted(positions[i] for i in ids)

    def test_timestamped_streams_merge_by_finish(self):
        history = generated_history(6)
        stream = [t for t in stream_order(history) if not t.is_initial]
        finishes = [t.finish_ts for t in stream]
        assert finishes == sorted(finishes)

    def test_untimestamped_histories_round_robin(self):
        t1 = Transaction(1, [read("x", 0)])
        t2 = Transaction(2, [read("x", 0)])
        t3 = Transaction(3, [read("x", 0)])
        history = History.from_transactions([[t1, t3], [t2]], initial_keys=["x"])
        ids = [t.txn_id for t in stream_order(history) if not t.is_initial]
        assert ids == [1, 2, 3]


# ----------------------------------------------------------------------
# Checkpoint / restore round trips
# ----------------------------------------------------------------------
class TestCheckpointRestore:
    """checkpoint() -> restore() must be invisible to the stream.

    At EVERY ingestion boundary of a randomized stream, snapshotting the
    session (through the packed bytes a checkpoint file holds) and resuming in a fresh process-equivalent object yields the same
    per-transaction violation reports and a byte-identical final verdict,
    across SER, SI, and SSER, with and without a bounded window.
    """

    @staticmethod
    def _baseline(level, stream, window=None):
        session = CheckerSession(level, window=window)
        reports = [[v.format() for v in session.ingest(t)] for t in stream]
        return reports, session.result().format()

    @staticmethod
    def _cut_and_resume(level, stream, cut, window=None):
        head = CheckerSession(level, window=window)
        reports = [[v.format() for v in head.ingest(t)] for t in stream[:cut]]
        state = packed(head.checkpoint())
        del head
        resumed = CheckerSession.restore(state)
        reports += [[v.format() for v in resumed.ingest(t)] for t in stream[cut:]]
        return reports, resumed.result().format()

    @SLOW
    @given(history=mt_histories())
    def test_round_trip_at_every_boundary_matches_uninterrupted(self, history):
        stream = list(stream_order(history))
        for level in (SER, SI, SSER):
            base_reports, base_format = self._baseline(level, stream)
            for cut in range(len(stream) + 1):
                reports, fmt = self._cut_and_resume(level, stream, cut)
                assert reports == base_reports, (level, cut)
                assert fmt == base_format, (level, cut)

    @pytest.mark.parametrize("window", [None, 3])
    def test_timed_streams_out_of_finish_order_round_trip_everywhere(self, window):
        # Out of finish order, time nodes and rows take fractional indices
        # of the order: they survive a checkpoint at every boundary.  (A
        # drawn inverted interval is refused: test_csr.py::TestRealTimeChain.)
        from test_csr import first_inverted, timed_history

        rng, streams = random.Random(41), 0
        while streams < 60:
            history = timed_history(rng)
            if first_inverted(history) is not None:
                continue
            streams += 1
            stream = list(stream_order(history))
            stream[1:] = rng.sample(stream[1:], len(stream) - 1)
            base_reports, base_format = self._baseline(SSER, stream, window)
            for cut in range(len(stream) + 1):
                assert self._cut_and_resume(SSER, stream, cut, window) == (base_reports, base_format)

    @pytest.mark.parametrize("window", [None, 8])
    def test_faulty_generated_stream_round_trips_everywhere(self, window):
        history = generated_history(23, engine="rc", txns=12)
        stream = list(stream_order(history))
        for level in (SER, SI, SSER):
            base_reports, base_format = self._baseline(level, stream, window)
            for cut in range(len(stream) + 1):
                reports, fmt = self._cut_and_resume(level, stream, cut, window)
                assert reports == base_reports, (level, cut, window)
                assert fmt == base_format, (level, cut, window)

    @pytest.mark.parametrize("window", [None, 8])
    @pytest.mark.parametrize("level", [SER, SI, SSER])
    def test_state_packs_exactly_and_shares_nothing_with_a_checker(self, level, window):
        stream = list(stream_order(generated_history(23, engine="rc", txns=12)))
        cut = len(stream) // 2
        head = CheckerSession(level, window=window)
        for txn in stream[:cut]:
            head.ingest(txn)
        at_cut = head.result().format()
        state = head.checkpoint()
        assert state["format"] == CHECKPOINT_STATE_FORMAT == "repro-checker-state-v5"
        # Typed columns, and exact through the bytes: nothing lossy.
        assert isinstance(state["topo"]["src"], array) and isinstance(state["slots"]["version"], array)
        text = repr(state)
        assert packed(state) == state
        # The live checker moving on must not reach into the snapshot...
        for txn in stream[cut:]:
            head.ingest(txn)
        assert repr(state) == text
        # ...nor may a checker restored from it, so one snapshot restores
        # any number of times to the at-cut verdict and the same tail.
        for _ in range(2):
            resumed = CheckerSession.restore(state)
            assert resumed.result().format() == at_cut
            for txn in stream[cut:]:
                resumed.ingest(txn)
            assert repr(state) == text
            assert resumed.result().format() == head.result().format()

    def test_v3_states_are_refused_by_name(self):
        # v3 kept SSER's real time as a finish-sorted interval list in ``rt``
        # (and some v3 states carry "strict_mt"); v4 keeps the timeline
        # there.  An old state is refused by its tag, never half-read.
        t1 = Transaction(1, [read("x", 0), write("x", 1)], start_ts=0.0, finish_ts=1.0)
        head = CheckerSession(SSER, initial_keys=["x"])
        head.ingest(t1)
        state = head.checkpoint()
        assert "strict_mt" not in state and list(state["rt"]["kind"]) == [0, 1]
        v3 = {**state, "format": "repro-checker-state-v3", "strict_mt": False,
              "rt": {"finish": [1.0], "start": [0.0], "txn": [1]}}
        with pytest.raises(ValueError, match="found format 'repro-checker-state-v3'"):
            CheckerSession.restore(v3)

    def test_v4_states_are_refused_by_name(self):
        # v4 was JSON-safe: lists of ints and ``typ``/``key`` label strings.
        # v5 writes typed columns and int labels; a v4 dict is refused by its
        # tag, never half-read, and a caller replays.
        head = CheckerSession(SER, initial_keys=["x"])
        head.ingest(Transaction(1, [read("x", 0), write("x", 1)]))
        v4 = {**head.checkpoint(), "format": "repro-checker-state-v4",
              "topo": {"counter": 2, "node": [-1, 1], "ord": [0, 1], "src": [-1, -1],
                       "dst": [1, 1], "typ": ["WR", "WW"], "key": ["x", "x"]}}
        with pytest.raises(ValueError, match="found format 'repro-checker-state-v4'"):
            CheckerSession.restore(v4)

    def test_restore_rejects_unknown_snapshot_format(self):
        with pytest.raises(ValueError, match="found format 'not-a-checker-state'"):
            CheckerSession.restore({"format": "not-a-checker-state"})
        with pytest.raises(ValueError, match="found format 'repro-checker-state-v1'"):
            CheckerSession.restore({"format": "repro-checker-state-v1", "slots": []})
        with pytest.raises(ValueError):
            IncrementalChecker.restore({})

    @pytest.mark.parametrize(
        "damage",
        [
            lambda state: state.pop("slots"),
            lambda state: state["slots"].pop("readers"),
            lambda state: state["topo"]["dst"].pop(),
            lambda state: state["topo"].update(ord="0123"),
            lambda state: state.update(rt=7),
            lambda state: state.update(arrivals={"1": 2}),
            lambda state: state.update(num_committed="many"),
            lambda state: state.update(level="no-such-level"),
            lambda state: state["slots"]["status"].__setitem__(0, 99),
            # Edge labels as int codes on ``topo`` and ``refused``; key ids.
            lambda state: state["topo"].pop("label"),
            lambda state: state["topo"]["label"].append(0),
            lambda state: state["topo"]["label"].__setitem__(0, 10**6),
            lambda state: state["topo"]["label"].__setitem__(0, -1),
            lambda state: state.pop("refused"),
            lambda state: state["refused"].pop("label"),
            lambda state: state["refused"]["src"].append(1),
            lambda state: state["refused"].update(src=array("q", [1]), dst=array("q", [2]), label=array("q", [99])),
            lambda state: state.update(keys="xy"),
            lambda state: state.update(keys=[1]),
            lambda state: state["slots"]["version"].__setitem__(0, 7),
            lambda state: state.update(sealed_fifo=["x"]),
            # The v5 columns: typecodes, ragged counts, side tables, time nodes.
            lambda state: state["slots"].update(version=array("d", state["slots"]["version"])),
            lambda state: state["slots"]["status"].__setitem__(0, -3),
            lambda state: state["slots"]["readers_count"].__setitem__(0, -1),
            lambda state: state["slots"]["readers_count"].__setitem__(0, 5),
            lambda state: state["slots"].update(intermediate_row=array("q", [9]), intermediate=array("q", [1])),
            lambda state: state["slots"].update(intermediate_row=array("q", [-1]), intermediate=array("q", [1])),
            lambda state: state["topo"]["node"].__setitem__(0, state["topo"]["time_base"] - 1),
            lambda state: state["topo"].update(time_base="low"),
            lambda state: state["rw_succ"].update(src=array("q", [1]), dst=array("q", [2]), key=array("q", [2])),
        ],
        ids=[
            "missing-table", "missing-column", "short-column", "column-not-a-list",
            "table-not-a-dict", "arrivals-not-a-list", "mistyped-scalar",
            "unknown-level", "unknown-status-code",
            "topo-missing-label", "topo-long-label", "topo-unknown-label", "topo-negative-label",
            "missing-refused", "refused-missing-label", "refused-long-src",
            "refused-unknown-label", "keys-not-a-list", "keys-not-strings", "unknown-key-id",
            "key-id-not-an-int", "column-of-another-typecode", "negative-status-code",
            "negative-ragged-count", "oversized-ragged-count", "side-row-past-the-table",
            "negative-side-row", "time-node-past-the-timeline", "time-base-not-an-int",
            "unknown-rw-key",
        ],
    )
    def test_restore_reports_structural_damage_as_malformed_state(self, damage):
        import copy

        session = CheckerSession(SI, initial_keys=["x"], window=8)
        session.ingest(Transaction(1, [read("x", 0), write("x", 1)]))
        session.ingest(Transaction(2, [read("x", 1), write("x", 2)], session_id=1))
        state = copy.deepcopy(session.checkpoint())
        CheckerSession.restore(state)  # intact: restores
        damage(state)
        with pytest.raises(ValueError, match="malformed checkpoint state"):
            CheckerSession.restore(state)

    @pytest.mark.parametrize("kind", [2, 3, -1])
    def test_restore_refuses_a_time_node_that_is_neither_start_nor_finish(self, kind):
        # ``rt.kind`` is 0 (start) or 1 (finish): any other code, 2 included,
        # is damage, never restored as a node.
        session = CheckerSession(SSER, initial_keys=["x"])
        session.ingest(Transaction(1, [read("x", 0), write("x", 1)], start_ts=0, finish_ts=1))
        session.ingest(Transaction(2, [read("x", 1)], session_id=1, start_ts=2, finish_ts=3))
        kinds = packed(session.checkpoint())["rt"]["kind"]
        assert list(kinds) == [0, 1, 0, 1]
        for row in range(len(kinds)):
            state = packed(session.checkpoint())
            state["rt"]["kind"][row] = kind
            with pytest.raises(ValueError, match=f"malformed checkpoint state: ValueError: time node kind {kind}"):
                CheckerSession.restore(state)

    def test_restored_session_keeps_streaming(self):
        session = CheckerSession(SER, initial_keys=["x"])
        session.ingest(Transaction(1, [read("x", 0), write("x", 1)]))
        resumed = CheckerSession.restore(session.checkpoint())
        assert resumed.ingest(Transaction(2, [read("x", 1), write("x", 2)])) == []
        # A second-generation snapshot works too (checkpoint of a restore).
        again = CheckerSession.restore(resumed.checkpoint())
        assert again.ingest(Transaction(3, [read("x", 2), write("x", 3)])) == []
        assert again.result().satisfied
        assert again.result().num_transactions == 3
