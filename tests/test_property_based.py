"""Property-based tests (hypothesis) for the core invariants.

The central properties:

* **Engine/checker consistency** — histories produced by a correct engine
  satisfy the engine's isolation level for arbitrary workload parameters.
* **Round-trips and order reductions** preserve verdicts and reachability.

Cross-checker agreement on random mini-transaction histories (MTC against
Cobra, PolySI and dbcop) is one property of the route driver,
``tests/test_routes.py``, which also owns the ``mt_histories`` strategy.
"""

import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.checkers import check_ser, check_si
from repro.core.lwt import check_linearizability
from repro.core.model import Transaction, interval_order_reduction
from repro.db import Database
from repro.history import load_columns, write_history
from repro.storage import VersionedStore
from repro.workloads import LWTHistoryGenerator, MTWorkloadGenerator, run_workload

from test_routes import mt_histories

SLOW = settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
FAST = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def all_specs(workload):
    """Every planned transaction of ``workload``, session by session."""
    return [spec for session in workload.sessions for spec in session]


class TestEngineCheckerConsistency:
    @SLOW
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        sessions=st.integers(min_value=2, max_value=6),
        objects=st.integers(min_value=2, max_value=20),
    )
    def test_si_engine_histories_always_satisfy_si(self, seed, sessions, objects):
        generator = MTWorkloadGenerator(
            num_sessions=sessions, txns_per_session=10, num_objects=objects, seed=seed
        )
        workload = generator.generate()
        run = run_workload(Database("si", keys=workload.keys), workload, seed=seed)
        assert check_si(run.history).satisfied

    @SLOW
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        sessions=st.integers(min_value=2, max_value=6),
        objects=st.integers(min_value=2, max_value=20),
    )
    def test_serializable_engine_histories_always_satisfy_ser(self, seed, sessions, objects):
        generator = MTWorkloadGenerator(
            num_sessions=sessions, txns_per_session=10, num_objects=objects, seed=seed
        )
        workload = generator.generate()
        run = run_workload(Database("serializable", keys=workload.keys), workload, seed=seed)
        assert check_ser(run.history).satisfied

    @SLOW
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_lwt_generator_round_trip_verdicts(self, seed):
        generator = LWTHistoryGenerator(
            num_sessions=4, txns_per_session=15, num_objects=2, seed=seed
        )
        assert check_linearizability(generator.generate(valid=True)).satisfied
        assert not check_linearizability(generator.generate(valid=False)).satisfied


class TestStructuralProperties:
    @FAST
    @given(history=mt_histories())
    def test_serialization_round_trip_preserves_verdicts(self, history):
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "h.jsonl")
            write_history(history, path)
            restored = load_columns(path).to_history()
        assert check_ser(restored).satisfied == check_ser(history).satisfied
        assert check_si(restored).satisfied == check_si(history).satisfied

    @FAST
    @given(
        intervals=st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=100, allow_nan=False),
                st.floats(min_value=0.01, max_value=30, allow_nan=False),
            ),
            min_size=0,
            max_size=30,
        )
    )
    def test_interval_order_reduction_preserves_reachability(self, intervals):
        txns = [
            Transaction(i, [], start_ts=start, finish_ts=start + duration)
            for i, (start, duration) in enumerate(intervals)
        ]
        full = {
            (a.txn_id, b.txn_id)
            for a in txns
            for b in txns
            if a is not b and a.finish_ts < b.start_ts
        }
        reduced = set(
            interval_order_reduction([(t.start_ts, t.finish_ts, t.txn_id) for t in txns])
        )
        assert reduced <= full
        # Closure of the reduction recovers the full relation.
        adjacency = {}
        for a, b in reduced:
            adjacency.setdefault(a, set()).add(b)
        closure = set()
        for node in {t.txn_id for t in txns}:
            stack = list(adjacency.get(node, ()))
            seen = set()
            while stack:
                nxt = stack.pop()
                if nxt in seen:
                    continue
                seen.add(nxt)
                closure.add((node, nxt))
                stack.extend(adjacency.get(nxt, ()))
        assert closure == full

    @FAST
    @given(
        commits=st.lists(
            st.tuples(st.integers(min_value=1, max_value=50), st.integers(min_value=0, max_value=1000)),
            min_size=1,
            max_size=30,
        ),
        probe=st.integers(min_value=0, max_value=60),
    )
    def test_versioned_store_read_at_returns_latest_visible(self, commits, probe):
        store = VersionedStore()
        for ts, value in commits:
            store.install("x", value, commit_ts=float(ts), txn_id=value)
        version = store.read_at("x", float(probe))
        visible = [(ts, value) for ts, value in commits if ts <= probe]
        if not visible:
            assert version is None
        else:
            expected_ts = max(ts for ts, _ in visible)
            assert version.commit_ts == float(expected_ts)

    @FAST
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        sessions=st.integers(min_value=1, max_value=5),
        txns=st.integers(min_value=1, max_value=15),
    )
    def test_mt_generator_always_emits_mini_transactions(self, seed, sessions, txns):
        generator = MTWorkloadGenerator(
            num_sessions=sessions, txns_per_session=txns, num_objects=5, seed=seed
        )
        workload = generator.generate()
        assert all(spec.is_mini() for spec in all_specs(workload))
