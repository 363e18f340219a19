"""Tests for the shared :class:`repro.core.index.HistoryIndex`."""

import gc

import pytest

from repro.core.anomalies import ANOMALY_NAMES, anomaly_history
from repro.core.checkers import check_ser, check_si, check_sser
from repro.core.checker import MTChecker
from repro.core.csr import CSRGraph
from repro.core.index import HistoryIndex
from repro.core.intcheck import build_write_index, check_internal_consistency
from repro.core.mini import validate_mt_history
from repro.core.model import History, Transaction, read, write
from repro.core.result import IsolationLevel
from repro.bench import generate_mt_history
from repro.db import FaultPlan
from repro.history.columnar import ColumnarHistory


def history_of(*sessions, initial_keys=("x", "y")):
    return History.from_transactions(list(sessions), initial_keys=list(initial_keys))


def random_histories():
    for seed, faults in [
        (1, None),
        (2, FaultPlan.for_anomaly("lostupdate", rate=0.4, seed=2)),
        (3, FaultPlan.for_anomaly("abortedread", rate=0.4, seed=3)),
    ]:
        yield generate_mt_history(
            isolation="si",
            num_sessions=4,
            txns_per_session=25,
            num_objects=10,
            distribution="zipf",
            seed=seed,
            faults=faults,
        ).history


class TestInterning:
    def test_dense_ids_cover_every_transaction_and_key(self):
        t1 = Transaction(1, [read("x", 0), write("x", 1)])
        t2 = Transaction(2, [read("y", 0), write("y", 2)], session_id=1)
        index = HistoryIndex.build(history_of([t1], [t2]))
        assert sorted(index.txn_ids) == [-1, 1, 2]
        assert index.txn_dense[index.txn_ids[0]] == 0
        assert sorted(index.key_names) == ["x", "y"]
        keys_of = lambda txn_id: [
            index.key_names[k] for k in index.txn_keys[index.txn_dense[txn_id]]
        ]
        assert keys_of(1) == ["x"]
        assert keys_of(-1) == ["x", "y"]

    def test_txn_keys_are_dense_and_sorted(self):
        for history in random_histories():
            index = HistoryIndex.build(history)
            for dense, key_ids in enumerate(index.txn_keys):
                assert key_ids == sorted(set(key_ids))
                txn = index.transactions[dense]
                assert {index.key_names[k] for k in key_ids} == txn.keys()


class TestWriteIndexParity:
    def test_final_and_intermediate_writers_match_write_index(self):
        for history in random_histories():
            index = HistoryIndex.build(history)
            legacy = build_write_index(history)
            for txn in history.transactions(include_initial=True):
                for op in txn.operations:
                    if not op.is_write:
                        continue
                    ours = index.final_writer(op.key, op.value)
                    theirs = legacy.final_writer(op.key, op.value)
                    assert (ours is None) == (theirs is None)
                    if ours is not None:
                        assert ours.txn_id == theirs.txn_id
                    inter_ours = index.intermediate_writer(op.key, op.value)
                    inter_theirs = legacy.intermediate_writer(op.key, op.value)
                    assert (inter_ours is None) == (inter_theirs is None)

    def test_external_reads_match_model(self):
        for history in random_histories():
            index = HistoryIndex.build(history)
            resolved = {}
            for reader, key, value, _, writes_key, written in index.iter_read_tuples():
                resolved.setdefault(reader, {})[key] = (value, writes_key, written)
            for txn in history.committed_transactions(include_initial=False):
                assert resolved.get(txn.txn_id, {}) == {
                    key: (value, txn.writes_to(key), txn.final_write(key))
                    for key, value in txn.external_reads().items()
                }


class TestCachedPasses:
    def test_int_violations_equal_standalone_pass(self):
        for name in ANOMALY_NAMES:
            history = anomaly_history(name)
            index = HistoryIndex.build(history)
            ours = [(v.kind, tuple(v.txn_ids)) for v in index.int_violations()]
            theirs = [
                (v.kind, tuple(v.txn_ids))
                for v in check_internal_consistency(history)
            ]
            assert ours == theirs

    def test_caches_are_memoised(self):
        history = next(iter(random_histories()))
        index = HistoryIndex.build(history)
        assert index.int_violations() is index.int_violations()
        assert index.mt_problems() is index.mt_problems()

    def test_mt_problems_match_validate(self):
        history = next(iter(random_histories()))
        index = HistoryIndex.build(history)
        assert len(index.mt_problems()) == len(validate_mt_history(history))


def healthy_segment(txns_per_session):
    return ColumnarHistory.from_history(
        generate_mt_history(
            isolation="serializable", num_sessions=16, txns_per_session=txns_per_session,
            num_objects=400, seed=18,
        ).history
    )


class TestScanIsTheIntPrePass:
    """The column scan costs no garbage collection.  That it flags exactly
    the rows the object check reports on is a route of ``tests/test_routes.py``
    (every corpus entry, and random hostile histories)."""

    def test_build_wakes_no_collector_and_materialises_nothing(self):
        columns = healthy_segment(500)
        assert columns.num_transactions >= 8000
        gc.collect()
        before = [generation["collections"] for generation in gc.get_stats()]
        index = HistoryIndex.from_columns(columns)
        assert [generation["collections"] for generation in gc.get_stats()] == before
        assert index.int_violations() == []
        assert index._txn_cache == {}

    def test_kernel_wakes_no_collector(self):
        columns = healthy_segment(500)
        assert columns.num_transactions >= 8000
        index = HistoryIndex.from_columns(columns)
        index.real_time_id_pairs()  # the index's own cache: tuples, built once
        gc.collect()
        before = [generation["collections"] for generation in gc.get_stats()]
        for with_rt in (False, True):  # SER and SSER
            assert CSRGraph.from_index(index, with_rt=with_rt).has_cycle() is None
        assert CSRGraph.from_index(index).si_induced().has_cycle() is None  # SI
        assert [generation["collections"] for generation in gc.get_stats()] == before


class TestSingleConstruction:
    """The acceptance invariant: one HistoryIndex per MTChecker.verify call."""

    @pytest.mark.parametrize(
        "level",
        [
            IsolationLevel.SERIALIZABILITY,
            IsolationLevel.SNAPSHOT_ISOLATION,
            IsolationLevel.STRICT_SERIALIZABILITY,
        ],
    )
    def test_verify_builds_exactly_one_index(self, level):
        history = generate_mt_history(
            isolation="serializable",
            num_sessions=3,
            txns_per_session=15,
            num_objects=8,
            seed=7,
        ).history
        checker = MTChecker(strict_mt=True)
        before = HistoryIndex.builds
        result = checker.verify(history, level)
        assert HistoryIndex.builds == before + 1
        assert result.satisfied

    def test_checkers_share_supplied_index(self):
        history = next(iter(random_histories()))
        index = HistoryIndex.build(history)
        before = HistoryIndex.builds
        check_ser(history, index=index)
        check_si(history, index=index)
        check_sser(history, index=index)
        assert HistoryIndex.builds == before


LEVELS = [
    IsolationLevel.SERIALIZABILITY,
    IsolationLevel.SNAPSHOT_ISOLATION,
    IsolationLevel.STRICT_SERIALIZABILITY,
]


def every_route(history, level):
    """``format()`` of one History on every route to a verdict."""
    from repro.core.incremental import stream_order
    from repro.history.columnar import ColumnarHistory

    check = {LEVELS[0]: check_ser, LEVELS[1]: check_si, LEVELS[2]: check_sser}[level]
    per_txn = MTChecker().session(level)
    for txn in stream_order(history):
        per_txn.ingest(txn)
    return {
        "serial": MTChecker().verify(history, level).format(),
        "workers=1": MTChecker(workers=1).verify(history, level).format(),
        "check_fn": check(history).format(),
        "columns": MTChecker().verify(ColumnarHistory.from_history(history), level).format(),
        "ingest_history": MTChecker().session(level).ingest_history(history).format(),
        "ingest": per_txn.result().format(),
    }


class TestTheDoor:
    """A History reaches every plane through one column-encoding door."""

    def test_object_layer_is_the_callers_own_objects(self):
        for history in random_histories():
            index = HistoryIndex.build(history)
            assert index.history is history
            assert index.columns is not None
            by_id = {t.txn_id: t for t in history.transactions()}
            assert all(t is by_id[t.txn_id] for t in index.transactions)

    def test_orders_match_the_model(self):
        # Reference: History.real_time_order on objects.
        timestamped = generate_mt_history(
            isolation="si", num_sessions=4, txns_per_session=20, num_objects=8,
            seed=11, faults=FaultPlan.for_anomaly("abortedread", rate=0.3, seed=11),
        ).history
        for history in [*random_histories(), timestamped]:
            index = HistoryIndex.build(history)
            assert index.real_time_id_pairs() == [
                (a.txn_id, b.txn_id) for a, b in history.real_time_order()
            ]

    @staticmethod
    def _lost_update_sessions():
        t1 = Transaction(1, [read("x", 0), write("x", 1)], session_id=0)
        t2 = Transaction(2, [read("x", 0), write("x", 2)], session_id=1)
        t3 = Transaction(3, [read("y", 0), write("y", 3)], session_id=2)
        return t1, t2, t3

    def test_unsorted_sessions_list_is_the_same_history_on_every_route(self):
        from repro.core.model import Session

        t1, t2, t3 = self._lost_update_sessions()
        ascending = History(
            [Session(0, [t1]), Session(1, [t2]), Session(2, [t3])],
        )
        shuffled = History(
            [Session(2, [t3]), Session(0, [t1]), Session(1, [t2])],
        )
        for history in (ascending, shuffled):
            history.ensure_initial_transaction()
        for level in LEVELS:
            # Route by route, list order changes nothing (batch and streaming
            # counterexamples legitimately differ in shape from each other).
            assert every_route(shuffled, level) == every_route(ascending, level)
            routes = every_route(shuffled, level)
            assert len({routes[r] for r in ("serial", "workers=1", "check_fn", "columns")}) == 1
            assert routes["ingest_history"] == routes["ingest"]

    @pytest.mark.parametrize("shape", ["duplicate-session-id", "mismatched-session-id"])
    def test_malformed_sessions_raise_on_every_route(self, shape, tmp_path, capsys):
        from repro.cli import main
        from repro.core.model import Session
        from repro.history import save_history
        from repro.history.columnar import ColumnarHistory

        if shape == "duplicate-session-id":
            # Two Session objects, one id: merged by id they gain an SO edge.
            history = History(
                [
                    Session(0, [Transaction(1, [read("x", 1)], session_id=0)]),
                    Session(0, [Transaction(2, [read("x", 0), write("x", 1)], session_id=0)]),
                ]
            )
            offender = "session id 0"
        else:
            history = History(
                [
                    Session(0, [Transaction(1, [read("x", 1)], session_id=0)]),
                    Session(1, [Transaction(2, [read("x", 0), write("x", 1)], session_id=0)]),
                ]
            )
            offender = "session 1"
        history.ensure_initial_transaction()
        level = IsolationLevel.SERIALIZABILITY
        routes = {
            "serial": lambda: MTChecker().verify(history, level),
            "workers=1": lambda: MTChecker(workers=1).verify(history, level),
            "check_fn": lambda: check_ser(history),
            "columns": lambda: ColumnarHistory.from_history(history),
            "ingest_history": lambda: MTChecker().session(level).ingest_history(history),
        }
        for route, run in routes.items():
            with pytest.raises(ValueError, match=offender):
                run()
        path = tmp_path / "malformed.json"
        save_history(history, path)
        for argv in (["check", str(path)], ["check", "--workers", "1", str(path)]):
            assert main([*argv, "--level", "ser"]) == 2, argv
            out = capsys.readouterr().out
            assert out.startswith(f"error: {path}: malformed history") and offender in out

    def test_values_outside_int64_are_rejected_on_every_batch_route(self, tmp_path, capsys):
        from repro.cli import main
        from repro.history import save_history

        big = 2**63
        t1 = Transaction(1, [read("x", 0), write("x", big)])
        history = history_of([t1], initial_keys=("x",))
        level = IsolationLevel.SERIALIZABILITY
        for run in (
            lambda: MTChecker().verify(history, level),
            lambda: MTChecker(workers=1).verify(history, level),
            lambda: check_ser(history),
            lambda: HistoryIndex.build(history),
        ):
            with pytest.raises(ValueError, match="does not fit the columnar segment format"):
                run()
        path = tmp_path / "big.json"
        save_history(history, path)
        assert main(["check", "--level", "ser", str(path)]) == 2
        out = capsys.readouterr().out
        assert out.startswith("error: ") and "does not fit" in out
        assert "Traceback" not in out
