"""Tests for the baseline checkers: Cobra, PolySI, Porcupine, Elle, dbcop.

Unit behaviour only.  Agreement with MTC (Cobra and dbcop at SER, PolySI at
SI) is a route of ``tests/test_routes.py``: every small corpus entry records
which baselines agree, and random MT histories must agree on all three.
"""

import pytest

from repro.baselines import (
    CobraChecker,
    DbcopChecker,
    ElleChecker,
    PolySIChecker,
    PorcupineChecker,
)
from repro.core.checkers import check_ser, check_si
from repro.core.lwt import check_linearizability
from repro.core.model import History, Transaction, read, write
from repro.core.result import IsolationLevel
from repro.db import Database, FaultPlan
from repro.workloads import (
    LWTHistoryGenerator,
    MTWorkloadGenerator,
    run_workload,
)


def txn(txn_id, *ops):
    return Transaction(txn_id, list(ops))


def generated_history(isolation, *, faults=None, seed=1, objects=10, txns=30):
    generator = MTWorkloadGenerator(
        num_sessions=4, txns_per_session=txns, num_objects=objects, distribution="zipf", seed=seed
    )
    workload = generator.generate()
    db = Database(isolation, keys=workload.keys, faults=faults)
    return run_workload(db, workload, seed=seed + 1).history


class TestCobra:
    def test_valid_chain_accepted(self):
        t1 = txn(1, read("x", 0), write("x", 1))
        t2 = txn(2, read("x", 1), write("x", 2))
        history = History.from_transactions([[t1], [t2]], initial_keys=["x"])
        assert CobraChecker().check(history).satisfied

    def test_detects_injected_write_skew(self):
        from repro.workloads import MTWorkloadMix

        mix = MTWorkloadMix(single_rmw=0.2, double_rmw=0.2, read_only=0.1, read_then_rmw=0.5)
        generator = MTWorkloadGenerator(
            num_sessions=6, txns_per_session=80, num_objects=5, mix=mix, seed=3
        )
        workload = generator.generate()
        db = Database("serializable", keys=workload.keys, faults=FaultPlan(write_skew_rate=1.0, seed=5))
        history = run_workload(db, workload, seed=7).history
        mtc = check_ser(history)
        cobra = CobraChecker().check(history)
        assert cobra.satisfied == mtc.satisfied == False  # noqa: E712

    def test_report_populated(self):
        checker = CobraChecker()
        checker.check(generated_history("serializable"))
        assert checker.last_report is not None
        assert checker.last_report.total_seconds >= 0

    def test_without_rmw_pruning_still_correct(self):
        history = generated_history("serializable", txns=10, objects=5)
        assert CobraChecker(prune_rmw_chains=False).check(history).satisfied

    def test_int_violations_reported(self):
        bad = txn(1, read("x", 42))
        history = History.from_transactions([[bad]], initial_keys=["x"])
        result = CobraChecker().check(history)
        assert not result.satisfied


class TestPolySI:
    def test_detects_lost_update_fault(self):
        history = generated_history("si", faults=FaultPlan(lost_update_rate=0.6, seed=2), txns=15, objects=5)
        mtc = check_si(history)
        polysi = PolySIChecker().check(history)
        assert polysi.satisfied == mtc.satisfied == False  # noqa: E712

    def test_write_skew_history_accepted_under_si(self):
        from repro.core.anomalies import write_skew

        assert PolySIChecker().check(write_skew()).satisfied

    def test_report_populated(self):
        checker = PolySIChecker()
        checker.check(generated_history("si", txns=10, objects=10))
        assert checker.last_report is not None
        assert checker.last_report.num_constraints >= 0


class TestPorcupine:
    def test_agrees_with_vl_lwt_on_valid_histories(self):
        generator = LWTHistoryGenerator(num_sessions=5, txns_per_session=30, num_objects=2, seed=3)
        history = generator.generate()
        assert PorcupineChecker().check(history).satisfied == check_linearizability(history).satisfied

    def test_agrees_on_invalid_histories(self):
        generator = LWTHistoryGenerator(num_sessions=5, txns_per_session=30, num_objects=1, seed=5)
        history = generator.generate(valid=False)
        assert (
            PorcupineChecker().check(history).satisfied
            == check_linearizability(history).satisfied
            == False  # noqa: E712
        )

    def test_accepts_overlapping_concurrent_operations(self):
        from repro.core.lwt import LWTHistory, LWTKind, LWTOperation

        history = LWTHistory(
            [
                LWTOperation(1, LWTKind.INSERT, "x", written=0, start_ts=0.0, finish_ts=9.0),
                LWTOperation(2, LWTKind.READ_WRITE, "x", expected=0, written=1, start_ts=0.0, finish_ts=9.0),
                LWTOperation(3, LWTKind.READ_WRITE, "x", expected=1, written=2, start_ts=0.0, finish_ts=9.0),
            ]
        )
        assert PorcupineChecker().check(history).satisfied

    def test_state_budget_guard(self):
        generator = LWTHistoryGenerator(num_sessions=4, txns_per_session=20, num_objects=1, seed=7)
        checker = PorcupineChecker(max_states=1)
        assert not checker.check(generator.generate()).satisfied


class TestElle:
    def test_register_mode_detects_divergence(self):
        from repro.core.anomalies import lost_update

        checker = ElleChecker(IsolationLevel.SERIALIZABILITY)
        assert not checker.check_registers(lost_update()).satisfied

    def test_register_mode_accepts_valid_history(self):
        history = generated_history("serializable", txns=15)
        assert ElleChecker(IsolationLevel.SERIALIZABILITY).check_registers(history).satisfied

    def test_rejects_unsupported_level(self):
        with pytest.raises(ValueError):
            ElleChecker(IsolationLevel.LINEARIZABILITY)

    def test_list_append_incompatible_order_detected(self):
        from repro.workloads.list_append import AppendOp, ElleHistory, ElleTransaction, ReadListOp

        t1 = ElleTransaction(1, 0, ops=[AppendOp("l0", 1)])
        t2 = ElleTransaction(2, 1, ops=[AppendOp("l0", 2)])
        r1 = ElleTransaction(3, 2, ops=[ReadListOp("l0", (1, 2))])
        r2 = ElleTransaction(4, 3, ops=[ReadListOp("l0", (2,))])
        history = ElleHistory(sessions=[[t1], [t2], [r1], [r2]], keys=["l0"])
        result = ElleChecker(IsolationLevel.SERIALIZABILITY).check_list_append(history)
        assert not result.satisfied

    def test_list_append_aborted_read_detected(self):
        from repro.workloads.list_append import AppendOp, ElleHistory, ElleTransaction, ReadListOp

        aborted = ElleTransaction(1, 0, ops=[AppendOp("l0", 1)], committed=False)
        reader = ElleTransaction(2, 1, ops=[ReadListOp("l0", (1,))])
        history = ElleHistory(sessions=[[aborted], [reader]], keys=["l0"])
        result = ElleChecker(IsolationLevel.SNAPSHOT_ISOLATION).check_list_append(history)
        assert not result.satisfied

    def test_list_append_thin_air_read_detected(self):
        from repro.workloads.list_append import ElleHistory, ElleTransaction, ReadListOp

        reader = ElleTransaction(1, 0, ops=[ReadListOp("l0", (99,))])
        history = ElleHistory(sessions=[[reader]], keys=["l0"])
        assert not ElleChecker(IsolationLevel.SERIALIZABILITY).check_list_append(history).satisfied

    def test_list_append_valid_chain_accepted(self):
        from repro.workloads.list_append import AppendOp, ElleHistory, ElleTransaction, ReadListOp

        t1 = ElleTransaction(1, 0, ops=[AppendOp("l0", 1)])
        t2 = ElleTransaction(2, 0, ops=[AppendOp("l0", 2), ReadListOp("l0", (1, 2))])
        reader = ElleTransaction(3, 1, ops=[ReadListOp("l0", (1,))])
        history = ElleHistory(sessions=[[t1, t2], [reader]], keys=["l0"])
        assert ElleChecker(IsolationLevel.SERIALIZABILITY).check_list_append(history).satisfied


class TestDbcop:
    def test_state_budget_guard(self):
        history = generated_history("serializable", txns=20)
        assert not DbcopChecker(max_states=1).check(history).satisfied

    def test_empty_history(self):
        history = History.from_transactions([], initial_keys=["x"])
        assert DbcopChecker().check(history).satisfied
