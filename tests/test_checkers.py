"""Tests for the MTC verification algorithms (CHECKSSER, CHECKSER, CHECKSI)."""

import pytest

from repro.core.anomalies import anomaly_catalog
from repro.core.checker import MTChecker
from repro.core.checkers import MTHistoryError, check_ser, check_si, check_sser, classify_cycle
from repro.core.graph import DependencyGraph, Edge, EdgeType
from repro.core.model import History, Transaction, read, write
from repro.core.result import AnomalyKind, IsolationLevel
from repro.history.columnar import ColumnarHistory


def txn(txn_id, *ops, **kwargs):
    return Transaction(txn_id, list(ops), **kwargs)


def history_of(*sessions, keys=("x",)):
    return History.from_transactions(list(sessions), initial_keys=list(keys))


class TestCheckSer:
    def test_serializable_chain_passes(self):
        t1 = txn(1, read("x", 0), write("x", 1))
        t2 = txn(2, read("x", 1), write("x", 2))
        result = check_ser(history_of([t1], [t2]))
        assert result.satisfied
        assert result.num_transactions == 2
        assert result.elapsed_seconds is not None

    def test_lost_update_rejected(self):
        t1 = txn(1, read("x", 0), write("x", 1))
        t2 = txn(2, read("x", 0), write("x", 2))
        result = check_ser(history_of([t1], [t2]))
        assert not result.satisfied
        assert result.violation.cycle  # counterexample present

    def test_write_skew_rejected(self):
        t1 = txn(1, read("x", 0), read("y", 0), write("x", 1))
        t2 = txn(2, read("x", 0), read("y", 0), write("y", 1))
        result = check_ser(history_of([t1], [t2], keys=("x", "y")))
        assert not result.satisfied
        assert result.violation.kind is AnomalyKind.WRITE_SKEW

    def test_empty_history_passes(self):
        assert check_ser(History.from_transactions([], initial_keys=["x"])).satisfied

    def test_read_only_transactions_pass(self):
        t1 = txn(1, read("x", 0), read("y", 0))
        t2 = txn(2, read("y", 0), read("x", 0))
        assert check_ser(history_of([t1], [t2], keys=("x", "y"))).satisfied

    def test_transitive_ww_variant_agrees(self):
        for name, spec in anomaly_catalog().items():
            history = spec.build()
            assert (
                check_ser(history, transitive_ww=True).satisfied
                == check_ser(history, transitive_ww=False).satisfied
            ), name

    def test_strict_mt_rejects_non_mt_history(self):
        gt = txn(1, write("x", 1), write("y", 2), write("z", 3))
        history = history_of([gt], keys=("x", "y", "z"))
        with pytest.raises(MTHistoryError):
            check_ser(history, strict_mt=True)

    def test_int_violations_short_circuit(self):
        t1 = txn(1, read("x", 42))
        result = check_ser(history_of([t1]))
        assert not result.satisfied
        assert result.violation.kind is AnomalyKind.THIN_AIR_READ


class TestCheckSi:
    def test_si_chain_passes(self):
        t1 = txn(1, read("x", 0), write("x", 1))
        t2 = txn(2, read("x", 1), write("x", 2))
        assert check_si(history_of([t1], [t2])).satisfied

    def test_write_skew_allowed_under_si(self):
        t1 = txn(1, read("x", 0), read("y", 0), write("x", 1))
        t2 = txn(2, read("x", 0), read("y", 0), write("y", 1))
        assert check_si(history_of([t1], [t2], keys=("x", "y"))).satisfied

    def test_lost_update_rejected_under_si(self):
        t1 = txn(1, read("x", 0), write("x", 1))
        t2 = txn(2, read("x", 0), write("x", 2))
        result = check_si(history_of([t1], [t2]))
        assert not result.satisfied
        assert result.violation.kind is AnomalyKind.LOST_UPDATE

    def test_long_fork_rejected_under_si(self):
        t1 = txn(1, read("x", 0), write("x", 1))
        t2 = txn(2, read("y", 0), write("y", 1))
        t3 = txn(3, read("x", 1), read("y", 0))
        t4 = txn(4, read("x", 0), read("y", 1))
        history = history_of([t1], [t2], [t3], [t4], keys=("x", "y"))
        assert not check_si(history).satisfied

    def test_early_exit_flag_does_not_change_the_verdict(self):
        for name, spec in anomaly_catalog().items():
            history = spec.build()
            with_exit = check_si(history, early_divergence_exit=True)
            without_exit = check_si(history, early_divergence_exit=False)
            assert with_exit.satisfied == without_exit.satisfied, name


class TestCheckSser:
    def _timed(self, txn_id, start, finish, *ops):
        return Transaction(txn_id, list(ops), start_ts=start, finish_ts=finish)

    def test_real_time_respecting_history_passes(self):
        t1 = self._timed(1, 0.0, 1.0, read("x", 0), write("x", 1))
        t2 = self._timed(2, 2.0, 3.0, read("x", 1), write("x", 2))
        assert check_sser(history_of([t1], [t2])).satisfied

    def test_real_time_violation_rejected(self):
        # T2 finishes before T1 starts, yet T1's write is read by T2: impossible.
        t1 = self._timed(1, 5.0, 6.0, read("x", 0), write("x", 1))
        t2 = self._timed(2, 0.0, 1.0, read("x", 1))
        result = check_sser(history_of([t1], [t2]))
        assert not result.satisfied
        assert result.violation.kind is AnomalyKind.REAL_TIME_VIOLATION

    def test_ser_violations_are_also_sser_violations(self):
        t1 = txn(1, read("x", 0), write("x", 1))
        t2 = txn(2, read("x", 0), write("x", 2))
        assert not check_sser(history_of([t1], [t2])).satisfied


    def test_untimed_history_degenerates_to_ser(self):
        t1 = txn(1, read("x", 0), write("x", 1))
        t2 = txn(2, read("x", 1))
        assert check_sser(history_of([t1], [t2])).satisfied


class TestClassifyCycle:
    def _graph(self):
        return DependencyGraph(nodes=[1, 2, 3])

    def test_rt_cycle_is_real_time_violation(self):
        cycle = [Edge(1, 2, EdgeType.RT), Edge(2, 1, EdgeType.WR, "x")]
        violation = classify_cycle(cycle, self._graph(), level=IsolationLevel.STRICT_SERIALIZABILITY)
        assert violation.kind is AnomalyKind.REAL_TIME_VIOLATION

    def test_ww_rw_two_cycle_is_lost_update(self):
        cycle = [Edge(1, 2, EdgeType.WW, "x"), Edge(2, 1, EdgeType.RW, "x")]
        violation = classify_cycle(cycle, self._graph(), level=IsolationLevel.SERIALIZABILITY)
        assert violation.kind is AnomalyKind.LOST_UPDATE

    def test_adjacent_rw_pair_is_write_skew(self):
        cycle = [Edge(1, 2, EdgeType.RW, "x"), Edge(2, 1, EdgeType.RW, "y")]
        violation = classify_cycle(cycle, self._graph(), level=IsolationLevel.SERIALIZABILITY)
        assert violation.kind is AnomalyKind.WRITE_SKEW

    def test_separated_rw_pair_is_long_fork(self):
        cycle = [
            Edge(1, 3, EdgeType.WR, "x"),
            Edge(3, 2, EdgeType.RW, "y"),
            Edge(2, 4, EdgeType.WR, "y"),
            Edge(4, 1, EdgeType.RW, "x"),
        ]
        violation = classify_cycle(cycle, self._graph(), level=IsolationLevel.SERIALIZABILITY)
        assert violation.kind is AnomalyKind.LONG_FORK

    def test_session_cycle_is_session_guarantee_violation(self):
        cycle = [Edge(2, 3, EdgeType.SO), Edge(3, 2, EdgeType.RW, "x")]
        violation = classify_cycle(cycle, self._graph(), level=IsolationLevel.SERIALIZABILITY)
        assert violation.kind is AnomalyKind.SESSION_GUARANTEE_VIOLATION

    def test_violation_carries_cycle_and_transactions(self):
        cycle = [Edge(1, 2, EdgeType.WW, "x"), Edge(2, 1, EdgeType.RW, "x")]
        violation = classify_cycle(cycle, self._graph(), level=IsolationLevel.SERIALIZABILITY)
        assert violation.txn_ids == [1, 2]
        assert len(violation.cycle) == 2
        assert violation.key == "x"


class TestRejectWithoutMultigraph:
    """A product reject labels its cycle on the CSR arrays: no DependencyGraph."""

    @pytest.mark.parametrize(
        "name, level, workers, printed",
        [
            ("CausalityViolation", IsolationLevel.SERIALIZABILITY, None, (
                "SER: VIOLATED (3 transactions)\n"
                "CausalityViolation: dependency cycle of length 3 over objects ['x', 'y'] forbidden by SER\n"
                "  transactions involved: T1, T2, T3\n"
                "  cycle: T1 --WR(x)--> T2  T2 --WR(y)--> T3  T3 --RW(x)--> T1"
            )),
            ("WriteSkew", IsolationLevel.STRICT_SERIALIZABILITY, None, (
                "SSER: VIOLATED (2 transactions)\n"
                "WriteSkew: dependency cycle of length 2 over objects ['x', 'y'] forbidden by SSER\n"
                "  transactions involved: T1, T2\n"
                "  cycle: T1 --RW(y)--> T2  T2 --RW(x)--> T1"
            )),
            ("LongFork", IsolationLevel.SNAPSHOT_ISOLATION, None, (
                "SI: VIOLATED (4 transactions)\n"
                "DependencyCycle: dependency cycle of length 2 over objects ['x', 'y'] forbidden by SI\n"
                "  transactions involved: T1, T2\n"
                "  cycle: T1 --COMPOSED(y)--> T2  T2 --COMPOSED(x)--> T1"
            )),
            # workers=1 runs the sharded pipeline inline: SSER ends in the merger.
            ("FracturedRead", IsolationLevel.STRICT_SERIALIZABILITY, 1, (
                "SSER: VIOLATED (4 transactions)\n"
                "CausalityViolation: dependency cycle of length 3 over objects ['x', 'y'] forbidden by SSER\n"
                "  transactions involved: T2, T3, T4\n"
                "  cycle: T2 --WR(y)--> T3  T3 --WR(x)--> T4  T4 --RW(y)--> T2"
            )),
        ],
        ids=["SER", "SSER", "SI", "SSER-merger"],
    )
    def test_reject_prints_its_cycle(self, monkeypatch, name, level, workers, printed):
        history = anomaly_catalog()[name].build()

        def refuse(self, nodes=None):
            raise AssertionError("a product reject built a DependencyGraph")

        monkeypatch.setattr(DependencyGraph, "__init__", refuse)
        assert MTChecker(workers=workers).verify(history, level).format() == printed


class TestCatalogAgainstCheckers:
    @pytest.mark.parametrize("name", list(anomaly_catalog()))
    def test_ser_matches_ground_truth(self, name):
        spec = anomaly_catalog()[name]
        assert check_ser(spec.build()).satisfied == (not spec.violates_ser)

    @pytest.mark.parametrize("name", list(anomaly_catalog()))
    def test_si_matches_ground_truth(self, name):
        spec = anomaly_catalog()[name]
        assert check_si(spec.build()).satisfied == (not spec.violates_si)

    @pytest.mark.parametrize("name", list(anomaly_catalog()))
    def test_sser_matches_ground_truth(self, name):
        spec = anomaly_catalog()[name]
        assert check_sser(spec.build()).satisfied == (not spec.violates_sser)

    @pytest.mark.parametrize(
        "check, level",
        [
            (check_ser, IsolationLevel.SERIALIZABILITY),
            (check_si, IsolationLevel.SNAPSHOT_ISOLATION),
            (check_sser, IsolationLevel.STRICT_SERIALIZABILITY),
        ],
        ids=["SER", "SI", "SSER"],
    )
    @pytest.mark.parametrize("name", list(anomaly_catalog()))
    def test_every_entry_point_is_one_routine(self, name, check, level):
        # Paper-named function, facade, sharded executor and columnar input
        # all reach check_level: byte-identical verdicts, counterexamples too.
        history = anomaly_catalog()[name].build()
        expected = check(history).format()
        assert MTChecker().verify(history, level).format() == expected
        assert MTChecker(workers=1).verify(history, level).format() == expected
        columns = ColumnarHistory.from_history(history)
        assert MTChecker().verify(columns, level).format() == expected
        # ... and the paper-named functions take the segment through the
        # same door (HistoryIndex.build) as the facade does.
        assert check(columns).format() == expected
