"""Tests for the MTChecker facade and the CheckResult/Violation data model."""

import pytest

from repro import IsolationLevel, MTChecker
from repro.core.anomalies import anomaly_history
from repro.core.checkers import MTHistoryError
from repro.core.lwt import LWTHistory, LWTKind, LWTOperation
from repro.core.model import History, Transaction, read, write
from repro.core.result import AnomalyKind, CheckResult, Violation


class TestMTCheckerFacade:
    def setup_method(self):
        self.checker = MTChecker()

    def test_verify_dispatches_per_level(self):
        history = anomaly_history("LostUpdate")
        assert not self.checker.verify(history, IsolationLevel.SERIALIZABILITY).satisfied
        assert not self.checker.verify(history, IsolationLevel.SNAPSHOT_ISOLATION).satisfied
        assert not self.checker.verify(history, IsolationLevel.STRICT_SERIALIZABILITY).satisfied

    def test_component_aliases(self):
        history = anomaly_history("WriteSkew")
        assert not self.checker.check_ser(history).satisfied
        assert self.checker.check_si(history).satisfied
        assert not self.checker.check_sser(history).satisfied

    def test_lwt_history_routed_to_linearizability(self):
        history = LWTHistory(
            [
                LWTOperation(1, LWTKind.INSERT, "x", written=0, start_ts=0, finish_ts=1),
                LWTOperation(2, LWTKind.READ_WRITE, "x", expected=0, written=1, start_ts=2, finish_ts=3),
            ]
        )
        assert self.checker.verify(history, IsolationLevel.LINEARIZABILITY).satisfied
        assert self.checker.check_linearizability(history).satisfied

    def test_lwt_history_with_wrong_level_rejected(self):
        history = LWTHistory([])
        with pytest.raises(ValueError):
            self.checker.verify(history, IsolationLevel.SERIALIZABILITY)

    def test_unsupported_level_rejected(self):
        with pytest.raises(ValueError):
            self.checker.verify(anomaly_history("WriteSkew"), IsolationLevel.READ_COMMITTED)

    def test_strict_mode_rejects_gt_histories(self):
        gt = Transaction(1, [write("x", 1), write("y", 2), write("z", 3)])
        history = History.from_transactions([[gt]], initial_keys=["x", "y", "z"])
        strict = MTChecker(strict_mt=True)
        with pytest.raises(MTHistoryError):
            strict.check_ser(history)

    def test_is_mt_history_helper(self):
        assert MTChecker.is_mt_history(anomaly_history("LostUpdate"))
        gt = Transaction(1, [write("x", 1), write("y", 2)])
        assert not MTChecker.is_mt_history(
            History.from_transactions([[gt]], initial_keys=["x", "y"])
        )


class TestIsolationLevel:
    def test_short_names(self):
        assert IsolationLevel.SERIALIZABILITY.short_name == "SER"
        assert IsolationLevel.SNAPSHOT_ISOLATION.short_name == "SI"
        assert IsolationLevel.STRICT_SERIALIZABILITY.short_name == "SSER"
        assert IsolationLevel.LINEARIZABILITY.short_name == "LIN"
        assert IsolationLevel.READ_COMMITTED.short_name == "RC"


class TestCheckResult:
    def test_ok_and_violated_constructors(self):
        ok = CheckResult.ok(IsolationLevel.SERIALIZABILITY, 10)
        assert ok.satisfied and bool(ok) and ok.violation is None
        bad = CheckResult.violated(
            IsolationLevel.SNAPSHOT_ISOLATION,
            [Violation(AnomalyKind.LOST_UPDATE, "boom", txn_ids=[1, 2])],
            num_transactions=5,
        )
        assert not bad.satisfied and not bool(bad)
        assert bad.violation.kind is AnomalyKind.LOST_UPDATE

    def test_format_mentions_level_and_status(self):
        ok = CheckResult.ok(IsolationLevel.SERIALIZABILITY, 3)
        assert "SER" in ok.format() and "SATISFIED" in str(ok)
        bad = CheckResult.violated(
            IsolationLevel.SERIALIZABILITY, [Violation(AnomalyKind.WRITE_SKEW, "ws")]
        )
        assert "VIOLATED" in bad.format()
        assert "WriteSkew" in bad.format()


class TestViolationFormatting:
    def test_format_includes_transactions_and_cycle(self):
        violation = Violation(
            kind=AnomalyKind.LOST_UPDATE,
            description="two writers diverged",
            txn_ids=[3, 5],
            cycle=[(3, 5, "WW(x)"), (5, 3, "RW(x)")],
            key="x",
        )
        rendered = violation.format()
        assert "LostUpdate" in rendered
        assert "T3" in rendered and "T5" in rendered
        assert "WW(x)" in rendered and "RW(x)" in rendered
        assert str(violation) == rendered

    def test_format_without_optional_fields(self):
        violation = Violation(kind=AnomalyKind.THIN_AIR_READ, description="ghost value")
        rendered = violation.format()
        assert "ThinAirRead" in rendered
        assert "cycle" not in rendered
