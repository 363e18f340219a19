"""Tests for the fault-injection layer (buggy database variants)."""

import pytest

from repro.core.checkers import check_ser, check_si
from repro.core.result import AnomalyKind
from repro.db import Database, FaultPlan, TransactionAborted
from repro.workloads import MTWorkloadGenerator, MTWorkloadMix, run_workload


class TestFaultPlan:
    def test_disabled_by_default(self):
        assert not FaultPlan().any_enabled

    def test_any_enabled(self):
        assert FaultPlan(lost_update_rate=0.1).any_enabled
        assert FaultPlan(stale_read_rate=0.1).any_enabled

    def test_for_anomaly_mapping(self):
        assert FaultPlan.for_anomaly("LostUpdate").lost_update_rate > 0
        assert FaultPlan.for_anomaly("write_skew").write_skew_rate > 0
        assert FaultPlan.for_anomaly("CausalityViolation").stale_read_rate > 0
        assert FaultPlan.for_anomaly("aborted-read").dirty_install_rate > 0

    def test_for_anomaly_unknown(self):
        with pytest.raises(ValueError):
            FaultPlan.for_anomaly("NotAnAnomaly")

    @pytest.mark.parametrize("rate", [-1.0, 1.5, 5.0, float("nan")])
    def test_rates_outside_zero_one_rejected(self, rate):
        with pytest.raises(ValueError, match=r"lost_update_rate is a probability in \[0, 1\]"):
            FaultPlan.for_anomaly("lostupdate", rate=rate)
        with pytest.raises(ValueError, match="dirty_install_rate"):
            FaultPlan(dirty_install_rate=rate)
        assert FaultPlan(write_skew_rate=1.0).any_enabled

    def test_database_without_faults_reports_none(self):
        db = Database("si", keys=["x"])
        assert db.injected_anomalies == {}


class TestLostUpdateFault:
    def test_first_committer_wins_is_skipped(self):
        db = Database("si", keys=["x"], faults=FaultPlan(lost_update_rate=1.0, seed=1))
        t1 = db.begin()
        t2 = db.begin()
        db.read(t1, "x"), db.read(t2, "x")
        db.write(t1, "x", 1)
        db.write(t2, "x", 2)
        db.commit(t1)
        db.commit(t2)  # would abort on a correct SI engine
        assert db.injected_anomalies["lost_update"] == 1

    def test_detected_end_to_end_by_mtc_si(self):
        generator = MTWorkloadGenerator(
            num_sessions=6, txns_per_session=60, num_objects=8, distribution="zipf", seed=3
        )
        workload = generator.generate()
        db = Database("si", keys=workload.keys, faults=FaultPlan(lost_update_rate=0.5, seed=5))
        run = run_workload(db, workload, seed=7)
        result = check_si(run.history)
        assert not result.satisfied
        assert result.violation.kind is AnomalyKind.LOST_UPDATE


class TestWriteSkewFault:
    def test_read_validation_is_skipped(self):
        db = Database(
            "serializable", keys=["x", "y"], faults=FaultPlan(write_skew_rate=1.0, seed=1)
        )
        t1 = db.begin()
        t2 = db.begin()
        db.read(t1, "x"), db.read(t1, "y")
        db.read(t2, "x"), db.read(t2, "y")
        db.write(t1, "x", 1)
        db.write(t2, "y", 2)
        db.commit(t1)
        db.commit(t2)  # would abort on a correct serializable engine
        assert db.injected_anomalies["write_skew"] == 1

    def test_ww_conflicts_still_abort(self):
        # The write-skew defect must not hide genuine write-write conflicts.
        db = Database(
            "serializable", keys=["x"], faults=FaultPlan(write_skew_rate=1.0, seed=1)
        )
        t1 = db.begin()
        t2 = db.begin()
        db.read(t1, "x"), db.read(t2, "x")
        db.write(t1, "x", 1)
        db.write(t2, "x", 2)
        db.commit(t1)
        with pytest.raises(TransactionAborted):
            db.commit(t2)

    def test_detected_end_to_end_by_mtc_ser(self):
        mix = MTWorkloadMix(single_rmw=0.2, double_rmw=0.2, read_only=0.1, read_then_rmw=0.5)
        generator = MTWorkloadGenerator(
            num_sessions=8, txns_per_session=120, num_objects=5, mix=mix, seed=3
        )
        workload = generator.generate()
        db = Database(
            "serializable", keys=workload.keys, faults=FaultPlan(write_skew_rate=1.0, seed=5)
        )
        run = run_workload(db, workload, seed=9)
        result = check_ser(run.history)
        assert not result.satisfied


class TestDirtyInstallFault:
    def test_aborted_writes_become_visible(self):
        db = Database("si", keys=["x"], faults=FaultPlan(dirty_install_rate=1.0, seed=1))
        t1 = db.begin()
        db.read(t1, "x")
        db.write(t1, "x", 77)
        db.abort(t1)
        t2 = db.begin()
        assert db.read(t2, "x") == 77
        assert db.injected_anomalies["dirty_install"] == 1

    def test_detected_as_aborted_read(self):
        generator = MTWorkloadGenerator(
            num_sessions=6, txns_per_session=60, num_objects=8, distribution="zipf", seed=3
        )
        workload = generator.generate()
        db = Database("si", keys=workload.keys, faults=FaultPlan(dirty_install_rate=0.8, seed=5))
        run = run_workload(db, workload, seed=7)
        result = check_si(run.history)
        assert not result.satisfied
        kinds = {v.kind for v in result.violations}
        assert AnomalyKind.ABORTED_READ in kinds


class TestStaleReadFault:
    def test_stale_reads_are_injected(self):
        db = Database("si", keys=["x"], faults=FaultPlan(stale_read_rate=1.0, seed=1))
        # Build up two committed versions beyond the initial one.
        for value in (1, 2):
            txn = db.begin()
            db.read(txn, "x")
            db.write(txn, "x", value)
            db.commit(txn)
        reader = db.begin()
        observed = db.read(reader, "x")
        assert observed in (0, 1)  # an older version than the snapshot's latest
        assert db.injected_anomalies["stale_read"] >= 1

    def test_detected_end_to_end_under_si(self):
        generator = MTWorkloadGenerator(
            num_sessions=6, txns_per_session=80, num_objects=6, distribution="zipf", seed=3
        )
        workload = generator.generate()
        db = Database("si", keys=workload.keys, faults=FaultPlan(stale_read_rate=0.4, seed=5))
        run = run_workload(db, workload, seed=7)
        assert not check_si(run.history).satisfied
