"""Tests for the Table I anomaly catalog."""

import pytest

from repro.core.anomalies import ANOMALY_NAMES, anomaly_catalog, anomaly_history
from repro.core.checkers import check_ser, check_si
from repro.core.intcheck import check_internal_consistency
from repro.core.mini import is_mt_history
from repro.core.result import AnomalyKind


class TestCatalogStructure:
    def test_catalog_has_all_14_anomalies(self):
        assert len(anomaly_catalog()) == 14
        assert len(ANOMALY_NAMES) == 14

    def test_catalog_names_match_kinds(self):
        for name, spec in anomaly_catalog().items():
            assert spec.kind.value == name

    def test_every_entry_has_description(self):
        assert all(spec.description for spec in anomaly_catalog().values())

    def test_anomaly_history_lookup(self):
        history = anomaly_history("WriteSkew")
        assert len(history) == 2

    def test_unknown_anomaly_raises(self):
        with pytest.raises(KeyError):
            anomaly_history("NotARealAnomaly")

    def test_histories_are_mt_histories(self):
        """Every Figure 5 anomaly is expressible as a valid MT history."""
        for name in ANOMALY_NAMES:
            assert is_mt_history(anomaly_history(name)), name

    def test_transactions_use_at_most_four_operations(self):
        """Four operations per MT are sufficient for all 14 anomalies."""
        for name in ANOMALY_NAMES:
            history = anomaly_history(name)
            for txn in history.transactions(include_initial=False):
                assert len(txn) <= 4, (name, txn)

    def test_ground_truth_flags_follow_level_strength(self):
        """SER admits fewer histories than SI, so a history that violates SI
        violates SER; WriteSkew is the one entry that only SER refuses."""
        catalog = anomaly_catalog()
        for name, spec in catalog.items():
            assert spec.violates_ser or not spec.violates_si, name
        assert [name for name, spec in catalog.items() if not spec.violates_si] == ["WriteSkew"]
        assert catalog["WriteSkew"].violates_ser


class TestGroundTruth:
    def test_all_anomalies_violate_ser(self):
        for name, spec in anomaly_catalog().items():
            assert spec.violates_ser, name

    def test_only_write_skew_is_si_allowed(self):
        si_allowed = [name for name, spec in anomaly_catalog().items() if not spec.violates_si]
        assert si_allowed == ["WriteSkew"]

    def test_intra_transactional_split_matches_figure5(self):
        intra = {name for name, spec in anomaly_catalog().items() if spec.intra_transactional}
        assert intra == {
            "ThinAirRead",
            "AbortedRead",
            "FutureRead",
            "NotMyLastWrite",
            "NotMyOwnWrite",
            "IntermediateRead",
            "NonRepeatableReads",
        }


class TestDetection:
    @pytest.mark.parametrize("name", ANOMALY_NAMES)
    def test_checkers_reject_exactly_the_expected_levels(self, name):
        spec = anomaly_catalog()[name]
        history = spec.build()
        assert check_ser(history).satisfied != spec.violates_ser
        assert check_si(history).satisfied != spec.violates_si

    @pytest.mark.parametrize(
        "name",
        [
            "ThinAirRead",
            "AbortedRead",
            "FutureRead",
            "NotMyLastWrite",
            "NotMyOwnWrite",
            "IntermediateRead",
            "NonRepeatableReads",
        ],
    )
    def test_intra_transactional_anomalies_detected_by_int_pass(self, name):
        history = anomaly_history(name)
        kinds = {v.kind for v in check_internal_consistency(history)}
        assert AnomalyKind(name) in kinds

    def test_intra_anomaly_classification_is_exact(self):
        """The reported anomaly kind matches the catalog entry for INT anomalies."""
        for name, spec in anomaly_catalog().items():
            if not spec.intra_transactional:
                continue
            result = check_ser(spec.build())
            assert result.violation is not None
            assert result.violation.kind is spec.kind, name

    def test_lost_update_classified_under_si(self):
        result = check_si(anomaly_history("LostUpdate"))
        assert result.violation.kind is AnomalyKind.LOST_UPDATE

    def test_write_skew_classified_under_ser(self):
        result = check_ser(anomaly_history("WriteSkew"))
        assert result.violation.kind is AnomalyKind.WRITE_SKEW

    def test_long_fork_classified_under_ser(self):
        result = check_ser(anomaly_history("LongFork"))
        assert result.violation.kind is AnomalyKind.LONG_FORK
