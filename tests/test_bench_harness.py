"""Tests for the benchmark harness (metrics, canned pipelines, reporting)."""

import pytest

from repro.bench import (
    EndToEndResult,
    end_to_end,
    format_table,
    generate_gt_history,
    generate_mt_history,
    measure,
    scaled,
)
from repro.core.checkers import check_ser, check_si
from repro.db import FaultPlan


class TestMetrics:
    def test_measure_returns_value_time_and_memory(self):
        result = measure(lambda: sum(range(10_000)))
        assert result.value == sum(range(10_000))
        assert result.seconds >= 0
        assert result.peak_memory_mb >= 0

    def test_measure_memory_tracks_allocations(self):
        result = measure(lambda: [0] * 500_000)
        assert len(result.value) == 500_000
        assert result.peak_memory_mb > 1.0


class TestScaled:
    def test_scaled_applies_minimum(self):
        assert scaled(10) >= 1
        assert scaled(0, minimum=3) == 3


class TestGenerationPipelines:
    def test_generate_mt_history_returns_history_and_stats(self):
        generated = generate_mt_history(
            isolation="si", num_sessions=3, txns_per_session=15, num_objects=10, seed=2
        )
        assert generated.history.num_transactions() > 0
        assert generated.generation_seconds >= 0
        assert 0.0 <= generated.stats.abort_rate <= 1.0
        assert check_si(generated.history).satisfied

    def test_generate_gt_history_uses_ops_per_txn(self):
        generated = generate_gt_history(
            isolation="si",
            num_sessions=2,
            txns_per_session=10,
            num_objects=20,
            ops_per_txn=8,
            seed=3,
        )
        sizes = [
            len(txn)
            for txn in generated.history.committed_transactions(include_initial=False)
        ]
        assert sizes and max(sizes) > 4  # larger than any mini-transaction

    def test_generate_with_faults_produces_violations(self):
        generated = generate_mt_history(
            isolation="si",
            num_sessions=5,
            txns_per_session=40,
            num_objects=6,
            distribution="zipf",
            faults=FaultPlan(lost_update_rate=0.6, seed=1),
            seed=4,
        )
        assert not check_si(generated.history).satisfied


class TestEndToEnd:
    def test_end_to_end_result_rows(self):
        generated = generate_mt_history(
            isolation="serializable", num_sessions=3, txns_per_session=15, num_objects=10, seed=5
        )
        result = end_to_end("mtc", generated, check_ser)
        assert isinstance(result, EndToEndResult)
        assert result.satisfied
        assert result.total_seconds >= result.verification_seconds
        row = result.row()
        assert row["label"] == "mtc"
        assert set(row) >= {"gen_s", "verify_s", "total_s", "mem_mb", "abort_rate", "valid"}


class TestReporting:
    def test_format_table_alignment_and_title(self):
        rows = [{"name": "mtc", "time": 0.1}, {"name": "cobra", "time": 1.25}]
        text = format_table(rows, title="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "name" in lines[2] and "time" in lines[2]
        assert any("cobra" in line for line in lines)

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([], title="empty")
