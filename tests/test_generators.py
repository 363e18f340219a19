"""Tests for the MT and GT workload generators and the workload spec model."""

import pytest

from repro.workloads import (
    GTWorkloadGenerator,
    GTWorkloadMix,
    MTWorkloadGenerator,
    MTWorkloadMix,
)
from repro.workloads.spec import PlannedOpKind, PlannedOperation, TransactionSpec


def all_specs(workload):
    """Every planned transaction of ``workload``, session by session."""
    return [spec for session in workload.sessions for spec in session]


class TestTransactionSpec:
    def test_counts_and_keys(self):
        spec = TransactionSpec(
            [
                PlannedOperation(PlannedOpKind.READ, "x"),
                PlannedOperation(PlannedOpKind.WRITE, "x"),
                PlannedOperation(PlannedOpKind.READ, "y"),
            ]
        )
        assert spec.num_reads() == 2
        assert spec.num_writes() == 1
        assert spec.keys() == ["x", "y"]
        assert len(spec) == 3

    def test_is_mini_accepts_rmw(self):
        spec = TransactionSpec(
            [
                PlannedOperation(PlannedOpKind.READ, "x"),
                PlannedOperation(PlannedOpKind.WRITE, "x"),
            ]
        )
        assert spec.is_mini()

    def test_is_mini_rejects_blind_write(self):
        spec = TransactionSpec(
            [
                PlannedOperation(PlannedOpKind.READ, "y"),
                PlannedOperation(PlannedOpKind.WRITE, "x"),
            ]
        )
        assert not spec.is_mini()

    def test_is_mini_rejects_too_many_reads(self):
        spec = TransactionSpec([PlannedOperation(PlannedOpKind.READ, k) for k in "abc"])
        assert not spec.is_mini()


class TestMTWorkloadGenerator:
    def test_every_generated_transaction_is_mini(self):
        generator = MTWorkloadGenerator(num_sessions=5, txns_per_session=50, num_objects=20, seed=3)
        workload = generator.generate()
        assert workload.num_sessions == 5
        assert workload.num_transactions == 250
        assert all(spec.is_mini() for spec in all_specs(workload))

    def test_deterministic_for_a_seed(self):
        a = MTWorkloadGenerator(num_sessions=3, txns_per_session=20, num_objects=10, seed=7).generate()
        b = MTWorkloadGenerator(num_sessions=3, txns_per_session=20, num_objects=10, seed=7).generate()
        assert [
            [(op.kind, op.key) for spec in session for op in spec.operations]
            for session in a.sessions
        ] == [
            [(op.kind, op.key) for spec in session for op in spec.operations]
            for session in b.sessions
        ]

    def test_different_seeds_differ(self):
        a = MTWorkloadGenerator(num_sessions=3, txns_per_session=20, num_objects=10, seed=1).generate()
        b = MTWorkloadGenerator(num_sessions=3, txns_per_session=20, num_objects=10, seed=2).generate()
        flat_a = [(op.kind, op.key) for spec in all_specs(a) for op in spec.operations]
        flat_b = [(op.kind, op.key) for spec in all_specs(b) for op in spec.operations]
        assert flat_a != flat_b

    def test_keys_cover_object_space(self):
        generator = MTWorkloadGenerator(num_objects=7)
        assert generator.keys() == [f"k{i}" for i in range(7)]

    def test_mix_must_sum_to_one(self):
        with pytest.raises(ValueError):
            MTWorkloadGenerator(mix=MTWorkloadMix(single_rmw=0.9, double_rmw=0.5, read_only=0.0, read_then_rmw=0.0))

    def test_pure_single_rmw_mix(self):
        mix = MTWorkloadMix(single_rmw=1.0, double_rmw=0.0, read_only=0.0, read_then_rmw=0.0)
        generator = MTWorkloadGenerator(num_sessions=2, txns_per_session=30, num_objects=10, mix=mix, seed=3)
        for spec in all_specs(generator.generate()):
            assert spec.num_reads() == 1 and spec.num_writes() == 1

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            MTWorkloadGenerator(num_sessions=0)
        with pytest.raises(ValueError):
            MTWorkloadGenerator(txns_per_session=0)

    def test_accepts_every_distribution(self):
        for name in ("uniform", "zipf", "hotspot", "exp"):
            generator = MTWorkloadGenerator(num_sessions=2, txns_per_session=10, num_objects=10, distribution=name)
            assert generator.generate().num_transactions == 20

    def test_workload_name_mentions_distribution(self):
        generator = MTWorkloadGenerator(distribution="zipf")
        assert "zipf" in generator.generate().name


class TestGTWorkloadGenerator:
    def test_transaction_count_and_sizes(self):
        generator = GTWorkloadGenerator(
            num_sessions=4, txns_per_session=25, num_objects=20, ops_per_txn=10, seed=3
        )
        workload = generator.generate()
        assert workload.num_transactions == 100
        sizes = [len(spec) for spec in all_specs(workload)]
        assert max(sizes) <= 2 * 10  # RMW transactions pair reads with writes
        assert min(sizes) >= 1

    def test_mix_distribution_roughly_matches(self):
        generator = GTWorkloadGenerator(
            num_sessions=4, txns_per_session=200, num_objects=50, ops_per_txn=8, seed=9
        )
        workload = generator.generate()
        read_only = sum(1 for spec in all_specs(workload) if spec.num_writes() == 0)
        write_only = sum(1 for spec in all_specs(workload) if spec.num_reads() == 0)
        total = workload.num_transactions
        assert 0.1 < read_only / total < 0.3
        assert 0.3 < write_only / total < 0.5

    def test_most_gt_transactions_are_not_mini(self):
        generator = GTWorkloadGenerator(
            num_sessions=2, txns_per_session=100, num_objects=20, ops_per_txn=12, seed=5
        )
        workload = generator.generate()
        non_mini = sum(1 for spec in all_specs(workload) if not spec.is_mini())
        assert non_mini > workload.num_transactions * 0.7

    def test_invalid_ops_per_txn(self):
        with pytest.raises(ValueError):
            GTWorkloadGenerator(ops_per_txn=0)

    def test_gt_mix_must_sum_to_one(self):
        with pytest.raises(ValueError):
            GTWorkloadGenerator(mix=GTWorkloadMix(read_only=0.5, write_only=0.5, read_modify_write=0.5))

    def test_deterministic_for_a_seed(self):
        a = GTWorkloadGenerator(num_sessions=2, txns_per_session=10, seed=4).generate()
        b = GTWorkloadGenerator(num_sessions=2, txns_per_session=10, seed=4).generate()
        assert [
            [(op.kind, op.key) for op in spec.operations] for spec in all_specs(a)
        ] == [[(op.kind, op.key) for op in spec.operations] for spec in all_specs(b)]
