"""Tests for the scale-out verification kernel (ISSUE 7).

Covers the scale-out mechanisms end to end:

* **Tree-reduction SSER merge** — pairwise :func:`merge_csr_wires`
  reductions must produce *byte-identical* results (verdicts, labeled
  cycles, edge columns) for every reduction-tree shape: flat one-pass
  merge, serial left fold, and the executor's adjacent-pair tree,
  including odd shard counts and the single-shard degenerate tree.
* **Worker governance** — ``--workers`` clamps to the CPU count with a
  warning, small histories fall back inline, and the persistent pool path
  (exercised by monkeypatching the clamp/threshold) returns identical
  results to inline execution.
"""

import warnings

import pytest

from test_parallel import assert_equivalent, composite_history

from repro import obs
from repro.bench import make_disjoint_history
from repro.core.checker import MTChecker
from repro.core.index import HistoryIndex
from repro.core.model import History, Transaction, read, write
from repro.core.result import IsolationLevel
from repro.db import FaultPlan
from repro.history.columnar import ColumnarHistory
from repro.parallel import check_parallel, partition_columns
from repro.parallel import executor as executor_module
from repro.parallel.executor import make_payload, shutdown_pool
from repro.parallel.merge import finalize_sser_wires, merge_csr_wires

SSER = IsolationLevel.STRICT_SERIALIZABILITY


def rt_cycle_history(extra_groups=0):
    """A history whose only SSER violation threads RT edges across shards.

    The four core transactions split into two key-connected shards, each
    internally acyclic; the cycle alternates dependency paths in one shard
    with real-time hops through the other (SER accepts, SSER rejects).
    ``extra_groups`` appends disjoint serial RMW groups so the partitioner
    yields more shards without adding violations.
    """
    t1 = Transaction(1, [read("a", 2)], session_id=0, start_ts=0.0, finish_ts=1.0)
    t2 = Transaction(
        2, [read("a", 0), write("a", 2)], session_id=1, start_ts=4.0, finish_ts=5.0
    )
    t3 = Transaction(
        3, [read("b", 0), write("b", 3)], session_id=2, start_ts=1.5, finish_ts=2.0
    )
    t4 = Transaction(4, [read("b", 3)], session_id=3, start_ts=2.5, finish_ts=3.5)
    chains = [[t1], [t2], [t3], [t4]]
    keys = ["a", "b"]
    txn_id = 5
    clock = 10.0
    for group in range(extra_groups):
        key = f"x{group}"
        keys.append(key)
        latest, chain = 0, []
        for _ in range(3):
            chain.append(
                Transaction(
                    txn_id,
                    [read(key, latest), write(key, txn_id)],
                    session_id=3 + txn_id,
                    start_ts=clock,
                    finish_ts=clock + 0.5,
                )
            )
            latest = txn_id
            txn_id += 1
            clock += 1.0
        chains.append(chain)
    return History.from_transactions(chains, initial_keys=keys)


def shard_wires(history):
    """Run the SSER shard stage inline and return (index, CSR wires)."""
    index = HistoryIndex.build(history)
    shards = partition_columns(index.columns, index=index)
    assert all(shard.columns is not None for shard in shards)
    outcomes = [executor_module._run_shard(make_payload(shard, SSER)) for shard in shards]
    outcomes.sort(key=lambda o: o.shard_index)
    assert all(o.csr is not None for o in outcomes)
    return index, [o.csr for o in outcomes], sum(o.num_transactions for o in outcomes)


# ----------------------------------------------------------------------
# Tree-reduction merge
# ----------------------------------------------------------------------
def _fold_left(wires):
    merged = wires[0]
    for wire in wires[1:]:
        merged = merge_csr_wires(merged, wire)
    return [merged]


def _tree(wires):
    return executor_module._reduce_wires(list(wires), workers=1)


class TestTreeReduction:
    @pytest.mark.parametrize("num_groups", [2, 3, 5, 8, 16])
    def test_every_tree_shape_is_byte_identical_on_accept(self, num_groups):
        history = make_disjoint_history(
            num_groups=num_groups,
            sessions_per_group=2,
            txns_per_session=4,
            keys_per_group=3,
            timestamps=True,
        )
        index, wires, num_txns = shard_wires(history)
        assert len(wires) == num_groups
        results = [
            finalize_sser_wires(shape, index, num_transactions=num_txns)
            for shape in (wires, _fold_left(wires), _tree(wires))
        ]
        assert all(r.satisfied for r in results)
        assert results[0].format() == results[1].format() == results[2].format()

    @pytest.mark.parametrize("extra_groups", [0, 1, 3, 6, 14])
    def test_every_tree_shape_reports_the_same_labeled_cycle(self, extra_groups):
        history = rt_cycle_history(extra_groups)
        index, wires, num_txns = shard_wires(history)
        assert len(wires) == 2 + extra_groups
        results = [
            finalize_sser_wires(shape, index, num_transactions=num_txns)
            for shape in (wires, _fold_left(wires), _tree(wires))
        ]
        assert all(not r.satisfied for r in results)
        # Byte-identical counterexamples: same anomaly, same labeled cycle.
        assert results[0].format() == results[1].format() == results[2].format()
        cycles = {tuple(r.violations[0].cycle) for r in results}
        assert len(cycles) == 1

    def test_single_shard_degenerate_tree(self):
        history = make_disjoint_history(
            num_groups=1, sessions_per_group=2, txns_per_session=4, timestamps=True
        )
        index, wires, num_txns = shard_wires(history)
        assert len(wires) == 1
        assert _tree(wires) == wires
        result = finalize_sser_wires(wires, index, num_transactions=num_txns)
        serial = MTChecker().verify(history, SSER)
        assert result.satisfied == serial.satisfied


# ----------------------------------------------------------------------
# Randomized sharded-vs-serial equivalence (2..16 shards, all levels)
# ----------------------------------------------------------------------
class TestRandomizedEquivalence:
    @pytest.mark.parametrize("num_groups", [2, 3, 7, 16])
    def test_clean_composites(self, num_groups):
        specs = [("si" if g % 2 else "ser", 100 + g, None) for g in range(num_groups)]
        history = composite_history(specs)
        assert len(partition_columns(ColumnarHistory.from_history(history))) == num_groups
        assert_equivalent(history, workers=2)

    @pytest.mark.parametrize("num_groups", [3, 5])
    def test_faulty_composites(self, num_groups):
        specs = [
            (
                "ser",
                200 + g,
                FaultPlan(lost_update_rate=0.6, seed=g) if g == 1 else None,
            )
            for g in range(num_groups)
        ]
        history = composite_history(specs)
        assert_equivalent(history, workers=2)

    @pytest.mark.parametrize("extra_groups", [0, 2, 9])
    def test_cross_shard_rt_violations(self, extra_groups):
        history = rt_cycle_history(extra_groups)
        serial = MTChecker().verify(history, SSER)
        sharded = MTChecker(workers=2).verify(history, SSER)
        assert not serial.satisfied and not sharded.satisfied
        assert {v.kind for v in serial.violations} == {
            v.kind for v in sharded.violations
        }
        # SER ignores RT and must accept every shape.
        assert MTChecker(workers=2).verify(
            history, IsolationLevel.SERIALIZABILITY
        ).satisfied


# ----------------------------------------------------------------------
# Worker governance: clamp, inline threshold, persistent pool
# ----------------------------------------------------------------------
class TestWorkerGovernance:
    def test_workers_clamped_to_cpu_count_with_warning(self, monkeypatch):
        monkeypatch.setattr(executor_module, "_cpu_count", lambda: 2)
        history = composite_history([("ser", 30, None), ("si", 31, None)])
        with obs.scoped() as reg:
            with pytest.warns(RuntimeWarning, match="clamping to 2") as caught:
                result = check_parallel(history, SSER, workers=8)
        # Attributed to the caller of check_parallel, not to executor internals.
        assert [w.filename for w in caught] == [__file__]
        assert reg.value("repro_executor_workers_requested") == 8
        assert reg.value("repro_executor_workers_effective") <= 2
        assert result.satisfied == MTChecker().verify(history, SSER).satisfied

    def test_no_warning_within_cpu_budget(self, monkeypatch):
        monkeypatch.setattr(executor_module, "_cpu_count", lambda: 4)
        history = composite_history([("ser", 32, None)])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            check_parallel(history, SSER, workers=2)

    def test_small_history_falls_back_inline(self, monkeypatch):
        monkeypatch.setattr(executor_module, "_cpu_count", lambda: 4)
        history = composite_history([("ser", 33, None), ("ser", 34, None)])
        with obs.scoped() as reg:
            check_parallel(history, SSER, workers=4)
        assert reg.value("repro_executor_inline") == 1
        assert reg.value("repro_executor_workers_effective") == 1
        assert reg.value("repro_executor_shards") == 2
        # Two shard graphs are one pairwise merge.
        assert reg.value("repro_executor_merge_rounds") == 1
        assert reg.value("repro_executor_merge_seconds") > 0

    def test_pool_path_matches_inline(self, monkeypatch):
        # Force the real pool on a small history: drop the inline threshold
        # and let two workers through the clamp regardless of the machine.
        monkeypatch.setattr(executor_module, "_cpu_count", lambda: 2)
        monkeypatch.setattr(executor_module, "_MIN_POOL_TXNS", 0)
        history = rt_cycle_history(2)
        try:
            with obs.scoped() as reg:
                fanned = check_parallel(history, SSER, workers=2)
            inline = check_parallel(history, SSER, workers=1)
            assert reg.value("repro_executor_workers_effective") == 2
            assert fanned.format() == inline.format()
            # Second call reuses the persistent pool (warm worker caches).
            again = check_parallel(history, SSER, workers=2)
            assert again.format() == inline.format()
        finally:
            shutdown_pool()
