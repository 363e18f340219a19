"""Tests for DIVERGENCE pattern detection (Definition 10 / Lemma 1)."""

from repro.core.checkers import check_si
from repro.core.csr import CSRGraph
from repro.core.divergence import find_all_divergences, find_divergence
from repro.core.graph import build_dependency
from repro.core.index import HistoryIndex
from repro.core.model import History, Transaction, read, write
from repro.core.result import AnomalyKind


def txn(txn_id, *ops):
    return Transaction(txn_id, list(ops))


def history_of(*sessions, keys=("x",)):
    return History.from_transactions(list(sessions), initial_keys=list(keys))


class TestFindDivergence:
    def test_basic_divergence(self):
        t1 = txn(1, read("x", 0), write("x", 1))
        t2 = txn(2, read("x", 0), write("x", 2))
        instance = find_divergence(history_of([t1], [t2]))
        assert instance is not None
        assert instance.key == "x"
        assert {instance.reader_a, instance.reader_b} == {1, 2}
        assert instance.writer == -1  # the initial transaction

    def test_no_divergence_on_a_chain(self):
        t1 = txn(1, read("x", 0), write("x", 1))
        t2 = txn(2, read("x", 1), write("x", 2))
        assert find_divergence(history_of([t1], [t2])) is None

    def test_reader_without_write_does_not_count(self):
        t1 = txn(1, read("x", 0), write("x", 1))
        t2 = txn(2, read("x", 0))  # reads the same value but never writes x
        assert find_divergence(history_of([t1], [t2])) is None

    def test_divergence_on_non_initial_writer(self):
        t0 = txn(1, read("x", 0), write("x", 5))
        t1 = txn(2, read("x", 5), write("x", 6))
        t2 = txn(3, read("x", 5), write("x", 7))
        instance = find_divergence(history_of([t0], [t1], [t2]))
        assert instance is not None
        assert instance.writer == 1
        assert instance.value == 5

    def test_same_written_value_is_not_divergence(self):
        # Only possible without unique values; the pattern requires different writes.
        t1 = txn(1, read("x", 0), write("x", 9))
        t2 = txn(2, read("x", 0), write("x", 9))
        assert find_divergence(history_of([t1], [t2])) is None

    def test_find_all_divergences_counts_every_object(self):
        t1 = txn(1, read("x", 0), write("x", 1), read("y", 0), write("y", 2))
        t2 = txn(2, read("x", 0), write("x", 3), read("y", 0), write("y", 4))
        instances = find_all_divergences(history_of([t1], [t2], keys=("x", "y")))
        assert {i.key for i in instances} == {"x", "y"}

    def test_violation_conversion(self):
        t1 = txn(1, read("x", 0), write("x", 1))
        t2 = txn(2, read("x", 0), write("x", 2))
        instance = find_divergence(history_of([t1], [t2]))
        violation = instance.to_violation()
        assert "DIVERGENCE" in violation.description
        assert set(violation.txn_ids) == {-1, 1, 2}


class TestLemma1:
    def test_divergence_implies_si_violation(self):
        """Lemma 1: any history containing DIVERGENCE violates SI."""
        t1 = txn(1, read("x", 0), write("x", 1))
        t2 = txn(2, read("x", 0), write("x", 2))
        history = history_of([t1], [t2])
        assert find_divergence(history) is not None
        assert not check_si(history).satisfied

    def test_divergence_with_an_acyclic_induced_graph_violates_si(self):
        """Example 3: the SI-induced graph of a DIVERGENCE can be acyclic, so
        CHECKSI is complete only because the pattern is checked first."""
        t1 = txn(1, read("x", 0), write("x", 1))
        t2 = txn(2, read("x", 0), write("x", 2))
        history = history_of([t1], [t2])
        assert build_dependency(history).si_induced_graph().is_acyclic()
        assert CSRGraph.from_index(HistoryIndex.build(history)).si_induced().has_cycle() is None
        result = check_si(history)
        assert not result.satisfied
        assert result.violation.kind is AnomalyKind.LOST_UPDATE
