"""Tests for the core history model (operations, transactions, histories)."""

import itertools

import pytest

from repro.core.model import (
    INITIAL_TXN_ID,
    INITIAL_VALUE,
    History,
    Operation,
    OpType,
    Session,
    Transaction,
    TransactionStatus,
    interval_order_reduction,
    make_initial_transaction,
    read,
    write,
)


class TestOperation:
    def test_read_constructor(self):
        op = read("x", 5)
        assert op.is_read and not op.is_write
        assert op.key == "x" and op.value == 5

    def test_write_constructor(self):
        op = write("y", 7)
        assert op.is_write and not op.is_read
        assert op.op_type is OpType.WRITE

    def test_read_without_value(self):
        assert read("x").value is None

    def test_str_rendering(self):
        assert str(read("x", 1)) == "R(x,1)"
        assert str(write("x", 2)) == "W(x,2)"

    def test_operations_are_hashable_and_frozen(self):
        op = read("x", 1)
        assert op in {op}
        with pytest.raises(AttributeError):
            op.value = 3  # type: ignore[misc]


class TestTransaction:
    def test_final_write_returns_last_value(self):
        txn = Transaction(1, [read("x", 0), write("x", 1), write("x", 2)])
        assert txn.final_write("x") == 2

    def test_final_write_missing_key(self):
        txn = Transaction(1, [read("x", 0)])
        assert txn.final_write("x") is None

    def test_external_read_first_read_before_write(self):
        txn = Transaction(1, [read("x", 3), write("x", 4), read("x", 4)])
        assert txn.external_read("x") == 3

    def test_external_read_none_when_write_first(self):
        txn = Transaction(1, [write("x", 4), read("x", 4)])
        assert txn.external_read("x") is None

    def test_external_read_skips_a_valueless_first_read(self):
        # PR 21's false-SATISFIED shape: both spellings resolve to the valued read.
        txn = Transaction(1, [read("x", None), read("x", 3), write("x", 4)])
        assert txn.external_reads() == {"x": 3}
        assert txn.external_read("x") == 3

    def test_external_reads_map(self):
        txn = Transaction(1, [read("x", 3), read("y", 5), write("y", 6), read("y", 6)])
        assert txn.external_reads() == {"x": 3, "y": 5}

    def test_final_writes_map(self):
        txn = Transaction(1, [read("x", 0), write("x", 1), read("y", 0), write("y", 2), write("x", 3)])
        assert txn.final_writes() == {"x": 3, "y": 2}

    def test_keys_queries(self):
        txn = Transaction(1, [read("x", 0), write("y", 1)])
        assert txn.keys() == {"x", "y"}

    def test_writes_to(self):
        txn = Transaction(1, [read("x", 0), write("x", 1)])
        assert txn.writes_to("x")
        assert not txn.writes_to("y")

    def test_status_flags(self):
        committed = Transaction(1, [], status=TransactionStatus.COMMITTED)
        aborted = Transaction(2, [], status=TransactionStatus.ABORTED)
        assert committed.committed and not committed.aborted
        assert aborted.aborted and not aborted.committed

    def test_initial_flag(self):
        assert Transaction(INITIAL_TXN_ID, []).is_initial
        assert not Transaction(5, []).is_initial

    def test_append_and_len(self):
        txn = Transaction(1, [])
        txn.append(read("x", 0))
        txn.append(write("x", 1))
        assert len(txn) == 2

    def test_reads_and_writes_iterators(self):
        txn = Transaction(1, [read("x", 0), write("x", 1), read("y", 2)])
        assert [op.key for op in txn.reads()] == ["x", "y"]
        assert [op.key for op in txn.writes()] == ["x"]


class TestInitialTransaction:
    def test_make_initial_transaction_writes_all_keys(self):
        txn = make_initial_transaction(["b", "a", "a"])
        assert txn.txn_id == INITIAL_TXN_ID
        assert [op.key for op in txn.operations] == ["a", "b"]
        assert all(op.value == INITIAL_VALUE for op in txn.operations)

    def test_custom_initial_value(self):
        txn = make_initial_transaction(["x"], value=9)
        assert txn.final_write("x") == 9


class TestHistory:
    def _simple_history(self):
        t1 = Transaction(1, [read("x", 0), write("x", 1)])
        t2 = Transaction(2, [read("x", 1), write("x", 2)])
        t3 = Transaction(3, [read("x", 2)])
        return History.from_transactions([[t1, t2], [t3]], initial_keys=["x"])

    def test_from_transactions_assigns_sessions(self):
        history = self._simple_history()
        assert len(history.sessions) == 2
        assert history.sessions[0].transactions[0].session_id == 0
        assert history.sessions[1].transactions[0].session_id == 1

    def test_transactions_includes_initial(self):
        history = self._simple_history()
        assert len(history.transactions(include_initial=True)) == 4
        assert len(history.transactions(include_initial=False)) == 3

    def test_committed_transactions_filters_aborted(self):
        t1 = Transaction(1, [read("x", 0)], status=TransactionStatus.ABORTED)
        t2 = Transaction(2, [read("x", 0)])
        history = History.from_transactions([[t1, t2]], initial_keys=["x"])
        committed = history.committed_transactions(include_initial=False)
        assert [t.txn_id for t in committed] == [2]

    def test_keys(self):
        history = self._simple_history()
        assert history.keys() == {"x"}

    def test_session_order_adjacent_pairs_with_initial(self):
        history = self._simple_history()
        pairs = {(a.txn_id, b.txn_id) for a, b in history.session_order()}
        assert (INITIAL_TXN_ID, 1) in pairs
        assert (1, 2) in pairs
        assert (INITIAL_TXN_ID, 3) in pairs
        assert (1, 3) not in pairs  # cross-session pairs never appear

    def test_session_order_skips_aborted_by_default(self):
        t1 = Transaction(1, [read("x", 0)])
        t2 = Transaction(2, [read("x", 0)], status=TransactionStatus.ABORTED)
        t3 = Transaction(3, [read("x", 0)])
        history = History.from_transactions([[t1, t2, t3]], initial_keys=["x"])
        pairs = {(a.txn_id, b.txn_id) for a, b in history.session_order()}
        assert (1, 3) in pairs and (1, 2) not in pairs

    def test_ensure_initial_transaction_idempotent(self):
        t1 = Transaction(1, [read("x", 0)])
        history = History.from_transactions([[t1]])
        assert history.initial_transaction is None
        history.ensure_initial_transaction()
        first = history.initial_transaction
        history.ensure_initial_transaction()
        assert history.initial_transaction is first
        assert first.final_write("x") == INITIAL_VALUE

    def test_real_time_order_requires_timestamps(self):
        history = self._simple_history()
        assert history.real_time_order() == []

    def test_real_time_order_respects_intervals(self):
        t1 = Transaction(1, [read("x", 0)], start_ts=0.0, finish_ts=1.0)
        t2 = Transaction(2, [read("x", 0)], start_ts=2.0, finish_ts=3.0)
        t3 = Transaction(3, [read("x", 0)], start_ts=0.5, finish_ts=2.5)
        history = History.from_transactions([[t1], [t2], [t3]])
        pairs = {(a.txn_id, b.txn_id) for a, b in history.real_time_order()}
        assert (1, 2) in pairs
        assert (1, 3) not in pairs and (3, 2) not in pairs

    def test_real_time_order_skips_aborted_and_untimed(self):
        t1 = Transaction(1, [read("x", 0)], start_ts=0.0, finish_ts=1.0)
        t2 = Transaction(2, [read("x", 0)], start_ts=2.0, finish_ts=3.0, status=TransactionStatus.ABORTED)
        t3 = Transaction(3, [read("x", 0)])
        t4 = Transaction(4, [read("x", 0)], start_ts=4.0, finish_ts=5.0)
        history = History.from_transactions([[t1, t2], [t3, t4]])
        pairs = {(a.txn_id, b.txn_id) for a, b in history.real_time_order()}
        assert pairs == {(1, 4)}

    def test_real_time_order_puts_initial_before_the_earliest_start(self):
        # t1 finishes first, but t2 starts first: ⊥T's one RT pair goes to
        # t2 (session order, not RT, links ⊥T to each session's first).
        t1 = Transaction(1, [read("x", 0)], start_ts=1.0, finish_ts=2.0)
        t2 = Transaction(2, [read("x", 0)], start_ts=0.5, finish_ts=6.0)
        t3 = Transaction(3, [read("x", 0)], start_ts=3.0, finish_ts=4.0)
        history = History.from_transactions([[t1], [t2], [t3]], initial_keys=["x"])
        pairs = {(a.txn_id, b.txn_id) for a, b in history.real_time_order()}
        assert pairs == {(INITIAL_TXN_ID, 2), (1, 3)}

    def test_len_and_repr(self):
        history = self._simple_history()
        assert len(history) == 3
        assert "History(" in repr(history)


def reduced_id_pairs(txns):
    return set(interval_order_reduction([(t.start_ts, t.finish_ts, t.txn_id) for t in txns]))


class TestIntervalOrderReduction:
    @staticmethod
    def _txn(txn_id, start, finish):
        return Transaction(txn_id, [], start_ts=start, finish_ts=finish)

    def test_reduction_on_a_chain(self):
        txns = [self._txn(i, float(i), i + 0.5) for i in range(5)]
        pairs = reduced_id_pairs(txns)
        # Only adjacent pairs survive the reduction.
        assert pairs == {(i, i + 1) for i in range(4)}

    def test_reduction_preserves_reachability(self):
        import random

        rng = random.Random(42)
        txns = []
        for i in range(40):
            start = rng.uniform(0, 100)
            txns.append(self._txn(i, start, start + rng.uniform(0.1, 20)))

        full = {
            (a.txn_id, b.txn_id)
            for a, b in itertools.permutations(txns, 2)
            if a.finish_ts < b.start_ts
        }
        reduced = reduced_id_pairs(txns)
        assert reduced <= full

        # Transitive closure of the reduction equals the full relation.
        adjacency = {}
        for a, b in reduced:
            adjacency.setdefault(a, set()).add(b)
        closure = set()
        for node in {t.txn_id for t in txns}:
            stack = list(adjacency.get(node, ()))
            seen = set()
            while stack:
                nxt = stack.pop()
                if nxt in seen:
                    continue
                seen.add(nxt)
                closure.add((node, nxt))
                stack.extend(adjacency.get(nxt, ()))
        assert closure == full

    def test_empty_and_untimed_transactions(self):
        assert interval_order_reduction([]) == []
        untimed = History.from_transactions([[Transaction(1, [])]])
        assert untimed.real_time_order() == []


class TestSession:
    def test_append_sets_session_id(self):
        session = Session(session_id=7)
        txn = Transaction(1, [])
        session.append(txn)
        assert txn.session_id == 7
        assert len(session) == 1
        assert list(iter(session)) == [txn]
