"""Tests for the dense CSR graph kernel (``repro.core.csr``).

The central invariant: **the kernel builds the graph the reference
multigraph builder builds** — same edge set, same acyclicity answer, same
SI-induced composition, and (through ``CSRGraph.find_cycle``) the same
labeled counterexample cycle.  ``assert_kernel_matches_reference`` makes
that comparison; the route driver (``tests/test_routes.py``) runs it on
every corpus entry, with and without RT edges.  The kernel builds no
transitive closure of ``WW`` (Section IV-C); ``assert_closure_keeps_the_verdict``
checks Theorems 1–2 against the reference builder that does.
"""

import random
from pathlib import Path

import pytest

from repro.bench import generate_mt_history
from repro.core.checkers import check_sser, classify_cycle
from repro.core.csr import EDGE_TYPE_CODES, EDGE_TYPE_FROM_CODE, CSRGraph, peel_cycle
from repro.core.graph import DependencyGraph, Edge, EdgeType, build_dependency
from repro.core.incremental import CheckerSession
from repro.core.index import HistoryIndex
from repro.core.model import History, Transaction, TransactionStatus, read, stream_order, write
from repro.core.result import CheckResult, IsolationLevel
from repro.db import FaultPlan
from repro.history import load_columns

from test_index import random_histories
from test_parallel import composite_history


CORPUS = Path(__file__).resolve().parent / "corpus"


def csr_edges(csr):
    """The graph's edge columns as labeled :class:`Edge` objects."""
    names = csr.key_names
    return [
        Edge(csr.node_ids[s], csr.node_ids[t], EDGE_TYPE_FROM_CODE[e], names[k] if k >= 0 else None)
        for s, t, e, k in zip(csr.src, csr.dst, csr.etype, csr.key_id)
    ]


def two_txn_history():
    t1 = Transaction(1, [read("x", 0), write("x", 1)])
    t2 = Transaction(2, [read("x", 1), write("x", 2)], session_id=1)
    return History.from_transactions([[t1], [t2]], initial_keys=["x"])


def lost_update_history():
    t1 = Transaction(1, [read("x", 0), write("x", 1)])
    t2 = Transaction(2, [read("x", 0), write("x", 2)], session_id=1)
    return History.from_transactions([[t1], [t2]], initial_keys=["x"])


def assert_kernel_matches_reference(history, *, with_rt, index=None):
    """The CSR build equals ``build_dependency``'s multigraph, edge for edge.

    The two sides share no scan: the kernel reads the index's columns, the
    reference resolves the ``History`` with the object model.  The kernel's
    real-time chain is compared as the reduced RT pairs ``to_multigraph``
    walks off it, pair for pair against ``History.real_time_order()``.
    """
    reference = build_dependency(history, with_rt=with_rt, index=index)
    csr = CSRGraph.from_index(index if index is not None else HistoryIndex.build(history), with_rt=with_rt)

    assert set(csr.to_multigraph().edges()) == set(reference.edges())
    assert (csr.has_cycle() is None) == (reference.find_cycle() is None)
    # Both find_cycles search in transaction-id order and break label ties
    # alike, so equal edge sets give the same cycle list for list whatever
    # order the edges were inserted in.
    assert csr.find_cycle() == reference.find_cycle()

    if not with_rt:  # CHECKSI composes the RT-free graph only
        induced = reference.si_induced_graph()
        assert set(csr_edges(csr.si_induced())) == set(induced.edges())
        assert (csr.si_induced().has_cycle() is None) == (induced.find_cycle() is None)
        assert csr.si_induced().find_cycle() == induced.find_cycle()


def assert_closure_keeps_the_verdict(history, *, with_rt):
    """Theorems 1–2: the reference with the per-object ``WW`` closure and the
    kernel without it agree on acyclicity (for SI, of the induced graph)."""
    closed = build_dependency(history, with_rt=with_rt, transitive_ww=True)
    csr = CSRGraph.from_index(HistoryIndex.build(history), with_rt=with_rt)
    assert (closed.find_cycle() is None) == (csr.has_cycle() is None)
    if not with_rt:
        induced = closed.si_induced_graph()
        assert (induced.find_cycle() is None) == (csr.si_induced().has_cycle() is None)


# ----------------------------------------------------------------------
# CSRGraph unit behaviour
# ----------------------------------------------------------------------
class TestCSRGraph:
    def test_build_matches_legacy_edge_set(self):
        history = two_txn_history()
        index = HistoryIndex.build(history)
        csr = build_dependency(history, index=index, dense=True)
        legacy = build_dependency(history, index=index)
        assert isinstance(csr, CSRGraph)
        assert sorted(map(str, csr_edges(csr))) == sorted(map(str, legacy.edges()))

    def test_to_multigraph_builds_a_fresh_graph(self):
        history = two_txn_history()
        csr = build_dependency(history, dense=True)
        graph = csr.to_multigraph()
        assert isinstance(graph, DependencyGraph)
        legacy = build_dependency(history)
        assert graph.nodes == legacy.nodes
        assert graph.num_edges == legacy.num_edges
        assert csr.to_multigraph() is not graph  # nothing is cached

    def test_has_cycle_accept_and_reject(self):
        assert build_dependency(two_txn_history(), dense=True).has_cycle() is None
        scc = build_dependency(lost_update_history(), dense=True).has_cycle()
        assert scc is not None and sorted(scc) == [1, 2]

    def test_has_cycle_names_transactions_only(self):
        # The cycle runs through a time node of the real-time chain, which
        # has no transaction id: consecutive ids are joined by a real-time path.
        index = HistoryIndex.from_columns(load_columns(CORPUS / "rt-bipartite.jsonl"))
        assert CSRGraph.from_index(index).has_cycle() is None
        cycle = CSRGraph.from_index(index, with_rt=True).has_cycle()
        assert sorted(cycle) == [1, 9]
        reference = build_dependency(index.history, with_rt=True)
        for source, target in zip(cycle, cycle[1:] + cycle[:1]):
            assert reference.has_edge(source, target)

    def test_si_induced_matches_legacy_composition(self):
        history = lost_update_history()
        csr = build_dependency(history, dense=True)
        legacy_induced = build_dependency(history).si_induced_graph()
        dense_edges = {
            (e.source, e.target, e.edge_type, e.key)
            for e in csr_edges(csr.si_induced())
        }
        legacy_edges = {
            (e.source, e.target, e.edge_type, e.key) for e in legacy_induced.edges()
        }
        assert dense_edges == legacy_edges

    def test_nbytes_is_compact(self):
        history = two_txn_history()
        csr = build_dependency(history, dense=True)
        # Four int32 columns per edge row; the acyclicity check caches nothing.
        assert csr.nbytes == 4 * csr.num_edges * csr.src.itemsize
        csr.has_cycle()
        assert csr.nbytes == 4 * csr.num_edges * csr.src.itemsize

    def test_with_rt_adds_rt_rows(self):
        t1 = Transaction(1, [read("x", 0), write("x", 1)], start_ts=0.0, finish_ts=1.0)
        t2 = Transaction(
            2, [read("x", 1), write("x", 2)], session_id=1, start_ts=2.0, finish_ts=3.0
        )
        history = History.from_transactions([[t1], [t2]], initial_keys=["x"])
        index = HistoryIndex.build(history)
        csr = CSRGraph.from_index(index, with_rt=True)
        # Appended last as a chain: one time node, read back as the reduced pairs.
        assert csr.node_ids[-1] is None and csr.etype[-1] == EDGE_TYPE_CODES[EdgeType.RT]
        rt = {(e.source, e.target) for e in csr.to_multigraph().edges(EdgeType.RT)}
        assert rt == {(-1, 1), (1, 2)}


# ----------------------------------------------------------------------
# SSER's real-time order as a chain of time nodes
# ----------------------------------------------------------------------
def timed_history(rng):
    """A random MT history with integer stamps: ties, touching and missing
    stamps, aborted rows, now and then an inverted interval, ``⊥T`` or not."""
    keys, values = ("x", "y"), iter(range(1, 100))
    written = {key: [0] for key in keys}
    plans = ["r0", "r0 r1", "r0 w0", "r0 r1 w0 w1", "r0 r1 w1"]
    transactions = []
    for txn_id in range(1, rng.randint(2, 12)):
        order = rng.sample(keys, 2)
        ops = []
        for step in rng.choice(plans).split():
            key = order[int(step[1])]
            if step[0] == "w":
                ops.append(write(key, next(values)))
                written[key].append(ops[-1].value)
            else:
                ops.append(read(key, rng.choice(written[key])))
        start = rng.randint(0, 12)
        finish = start + rng.choice((0, 1, 2, 3, -1 if rng.random() < 0.05 else 1))
        if rng.random() < 0.1:
            start, finish = (None, None) if rng.random() < 0.5 else (start, None)
        transactions.append(Transaction(
            txn_id, ops, start_ts=start, finish_ts=finish,
            status=TransactionStatus.ABORTED if rng.random() < 0.1 else TransactionStatus.COMMITTED,
        ))
    sessions = rng.randint(1, 3)
    return History.from_transactions(
        [transactions[s::sessions] for s in range(sessions)],
        initial_keys=list(keys) if rng.random() < 0.8 else None,
    )


def first_inverted(history):
    """The first transaction in stream order that finishes before it starts, or ``None``."""
    return next((t for t in stream_order(history) if t.start_ts is not None and t.finish_ts is not None
                 and t.start_ts > t.finish_ts), None)


def reference_verdict(history, level, num_transactions):
    """The verdict the reference multigraph prints: its own ``find_cycle``,
    classified; it shares no scan and no real-time code with the kernel."""
    cycle = build_dependency(history, with_rt=level is IsolationLevel.STRICT_SERIALIZABILITY).find_cycle()
    if cycle is None:
        return CheckResult.ok(level, num_transactions)
    return CheckResult.violated(level, [classify_cycle(cycle, level=level)], num_transactions=num_transactions)


class TestRealTimeChain:
    def test_chain_agrees_with_the_reference_reduced_pairs(self):
        # A history with an interval that finishes before it starts is
        # refused by the index and by a session alike, naming that row.
        level = IsolationLevel.STRICT_SERIALIZABILITY
        rng = random.Random(33)
        rt_only = rejects = refused = 0
        for _ in range(1500):
            history = timed_history(rng)
            inverted = first_inverted(history)
            if inverted is not None:
                named = f"malformed history: transaction {inverted.txn_id} finishes at"
                with pytest.raises(ValueError, match=named):
                    HistoryIndex.build(history)
                with pytest.raises(ValueError, match=named):
                    CheckerSession(IsolationLevel.STRICT_SERIALIZABILITY).ingest_history(history)
                refused += 1
                continue
            index = HistoryIndex.build(history)
            csr = build_dependency(history, index=index, dense=True)
            chained = build_dependency(history, with_rt=True, index=index, dense=True)
            reference = build_dependency(history, with_rt=True)
            rejected = reference.find_cycle() is not None
            assert (chained.has_cycle() is not None) == rejected
            # The walk reads the reduced pairs back off the chain, pair for pair.
            assert set(chained.to_multigraph().edges()) == set(reference.edges())
            rejects += rejected
            rt_only += rejected and csr.has_cycle() is None
            if not index.int_violations():  # the printed counterexample is the reference's
                assert check_sser(history, index=index).format() == reference_verdict(
                    history, level, index.num_committed
                ).format()
        assert rt_only > 50 and rejects > rt_only and refused > 20

    def test_walk_reads_the_model_reduction_off_the_chain(self):
        # Reference: History.real_time_order on objects, ⊥T's pair included.
        timestamped = generate_mt_history(
            isolation="si", num_sessions=4, txns_per_session=20, num_objects=8,
            seed=11, faults=FaultPlan.for_anomaly("abortedread", rate=0.3, seed=11),
        ).history
        for history in [*random_histories(), timestamped]:
            graph = CSRGraph.from_index(HistoryIndex.build(history), with_rt=True).to_multigraph()
            pairs = [(a.txn_id, b.txn_id) for a, b in history.real_time_order()]
            assert sorted((e.source, e.target) for e in graph.edges(EdgeType.RT)) == sorted(pairs)

    @pytest.mark.parametrize("k", [1, 10, 60])
    def test_bipartite_history_takes_linear_chain_rows(self, k):
        # Half the transactions finish before the other half start.
        txns = [
            Transaction(i, [read("x", 0)], session_id=i,
                        start_ts=0.0 if i < k else 2.0, finish_ts=1.0 if i < k else 3.0)
            for i in range(2 * k)
        ]
        history = History.from_transactions([[t] for t in txns], initial_keys=["x"])
        index = HistoryIndex.build(history)
        csr = build_dependency(history, index=index, dense=True)
        chain = build_dependency(history, with_rt=True, index=index, dense=True)
        assert len(history.real_time_order()) == k * k + 1
        assert chain.num_nodes == csr.num_nodes + 1  # one time node
        assert chain.num_edges - csr.num_edges == 2 * k + 1 <= 3 * len(txns)
        assert chain.has_cycle() is None


def assert_is_cycle(cycle, edges):
    """Every consecutive pair of ``cycle``, wrapping around, is an edge."""
    assert cycle
    assert all((a, b) in edges for a, b in zip(cycle, cycle[1:] + cycle[:1]))


class TestPeel:
    @staticmethod
    def peel(n, edges):
        return peel_cycle(n, [s for s, _ in edges], [t for _, t in edges])

    def test_dag_returns_none(self):
        assert self.peel(4, [(0, 1), (1, 2), (0, 2), (3, 2)]) is None
        assert self.peel(3, []) is None

    def test_cycle_ids_are_edges(self):
        edges = {(0, 1), (1, 2), (2, 0), (2, 3), (4, 0)}
        cycle = self.peel(5, sorted(edges))
        assert sorted(cycle) == [0, 1, 2]
        assert_is_cycle(cycle, edges)

    def test_walk_from_a_node_behind_the_cycle(self):
        # Nodes 0 and 1 are never peeled but lie behind the cycle 3 <-> 4;
        # the walk starts at node 0 and must not report the tail.
        edges = {(3, 4), (4, 3), (4, 0), (0, 1), (2, 0)}
        for order in (sorted(edges), sorted(edges, reverse=True)):
            cycle = self.peel(5, order)
            assert sorted(cycle) == [3, 4]
            assert_is_cycle(cycle, edges)

    def test_self_loop(self):
        assert self.peel(1, [(0, 0)]) == [0]
        assert self.peel(3, [(0, 1), (1, 1), (1, 2)]) == [1]

    def test_graph_cycle_is_transaction_ids(self):
        csr = build_dependency(lost_update_history(), dense=True)
        edges = {(e.source, e.target) for e in csr_edges(csr)}
        assert_is_cycle(csr.has_cycle(), edges)

    def test_random_graphs_agree_with_the_reference_search(self):
        rng = random.Random(26)
        for _ in range(300):
            n = rng.randint(1, 12)
            edges = {(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 2 * n))}
            reference = DependencyGraph(range(n))
            for s, t in edges:
                reference.add_edge(s, t, EdgeType.SO)
            cycle = self.peel(n, sorted(edges))
            assert (cycle is None) == (reference.find_cycle() is None)
            if cycle is not None:
                assert_is_cycle(cycle, edges)


# ----------------------------------------------------------------------
# The comparison the route driver makes on every corpus entry
# ----------------------------------------------------------------------
def _fault(name, rate, seed):
    return FaultPlan.for_anomaly(name, rate=rate, seed=seed)


class TestReferenceIsIndependentOfTheScan:
    def test_a_dropped_resolved_read_fails_the_comparison(self, monkeypatch):
        history = composite_history([("si", 81, None)])
        assert_kernel_matches_reference(history, with_rt=False)
        index = HistoryIndex.build(history)
        options = dict(with_rt=False, index=index)

        # A scan bug: the index loses one resolved read.  When the reference
        # read the same columns, both sides lost the edge and still agreed.
        columns = index.read_columns
        victim = next(slot for slot, writer in enumerate(columns[3]) if writer >= 0)
        monkeypatch.setattr(
            index, "_reads_dense", tuple(col[:victim] + col[victim + 1:] for col in columns)
        )
        assert len(index.read_columns[0]) == len(columns[0]) - 1
        with pytest.raises(AssertionError):
            assert_kernel_matches_reference(history, **options)
        kernel = set(csr_edges(build_dependency(history, dense=True, index=index)))
        assert kernel < set(build_dependency(history, index=index).edges())

    def test_reference_and_solver_baselines_build_no_index(self):
        from repro.baselines import CobraChecker, PolySIChecker
        from repro.baselines.polygraph import build_polygraph

        history = composite_history([("si", 82, _fault("lostupdate", 0.3, 82))])
        before = HistoryIndex.builds
        build_dependency(history, with_rt=True)
        build_polygraph(history)
        CobraChecker().check(history)
        PolySIChecker().check(history)
        assert HistoryIndex.builds == before
