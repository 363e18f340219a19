"""Tests for dependency graph construction and cycle detection."""

import pytest

from repro.core.graph import DependencyGraph, Edge, EdgeType, build_dependency
from repro.core.model import History, Transaction, read, write


def txn(txn_id, *ops, **kwargs):
    return Transaction(txn_id, list(ops), **kwargs)


class TestDependencyGraphBasics:
    def test_add_edge_and_queries(self):
        graph = DependencyGraph()
        assert graph.add_edge(1, 2, EdgeType.WR, "x")
        assert not graph.add_edge(1, 2, EdgeType.WR, "x")  # duplicate
        assert graph.add_edge(1, 2, EdgeType.WW, "x")  # different label
        assert graph.has_edge(1, 2)
        assert graph.has_edge(1, 2, EdgeType.WR)
        assert graph.has_edge(1, 2, EdgeType.WR, "x")
        assert not graph.has_edge(2, 1)
        assert graph.num_edges == 2
        assert set(graph.successors(1)) == {2}

    def test_edges_filtered_by_type(self):
        graph = DependencyGraph()
        graph.add_edge(1, 2, EdgeType.WR, "x")
        graph.add_edge(2, 3, EdgeType.RW, "x")
        assert {e.edge_type for e in graph.edges()} == {EdgeType.WR, EdgeType.RW}
        assert [e.target for e in graph.edges(EdgeType.RW)] == [3]

    def test_edge_label_and_str(self):
        edge = Edge(1, 2, EdgeType.WR, "x")
        assert edge.label == "WR(x)"
        assert "T1" in str(edge) and "T2" in str(edge)
        assert Edge(1, 2, EdgeType.SO).label == "SO"

    def test_restricted_view(self):
        graph = DependencyGraph()
        graph.add_edge(1, 2, EdgeType.SO)
        graph.add_edge(2, 3, EdgeType.RW, "x")
        restricted = graph.restricted(frozenset({EdgeType.SO}))
        assert restricted.num_edges == 1
        assert restricted.nodes == graph.nodes


class TestTransitiveClosureHelper:
    def brute(self, pairs):
        succ = {}
        for s, t in pairs:
            succ.setdefault(s, set()).add(t)
        out = set(pairs)
        nodes = {n for pair in pairs for n in pair}
        for s in nodes:
            seen, stack = set(), list(succ.get(s, ()))
            while stack:
                n = stack.pop()
                if n in seen:
                    continue
                seen.add(n)
                stack.extend(succ.get(n, ()))
            out.update((s, t) for t in seen if t != s)
        return out

    def test_chain_dag_and_diamond(self):
        from repro.core.graph import _transitive_closure

        chain = [(1, 2), (2, 3), (3, 4)]
        assert _transitive_closure(chain) == self.brute(chain)
        diamond = [(1, 2), (1, 3), (2, 4), (3, 4)]
        assert _transitive_closure(diamond) == self.brute(diamond)

    def test_cyclic_relation_from_anomalous_history(self):
        from repro.core.graph import _transitive_closure

        cyclic = [(1, 2), (2, 3), (3, 1), (3, 4)]
        assert _transitive_closure(cyclic) == self.brute(cyclic)

    def test_randomized_against_brute_force(self):
        import random

        from repro.core.graph import _transitive_closure

        rng = random.Random(7)
        for _ in range(200):
            n = rng.randint(1, 10)
            pairs = [
                (rng.randrange(n), rng.randrange(n))
                for _ in range(rng.randint(0, 18))
            ]
            assert _transitive_closure(pairs) == self.brute(pairs), pairs


class TestCycleDetection:
    def test_acyclic_graph(self):
        graph = DependencyGraph()
        graph.add_edge(1, 2, EdgeType.SO)
        graph.add_edge(2, 3, EdgeType.SO)
        assert graph.is_acyclic()
        assert graph.find_cycle() is None

    def test_two_node_cycle(self):
        graph = DependencyGraph()
        graph.add_edge(1, 2, EdgeType.WW, "x")
        graph.add_edge(2, 1, EdgeType.RW, "x")
        cycle = graph.find_cycle()
        assert cycle is not None
        assert {edge.source for edge in cycle} == {1, 2}

    def test_longer_cycle_is_found(self):
        graph = DependencyGraph()
        for a, b in [(1, 2), (2, 3), (3, 4), (4, 2)]:
            graph.add_edge(a, b, EdgeType.SO)
        cycle = graph.find_cycle()
        assert cycle is not None
        assert {edge.source for edge in cycle} == {2, 3, 4}

    def test_isolated_nodes_do_not_confuse_detection(self):
        graph = DependencyGraph(nodes=[10, 20])
        graph.add_edge(1, 2, EdgeType.SO)
        assert graph.is_acyclic()

    def test_self_loop_is_a_cycle(self):
        graph = DependencyGraph()
        graph.add_edge(1, 1, EdgeType.WW, "x")
        assert [(edge.source, edge.target) for edge in graph.find_cycle()] == [(1, 1)]


class TestSIInducedGraph:
    def test_composition_adds_edges(self):
        graph = DependencyGraph()
        graph.add_edge(1, 2, EdgeType.WR, "x")
        graph.add_edge(2, 3, EdgeType.RW, "x")
        induced = graph.si_induced_graph()
        assert induced.has_edge(1, 2)          # base edge kept
        assert induced.has_edge(1, 3)          # composed WR ; RW
        assert not induced.has_edge(2, 3)      # raw RW edges are dropped

    def test_adjacent_rw_cycle_disappears(self):
        # Write-skew shape: two RW edges only — no SI-forbidden cycle.
        graph = DependencyGraph()
        graph.add_edge(1, 2, EdgeType.RW, "y")
        graph.add_edge(2, 1, EdgeType.RW, "x")
        assert graph.find_cycle() is not None
        assert graph.si_induced_graph().find_cycle() is None

    def test_ww_rw_cycle_survives(self):
        graph = DependencyGraph()
        graph.add_edge(1, 2, EdgeType.WW, "x")
        graph.add_edge(2, 1, EdgeType.RW, "x")
        assert graph.si_induced_graph().find_cycle() is not None


class TestBuildDependency:
    def _chain_history(self):
        t1 = txn(1, read("x", 0), write("x", 1))
        t2 = txn(2, read("x", 1), write("x", 2))
        t3 = txn(3, read("x", 2))
        return History.from_transactions([[t1, t2], [t3]], initial_keys=["x"])

    def test_wr_edges_follow_unique_values(self):
        graph = build_dependency(self._chain_history())
        assert graph.has_edge(1, 2, EdgeType.WR, "x")
        assert graph.has_edge(2, 3, EdgeType.WR, "x")
        assert graph.has_edge(-1, 1, EdgeType.WR, "x")

    def test_ww_edges_inferred_from_rmw(self):
        graph = build_dependency(self._chain_history())
        assert graph.has_edge(-1, 1, EdgeType.WW, "x")
        assert graph.has_edge(1, 2, EdgeType.WW, "x")
        assert not graph.has_edge(2, 3, EdgeType.WW, "x")  # T3 does not write

    def test_rw_edges_derived(self):
        # T3 reads x from T2; nothing overwrites T2, so no RW edge from T3.
        graph = build_dependency(self._chain_history())
        assert not any(True for _ in graph.edges(EdgeType.RW) if _.source == 3)
        # T1 read from the initial txn which T1 overwrites -> no self RW.
        assert not graph.has_edge(1, 1, EdgeType.RW, "x")

    def test_so_edges_adjacent_only(self):
        graph = build_dependency(self._chain_history())
        assert graph.has_edge(1, 2, EdgeType.SO)
        assert graph.has_edge(-1, 1, EdgeType.SO)
        assert graph.has_edge(-1, 3, EdgeType.SO)

    def test_rt_edges_only_when_requested(self):
        t1 = txn(1, read("x", 0), write("x", 1), start_ts=0.0, finish_ts=1.0)
        t2 = txn(2, read("x", 1), start_ts=2.0, finish_ts=3.0)
        history = History.from_transactions([[t1], [t2]], initial_keys=["x"])
        without_rt = build_dependency(history, with_rt=False)
        with_rt = build_dependency(history, with_rt=True)
        assert not any(True for _ in without_rt.edges(EdgeType.RT))
        assert with_rt.has_edge(1, 2, EdgeType.RT)

    def test_divergent_readers_produce_rw_edges(self):
        t1 = txn(1, read("x", 0), write("x", 1))
        t2 = txn(2, read("x", 0), write("x", 2))
        history = History.from_transactions([[t1], [t2]], initial_keys=["x"])
        graph = build_dependency(history)
        assert graph.has_edge(1, 2, EdgeType.RW, "x")
        assert graph.has_edge(2, 1, EdgeType.RW, "x")

    def test_transitive_ww_closure_adds_edges(self):
        t1 = txn(1, read("x", 0), write("x", 1))
        t2 = txn(2, read("x", 1), write("x", 2))
        t3 = txn(3, read("x", 2), write("x", 3))
        history = History.from_transactions([[t1], [t2], [t3]], initial_keys=["x"])
        plain = build_dependency(history, transitive_ww=False)
        closed = build_dependency(history, transitive_ww=True)
        assert not plain.has_edge(1, 3, EdgeType.WW, "x")
        assert closed.has_edge(1, 3, EdgeType.WW, "x")
        # Theorem 1: both must agree on acyclicity.
        assert plain.is_acyclic() == closed.is_acyclic() is True

    def test_aborted_transactions_excluded_from_graph(self):
        from repro.core.model import TransactionStatus

        aborted = txn(1, read("x", 0), write("x", 1), status=TransactionStatus.ABORTED)
        t2 = txn(2, read("x", 0), write("x", 2))
        history = History.from_transactions([[aborted], [t2]], initial_keys=["x"])
        graph = build_dependency(history)
        assert 1 not in graph.nodes
        assert 2 in graph.nodes
