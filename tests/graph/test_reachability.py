"""Tests for the reachability oracles over digraphs."""

import pytest

from reachability import OnlineBfsOracle, SccIntervalOracle
from repro.graph.builders import digraph_cycle, digraph_path
from repro.graph.digraph import DiGraph
from repro.graph.transitive_closure import tc_bfs

ORACLES = [OnlineBfsOracle, SccIntervalOracle]


@pytest.mark.parametrize("oracle_class", ORACLES, ids=lambda c: c.__name__)
class TestOracleSemantics:
    def test_path_reachability(self, oracle_class):
        oracle = oracle_class(digraph_path(4))
        assert oracle.reaches(0, 4)
        assert oracle.reaches(1, 3)
        assert not oracle.reaches(4, 0)
        assert not oracle.reaches(2, 2)  # positive length only

    def test_cycle_self_reachability(self, oracle_class):
        oracle = oracle_class(digraph_cycle(3))
        assert oracle.reaches(0, 0)
        assert oracle.reaches(2, 1)

    def test_self_loop(self, oracle_class):
        oracle = oracle_class(DiGraph.from_pairs([(0, 0), (1, 2)]))
        assert oracle.reaches(0, 0)
        assert not oracle.reaches(1, 1)

    def test_unknown_vertices(self, oracle_class):
        oracle = oracle_class(digraph_path(2))
        assert not oracle.reaches(99, 0)
        assert not oracle.reaches(0, 99)

    def test_matches_closure_on_random_graph(self, oracle_class):
        import random

        rng = random.Random(3)
        edges = {(rng.randrange(12), rng.randrange(12)) for _ in range(30)}
        graph = DiGraph.from_pairs(edges)
        closure = tc_bfs(graph)
        oracle = oracle_class(graph)
        for source in graph.vertices():
            for target in graph.vertices():
                assert oracle.reaches(source, target) == (
                    (source, target) in closure
                )


class TestIndexProperties:
    def test_index_size_counts_scc_pairs(self):
        oracle = SccIntervalOracle(digraph_path(3))
        # Path of 4 vertices: closure pairs at SCC level = 3+2+1 = 6.
        assert oracle.index_size == 6

    def test_index_size_cycle(self):
        oracle = SccIntervalOracle(digraph_cycle(5))
        assert oracle.index_size == 1  # single cyclic SCC reaching itself
