"""Tests for the transitive-closure algorithms (Lemma 3 machinery)."""

import pytest

from repro.bitset import bit_indexes
from repro.graph.builders import digraph_cycle, digraph_path
from repro.graph.digraph import DiGraph
from repro.graph.scc import condense
from repro.graph.transitive_closure import (
    dag_closure_bitsets,
    scc_closure,
    tc_bfs,
    tc_nuutila,
    tc_purdom,
    tc_warshall,
    transitive_closure_pairs,
)

ALGORITHMS = [tc_bfs, tc_warshall, tc_purdom, tc_nuutila]

CASES = {
    "empty": [],
    "single_edge": [(0, 1)],
    "two_cycle": [(0, 1), (1, 0)],
    "self_loop": [(0, 0)],
    "path": [(0, 1), (1, 2), (2, 3)],
    "diamond": [(0, 1), (0, 2), (1, 3), (2, 3)],
    "cycle_with_tail": [(0, 1), (1, 2), (2, 0), (2, 3)],
    "two_components": [(0, 1), (2, 3)],
    "paper_gbc": [(2, 4), (2, 6), (3, 5), (4, 2), (5, 3)],
}

EXPECTED = {
    "empty": set(),
    "single_edge": {(0, 1)},
    "two_cycle": {(0, 0), (0, 1), (1, 0), (1, 1)},
    "self_loop": {(0, 0)},
    "path": {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)},
    "diamond": {(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)},
    "cycle_with_tail": {
        (0, 0), (0, 1), (0, 2), (0, 3),
        (1, 0), (1, 1), (1, 2), (1, 3),
        (2, 0), (2, 1), (2, 2), (2, 3),
    },
    "two_components": {(0, 1), (2, 3)},
    # Example 4 of the paper.
    "paper_gbc": {
        (2, 2), (2, 4), (2, 6), (3, 3), (3, 5),
        (4, 2), (4, 4), (4, 6), (5, 3), (5, 5),
    },
}


class TestClosureAlgorithms:
    @pytest.mark.parametrize("algorithm", ALGORITHMS, ids=lambda a: a.__name__)
    @pytest.mark.parametrize("case", sorted(CASES), ids=str)
    def test_known_closures(self, algorithm, case):
        graph = DiGraph.from_pairs(CASES[case])
        assert algorithm(graph) == EXPECTED[case]

    @pytest.mark.parametrize("algorithm", ALGORITHMS, ids=lambda a: a.__name__)
    def test_cycle_closure_is_complete(self, algorithm):
        graph = digraph_cycle(6)
        expected = {(i, j) for i in range(6) for j in range(6)}
        assert algorithm(graph) == expected

    @pytest.mark.parametrize("algorithm", ALGORITHMS, ids=lambda a: a.__name__)
    def test_path_excludes_reflexive_pairs(self, algorithm):
        graph = digraph_path(5)
        closure = algorithm(graph)
        assert all(source != target for source, target in closure)
        assert len(closure) == 5 * 6 // 2

    def test_dispatch(self):
        graph = DiGraph.from_pairs(CASES["diamond"])
        for name in ("bfs", "warshall", "purdom", "nuutila"):
            assert transitive_closure_pairs(graph, name) == EXPECTED["diamond"]

    def test_dispatch_unknown(self):
        with pytest.raises(ValueError, match="unknown transitive-closure"):
            transitive_closure_pairs(DiGraph(), "magic")


class TestBitsetHelpers:
    def test_bit_indexes(self):
        assert bit_indexes(0) == []
        assert bit_indexes(0b1011) == [0, 1, 3]
        assert bit_indexes(1 << 70) == [70]

    def test_dag_closure_bitsets_cyclic_self(self):
        graph = DiGraph.from_pairs([(0, 1), (1, 0), (1, 2)])
        condensation = condense(graph)
        bitsets = dag_closure_bitsets(condensation)
        cyclic_id = condensation.scc_of[0]
        sink_id = condensation.scc_of[2]
        assert bitsets[cyclic_id] & (1 << cyclic_id)  # reaches itself
        assert bitsets[cyclic_id] & (1 << sink_id)
        assert bitsets[sink_id] == 0  # acyclic singleton sink

    def test_scc_closure_matches_bitsets(self):
        graph = DiGraph.from_pairs([(0, 1), (1, 2), (2, 0), (2, 3)])
        condensation = condense(graph)
        bitsets = dag_closure_bitsets(condensation)
        closure = scc_closure(condensation)
        for scc_id, mask in bitsets.items():
            assert closure[scc_id] == frozenset(bit_indexes(mask))


class TestCrossAlgorithmAgreement:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_graphs_agree(self, seed):
        import random

        rng = random.Random(seed)
        size = rng.randint(1, 14)
        edges = {
            (rng.randrange(size), rng.randrange(size))
            for _ in range(rng.randint(0, 3 * size))
        }
        graph = DiGraph.from_pairs(edges)
        for vertex in range(size):
            graph.add_vertex(vertex)
        reference = tc_bfs(graph)
        assert tc_warshall(graph) == reference
        assert tc_purdom(graph) == reference
        assert tc_nuutila(graph) == reference

    def test_against_networkx(self):
        import networkx as nx

        edges = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 3), (1, 4)]
        graph = DiGraph.from_pairs(edges)
        nx_graph = nx.DiGraph(edges)
        expected = set()
        for vertex in nx_graph.nodes:
            for descendant in nx.descendants(nx_graph, vertex):
                expected.add((vertex, descendant))
            # positive-length self-reachability
            if any(
                vertex in nx.descendants(nx_graph, successor) or successor == vertex
                for successor in nx_graph.successors(vertex)
            ):
                expected.add((vertex, vertex))
        assert tc_purdom(graph) == expected
