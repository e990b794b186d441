"""Tests for edge deletion in the RTC repair (standalone handles)."""

import pytest

from repro.core.incremental import IncrementalRTC
from repro.errors import GraphError
from repro.graph.multigraph import LabeledMultigraph
from repro.rpq.evaluate import eval_rpq


class TestRemoveEdge:
    def test_breaks_reachability(self):
        graph = LabeledMultigraph.from_edges([(0, "a", 1), (1, "a", 2)])
        incremental = IncrementalRTC(graph, "a")
        assert incremental.reaches(0, 2)
        incremental.remove_edge(1, "a", 2)
        assert not incremental.reaches(0, 2)
        assert incremental.reaches(0, 1)
        # Removal is repaired row by row, like insertion.
        assert (incremental.full_rebuilds, incremental.incremental_updates) == (0, 1)

    def test_splits_scc(self):
        graph = LabeledMultigraph.from_edges(
            [(0, "a", 1), (1, "a", 2), (2, "a", 0)]
        )
        incremental = IncrementalRTC(graph, "a")
        assert incremental.reaches(0, 0)
        incremental.remove_edge(2, "a", 0)
        assert not incremental.reaches(0, 0)
        assert incremental.plus_pairs() == {(0, 1), (0, 2), (1, 2)}

    def test_graph_object_updated_in_place(self):
        graph = LabeledMultigraph.from_edges([(0, "a", 1), (1, "b", 2)])
        incremental = IncrementalRTC(graph, "a")
        incremental.remove_edge(1, "b", 2)
        # The caller's graph reference observes the deletion.
        assert not graph.has_edge(1, "b", 2)
        assert graph.has_edge(0, "a", 1)
        assert 2 in graph  # vertices survive

    def test_missing_edge_raises(self):
        graph = LabeledMultigraph.from_edges([(0, "a", 1)])
        incremental = IncrementalRTC(graph, "a")
        with pytest.raises(GraphError, match="not in the graph"):
            incremental.remove_edge(0, "a", 99)

    def test_mixed_insert_delete_sequence(self):
        import random

        rng = random.Random(7)
        graph = LabeledMultigraph()
        for vertex in range(6):
            graph.add_vertex(vertex)
        incremental = IncrementalRTC(graph, "a")
        present: set = set()
        for _step in range(20):
            source, target = rng.randrange(6), rng.randrange(6)
            if (source, target) in present and rng.random() < 0.4:
                incremental.remove_edge(source, "a", target)
                present.discard((source, target))
            elif (source, target) not in present:
                incremental.add_edge(source, "a", target)
                present.add((source, target))
            expected = eval_rpq(graph, "a+")
            assert incremental.plus_pairs() == expected

    def test_remove_then_reinsert(self):
        graph = LabeledMultigraph.from_edges([(0, "a", 1), (1, "a", 0)])
        incremental = IncrementalRTC(graph, "a")
        incremental.remove_edge(1, "a", 0)
        incremental.add_edge(1, "a", 0)
        assert incremental.reaches(0, 0)
        assert incremental.plus_pairs() == eval_rpq(graph, "a+")
