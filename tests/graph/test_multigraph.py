"""Unit tests for the edge-labeled multigraph data model (Section II-A)."""

import pytest

from repro.errors import GraphError, VertexNotFoundError
from repro.graph.multigraph import LabeledMultigraph


def build_small() -> LabeledMultigraph:
    return LabeledMultigraph.from_edges(
        [(0, "a", 1), (0, "b", 1), (1, "a", 2), (2, "c", 0)]
    )


class TestConstruction:
    def test_empty_graph(self):
        graph = LabeledMultigraph()
        assert graph.num_vertices == 0
        assert graph.num_edges == 0
        assert graph.num_labels == 0
        assert list(graph.edges()) == []

    def test_add_edge_creates_vertices(self):
        graph = LabeledMultigraph()
        graph.add_edge(1, "x", 2)
        assert graph.num_vertices == 2
        assert graph.has_vertex(1) and graph.has_vertex(2)

    def test_add_isolated_vertex(self):
        graph = LabeledMultigraph()
        graph.add_vertex(5)
        assert graph.num_vertices == 1
        assert graph.num_edges == 0
        assert 5 in graph

    def test_parallel_edges_with_distinct_labels_allowed(self):
        graph = build_small()
        assert graph.has_edge(0, "a", 1)
        assert graph.has_edge(0, "b", 1)
        assert graph.num_edges == 4

    def test_duplicate_labeled_edge_rejected(self):
        graph = build_small()
        with pytest.raises(GraphError):
            graph.add_edge(0, "a", 1)

    def test_add_edge_if_absent(self):
        graph = build_small()
        assert graph.add_edge_if_absent(0, "a", 1) is False
        assert graph.add_edge_if_absent(0, "c", 1) is True
        assert graph.num_edges == 5

    def test_non_string_label_rejected(self):
        graph = LabeledMultigraph()
        with pytest.raises(GraphError):
            graph.add_edge(0, 7, 1)

    def test_self_loop_allowed(self):
        graph = LabeledMultigraph()
        graph.add_edge(0, "a", 0)
        assert graph.has_edge(0, "a", 0)
        assert graph.num_vertices == 1


class TestAccessors:
    def test_targets_and_sources(self):
        graph = build_small()
        assert graph.targets(0, "a") == frozenset({1})
        assert graph.sources(1, "a") == frozenset({0})
        assert graph.targets(0, "missing") == frozenset()
        assert graph.sources(99, "a") == frozenset()

    def test_edges_with_label(self):
        graph = build_small()
        assert graph.edges_with_label("a") == frozenset({(0, 1), (1, 2)})
        assert graph.edges_with_label("nope") == frozenset()

    def test_label_count(self):
        graph = build_small()
        assert graph.label_count("a") == 2
        assert graph.label_count("b") == 1
        assert graph.label_count("nope") == 0

    def test_out_in_edges(self):
        graph = build_small()
        assert sorted(graph.out_edges(0)) == [("a", 1), ("b", 1)]
        assert sorted(graph.in_edges(1)) == [("a", 0), ("b", 0)]

    def test_out_map_is_label_indexed(self):
        graph = build_small()
        out = graph.out_map(0)
        assert set(out) == {"a", "b"}
        assert out["a"] == {1}
        assert graph.out_map(12345) == {}

    def test_degrees(self):
        graph = build_small()
        assert graph.out_degree(0) == 2
        assert graph.in_degree(0) == 1
        with pytest.raises(VertexNotFoundError):
            graph.out_degree(42)
        with pytest.raises(VertexNotFoundError):
            graph.in_degree(42)

    def test_average_degree_per_label(self):
        graph = build_small()
        # |E| / (|V| * |Sigma|) = 4 / (3 * 3)
        assert graph.average_degree_per_label() == pytest.approx(4 / 9)
        assert LabeledMultigraph().average_degree_per_label() == 0.0

    def test_len_and_contains(self):
        graph = build_small()
        assert len(graph) == 3
        assert 0 in graph and 99 not in graph


class TestDerivedGraphs:
    def test_reverse_flips_edges(self):
        graph = build_small()
        reversed_graph = graph.reverse()
        assert reversed_graph.has_edge(1, "a", 0)
        assert reversed_graph.has_edge(0, "c", 2)
        assert reversed_graph.num_edges == graph.num_edges
        assert reversed_graph.reverse() == graph

    def test_subgraph_keeps_internal_edges_only(self):
        graph = build_small()
        sub = graph.subgraph([0, 1])
        assert sub.num_vertices == 2
        assert set(sub.edges()) == {(0, "a", 1), (0, "b", 1)}

    def test_subgraph_with_unknown_vertex(self):
        graph = build_small()
        sub = graph.subgraph([0, 77])
        assert sub.num_vertices == 1
        assert sub.num_edges == 0

    def test_copy_is_independent(self):
        graph = build_small()
        duplicate = graph.copy()
        assert duplicate == graph
        duplicate.add_edge(5, "z", 6)
        assert duplicate != graph
        assert not graph.has_edge(5, "z", 6)

    def test_copy_keeps_the_id_space(self):
        # Mixed int/str vertices added out of order, one of them isolated,
        # and an edge removed after its endpoints were interned.
        graph = LabeledMultigraph.from_edges([("z", "a", 9), (3, "b", "3"), (9, "a", "m")])
        graph.add_vertex(-1)
        graph.remove_edge(9, "a", "m")
        duplicate = graph.copy()
        assert duplicate.interner.vertices() == ["z", 9, 3, "3", "m", -1]
        assert duplicate.interner.vertices() == graph.interner.vertices()
        assert duplicate.bit_rows("a") == graph.bit_rows("a")
        assert duplicate.rev_bit_rows("b") == graph.rev_bit_rows("b")

    def test_equality_against_other_types(self):
        assert LabeledMultigraph().__eq__(42) is NotImplemented


class TestIteration:
    def test_edges_roundtrip(self):
        graph = build_small()
        rebuilt = LabeledMultigraph.from_edges(graph.edges())
        assert rebuilt == graph

    def test_labels_iteration(self):
        graph = build_small()
        assert sorted(graph.labels()) == ["a", "b", "c"]

    def test_vertices_iteration(self):
        graph = build_small()
        assert sorted(graph.vertices()) == [0, 1, 2]
