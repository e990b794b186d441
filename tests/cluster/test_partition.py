"""Partitioner tests: component integrity, balance, routing metadata."""

import pytest

from repro.cluster import (
    PARTITION_STRATEGIES,
    partition_graph,
    weakly_connected_components,
)
from repro.errors import ClusterError, GraphError
from repro.graph.builders import paper_figure1_graph
from repro.graph.multigraph import LabeledMultigraph


class TestComponents:
    def test_components_of_multi_fig1(self, multi_fig1):
        components = weakly_connected_components(multi_fig1)
        assert len(components) == 4
        assert sorted(len(component) for component in components) == [10] * 4

    def test_isolated_vertices_are_components(self):
        graph = LabeledMultigraph()
        graph.add_vertex("lonely")
        graph.add_edge("a", "x", "b")
        components = weakly_connected_components(graph)
        assert sorted(len(component) for component in components) == [1, 2]

    def test_direction_is_ignored(self):
        graph = LabeledMultigraph.from_edges([("a", "x", "b"), ("c", "x", "b")])
        assert len(weakly_connected_components(graph)) == 1


class TestPartitionGraph:
    def test_conserves_vertices_and_edges(self, multi_fig1):
        partition = partition_graph(multi_fig1, 4)
        assert sum(g.num_vertices for g in partition.shards) == (
            multi_fig1.num_vertices
        )
        assert sum(g.num_edges for g in partition.shards) == multi_fig1.num_edges
        all_edges = set()
        for shard in partition.shards:
            edges = set(shard.edges())
            assert not all_edges & edges, "an edge landed on two shards"
            all_edges |= edges
        assert all_edges == set(multi_fig1.edges())

    def test_components_stay_whole(self, multi_fig1):
        partition = partition_graph(multi_fig1, 4)
        for component in weakly_connected_components(multi_fig1):
            shards = {partition.shard_of(vertex) for vertex in component}
            assert len(shards) == 1

    def test_balance_four_equal_components(self, multi_fig1):
        partition = partition_graph(multi_fig1, 4)
        edges = [g.num_edges for g in partition.shards]
        assert edges == [16, 16, 16, 16]

    def test_more_shards_than_components(self, two_worlds):
        partition = partition_graph(two_worlds, 4)
        edges = sorted(g.num_edges for g in partition.shards)
        assert edges == [0, 0, 3, 3]

    def test_single_shard_is_the_whole_graph(self, multi_fig1):
        partition = partition_graph(multi_fig1, 1)
        assert partition.shards[0] == multi_fig1

    def test_deterministic_assignment(self, multi_fig1):
        first = partition_graph(multi_fig1, 4)
        second = partition_graph(multi_fig1, 4)
        for vertex in multi_fig1.vertices():
            assert first.shard_of(vertex) == second.shard_of(vertex)

    def test_invalid_shard_count(self, multi_fig1):
        with pytest.raises(ClusterError):
            partition_graph(multi_fig1, 0)


class TestRoutingMetadata:
    def test_shard_for_edge_within_one_shard(self, two_worlds):
        partition = partition_graph(two_worlds, 2)
        shard = partition.shard_of("a1")
        assert partition.shard_for_edge("a1", "a3") == shard

    def test_shard_for_edge_cross_shard_is_none(self, two_worlds):
        partition = partition_graph(two_worlds, 2)
        assert partition.shard_of("a1") != partition.shard_of("b1")
        # No single shard owns a cross-shard edge; edge_owners names both.
        assert partition.shard_for_edge("a1", "b1") is None
        assert partition.edge_owners("a1", "b1") == (
            partition.shard_of("a1"),
            partition.shard_of("b1"),
        )

    def test_new_vertices_resolve_and_assign(self, two_worlds):
        partition = partition_graph(two_worlds, 2)
        shard = partition.shard_of("a1")
        assert partition.shard_for_edge("a1", "brand-new") == shard
        assert partition.shard_for_edge("both", "new") is None
        assert partition.assign("both", 1) == 1
        assert partition.assign("both", 0) == 1, "first assignment wins"

    def test_stats_document(self, multi_fig1):
        stats = partition_graph(multi_fig1, 4).stats()
        assert stats["num_shards"] == 4
        assert stats["cut_edges"] == 0
        assert [shard["edges"] for shard in stats["shards"]] == [16] * 4


class TestEdgeCut:
    """``strategy="edge-cut"``: any partition, cuts recorded explicitly."""

    def test_strategies_are_published(self):
        assert set(PARTITION_STRATEGIES) == {"component", "edge-cut", "auto"}

    def test_conserves_vertices_and_edges_including_cuts(self):
        graph = paper_figure1_graph()  # one weakly-connected component
        partition = partition_graph(graph, 2, strategy="edge-cut")
        assert sum(g.num_vertices for g in partition.shards) == (
            graph.num_vertices
        )
        shard_edges = set()
        for shard in partition.shards:
            edges = set(shard.edges())
            assert not shard_edges & edges
            shard_edges |= edges
        cuts = partition.cut_relation()
        assert not shard_edges & cuts
        assert shard_edges | cuts == set(graph.edges())
        assert partition.has_cuts
        assert len(cuts) > 0

    def test_vertex_ranges_are_balanced(self):
        graph = paper_figure1_graph()
        partition = partition_graph(graph, 4, strategy="edge-cut")
        counts = sorted(g.num_vertices for g in partition.shards)
        assert max(counts) - min(counts) <= 1

    def test_cut_endpoints_live_on_distinct_shards(self):
        graph = paper_figure1_graph()
        partition = partition_graph(graph, 2, strategy="edge-cut")
        for source, _label, target in partition.cut_relation():
            assert partition.shard_of(source) != partition.shard_of(target)

    def test_deterministic(self):
        graph = paper_figure1_graph()
        first = partition_graph(graph, 3, strategy="edge-cut")
        second = partition_graph(graph, 3, strategy="edge-cut")
        for vertex in graph.vertices():
            assert first.shard_of(vertex) == second.shard_of(vertex)
        assert first.cut_relation() == second.cut_relation()

    def test_boundary_vertices_are_shard_owned_cut_endpoints(self):
        graph = paper_figure1_graph()
        partition = partition_graph(graph, 2, strategy="edge-cut")
        for shard in range(2):
            boundary = partition.boundary_vertices(shard)
            assert all(partition.shard_of(v) == shard for v in boundary)
            expected = {
                vertex
                for source, _label, target in partition.cut_relation()
                for vertex in (source, target)
                if partition.shard_of(vertex) == shard
            }
            assert boundary == expected

    def test_record_and_discard_cut(self, two_worlds):
        partition = partition_graph(two_worlds, 2)
        assert not partition.has_cuts
        partition.record_cut("a1", "x", "b1")
        assert partition.has_cut("a1", "x", "b1")
        with pytest.raises(GraphError, match="duplicate cross-shard"):
            partition.record_cut("a1", "x", "b1")
        assert partition.discard_cut("a1", "x", "b1")
        assert not partition.discard_cut("a1", "x", "b1")
        assert not partition.has_cuts

    def test_stats_count_cuts_and_boundaries(self):
        graph = paper_figure1_graph()
        partition = partition_graph(graph, 2, strategy="edge-cut")
        stats = partition.stats()
        assert stats["cut_edges"] == len(partition.cut_relation())
        for index, shard in enumerate(stats["shards"]):
            assert shard["boundary"] == len(partition.boundary_vertices(index))

    def test_auto_picks_component_when_balanced(self, multi_fig1):
        partition = partition_graph(multi_fig1, 4, strategy="auto")
        assert not partition.has_cuts

    def test_auto_picks_edge_cut_for_a_giant_component(self):
        partition = partition_graph(paper_figure1_graph(), 2, strategy="auto")
        assert partition.has_cuts  # one component would pin shard 1 empty

    def test_underscores_accepted_in_strategy_name(self):
        partition = partition_graph(paper_figure1_graph(), 2, strategy="edge_cut")
        assert partition.has_cuts

    def test_unknown_strategy_raises(self, multi_fig1):
        with pytest.raises(ClusterError, match="unknown partition strategy") as info:
            partition_graph(multi_fig1, 2, strategy="metis")
        assert info.value.code == "cluster.unsupported"


class TestPinnedAssignments:
    """Both partitioners on one fixed R-MAT graph, pinned vertex by vertex.

    Five 16-vertex R-MAT blocks (25 weakly-connected components with the
    isolated vertices) on three shards: the component packer's weight
    and tie-break order and the edge-cut BFS order all show in the maps.
    A change to how the partitioner reads the graph must reproduce them.
    """

    # shard_of(v) for v = 0 .. 79, one digit each
    COMPONENT = (
        "11111112111112222222222222222222000200020000000200000020020200221111121112112122"
    )
    EDGE_CUT = (
        "00000002000000000000001100010001111111111111111112111121221222222222222222222222"
    )
    CUTS = {
        (49, "l0", 50),
        (49, "l0", 52),
        (49, "l0", 55),
        (50, "l1", 56),
        (56, "l2", 50),
        (58, "l1", 60),
        (61, "l2", 51),
    }

    @pytest.fixture(scope="class")
    def graph(self):
        from repro.datasets.rmat import rmat_component_graph

        return rmat_component_graph(5, scale=4, edges_per_component=20, seed=2)

    @pytest.mark.parametrize("strategy", ["component", "edge-cut"])
    def test_assignment_and_cuts_are_pinned(self, graph, strategy):
        partition = partition_graph(graph, 3, strategy=strategy)
        expected = self.COMPONENT if strategy == "component" else self.EDGE_CUT
        assert graph.num_vertices == len(expected)
        assert "".join(str(partition.shard_of(v)) for v in range(len(expected))) == (
            expected
        )
        assert set(partition.cut_relation()) == (
            self.CUTS if strategy == "edge-cut" else set()
        )
        assert len(weakly_connected_components(graph)) == 25
