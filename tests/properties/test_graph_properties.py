"""Property-based tests for SCC / transitive-closure invariants."""

from hypothesis import example, given, settings

from strategies import digraphs
from repro.bitset import PairBitmap, VertexInterner, bit_indexes
from repro.core.rtc import compute_rtc
from repro.graph.digraph import DiGraph
from repro.graph.scc import condense, kosaraju_scc, tarjan_scc
from repro.graph.transitive_closure import (
    scc_closure,
    tc_bfs,
    tc_nuutila,
    tc_purdom,
    tc_warshall,
)


def normalised(components):
    return sorted(tuple(sorted(component)) for component in components)


@settings(max_examples=60, deadline=None)
@given(digraphs())
def test_tarjan_equals_kosaraju(graph):
    assert normalised(tarjan_scc(graph)) == normalised(kosaraju_scc(graph))


@settings(max_examples=40, deadline=None)
@given(digraphs())
def test_scc_against_networkx(graph):
    import networkx as nx

    nx_graph = nx.DiGraph()
    nx_graph.add_nodes_from(graph.vertices())
    nx_graph.add_edges_from(graph.edges())
    expected = sorted(
        tuple(sorted(component))
        for component in nx.strongly_connected_components(nx_graph)
    )
    assert normalised(tarjan_scc(graph)) == expected


@settings(max_examples=40, deadline=None)
@given(digraphs())
def test_closure_algorithms_agree(graph):
    reference = tc_bfs(graph)
    assert tc_warshall(graph) == reference
    assert tc_purdom(graph) == reference
    assert tc_nuutila(graph) == reference


@settings(max_examples=40, deadline=None)
@given(digraphs())
def test_closure_contains_edges_and_is_transitive(graph):
    closure = tc_purdom(graph)
    assert set(graph.edges()) <= closure
    by_source: dict = {}
    for source, target in closure:
        by_source.setdefault(source, set()).add(target)
    for source, target in closure:
        for onward in by_source.get(target, ()):
            assert (source, onward) in closure


@settings(max_examples=40, deadline=None)
@given(digraphs())
def test_rtc_expansion_matches_bfs_closure(graph):
    rtc = compute_rtc(graph)
    assert rtc.expand() == tc_bfs(graph)
    assert rtc.num_expanded_pairs == len(tc_bfs(graph))


def _named_closure(members_of, closure_of) -> dict:
    """SCC closure keyed by member sets, so differently numbered SCCs compare."""
    return {
        members_of(scc_id): {members_of(target_id) for target_id in targets}
        for scc_id, targets in closure_of.items()
    }


def _with_every_shape() -> DiGraph:
    # A self-loop (0), a cycle (1, 2), a sink whose row is empty (3) and
    # an isolated vertex (4).
    graph = DiGraph.from_pairs([(0, 0), (0, 1), (1, 2), (2, 1), (2, 3)])
    graph.add_vertex(4)
    return graph


@settings(max_examples=60, deadline=None)
@given(digraphs())
@example(_with_every_shape())
def test_rtc_id_space_matches_the_reference_algorithms(graph):
    """Both inputs of compute_rtc build the same id-space state: the SCC
    partition of condense(), the closure of scc_closure() and, per
    vertex, the reach row of tc_bfs()."""
    # R_G as rows has no isolated vertices: V_R is the edges' endpoints.
    edge_graph = DiGraph.from_pairs(graph.edges())
    from_rows = compute_rtc(
        PairBitmap.from_pairs(graph.edges(), VertexInterner(graph.vertices()))
    )
    from_graph = compute_rtc(graph)
    closure = tc_bfs(graph)
    for rtc, reference in ((from_rows, edge_graph), (from_graph, graph)):
        interner = rtc.interner

        def members_of(scc_id, rtc=rtc):
            return frozenset(interner.vertices_of(rtc.member_masks[scc_id]))

        condensation = condense(reference)
        assert {members_of(s) for s in range(rtc.num_sccs)} == {
            frozenset(members) for members in condensation.members.values()
        }
        assert interner.vertices_of(rtc.vertex_mask) == tuple(
            sorted(reference.vertices(), key=interner.id_of)
        )
        assert _named_closure(
            members_of,
            {s: bit_indexes(mask) for s, mask in enumerate(rtc.closure_masks)},
        ) == _named_closure(
            lambda s: frozenset(condensation.members[s]), scc_closure(condensation)
        )
        for vertex in graph.vertices():
            scc_id = rtc.scc_id_of(vertex)
            row = 0 if scc_id is None else rtc.reach(scc_id)
            assert set(interner.vertices_of(row)) == {
                target for source, target in closure if source == vertex
            }
    assert from_rows.num_pairs == from_graph.num_pairs
    assert from_rows.num_expanded_pairs == from_graph.num_expanded_pairs == len(closure)


@settings(max_examples=40, deadline=None)
@given(digraphs())
def test_rtc_is_never_larger_than_closure(graph):
    rtc = compute_rtc(graph)
    assert rtc.num_pairs <= max(1, rtc.num_expanded_pairs) or rtc.num_pairs == 0
    assert rtc.num_sccs <= graph.num_vertices


@settings(max_examples=40, deadline=None)
@given(digraphs())
def test_condensation_partitions_vertices(graph):
    condensation = condense(graph)
    seen: set = set()
    for members in condensation.members.values():
        for vertex in members:
            assert vertex not in seen
            seen.add(vertex)
    assert seen == set(graph.vertices())


@settings(max_examples=40, deadline=None)
@given(digraphs())
def test_condensation_edges_point_to_lower_ids(graph):
    condensation = condense(graph)
    for source, target in condensation.dag.edges():
        if source != target:
            assert target < source
