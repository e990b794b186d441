"""Property-based tests for the graph store and SCC / transitive-closure invariants."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from strategies import LABELS, digraphs
from repro.bitset import PairBitmap, VertexInterner, bit_indexes
from repro.core.rtc import compute_rtc
from repro.errors import GraphError, VertexNotFoundError
from repro.graph.digraph import DiGraph
from repro.graph.multigraph import LabeledMultigraph
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


# -- the graph store against an independent model -----------------------
#
# The store is its id-space rows, and the tuple-set oracles read decoded
# views of those same rows, so a row-maintenance bug could hide from
# them.  The model here is a plain set of triples plus the vertex list
# in first-seen order (which is the id order the interner must keep).

_VERTICES = st.one_of(st.integers(0, 5), st.sampled_from(["u", "v", "0"]))
_LABELS = st.sampled_from(LABELS)
_OPERATIONS = st.one_of(
    st.tuples(st.just("add"), _VERTICES, _LABELS, _VERTICES),
    st.tuples(st.just("add_if_absent"), _VERTICES, _LABELS, _VERTICES),
    st.tuples(st.just("add_duplicate"), st.integers(0, 99)),
    st.tuples(st.just("remove"), st.integers(0, 99)),
    st.tuples(st.just("remove_absent"), _VERTICES, _LABELS, _VERTICES),
    st.tuples(st.just("add_vertex"), _VERTICES),
    st.tuples(st.just("bad_label"), _VERTICES, st.sampled_from([7, None, b"a"]), _VERTICES),
    st.tuples(st.just("read"), _VERTICES, _LABELS),
)


def _intern(order: list, *vertices) -> None:
    for vertex in vertices:
        if vertex not in order:
            order.append(vertex)


def _model_rows(model: set, order: list, forward: bool) -> dict:
    rows: dict = {}
    for source, label, target in model:
        row, bit = (source, target) if forward else (target, source)
        label_rows = rows.setdefault(label, {})
        key = order.index(row)
        label_rows[key] = label_rows.get(key, 0) | (1 << order.index(bit))
    return rows


def _assert_store_matches(graph: LabeledMultigraph, model: set, order: list) -> None:
    """Every accessor, both row maps and the counts equal the model.

    Each decoded view is read twice, so both the cold decode and the
    memoised answer are compared.
    """
    assert graph.interner.vertices() == order
    assert [graph.interner.id_of(vertex) for vertex in order] == list(range(len(order)))
    assert list(graph.vertices()) == order
    assert len(graph) == graph.num_vertices == len(order)
    assert set(graph.edges()) == model
    assert graph.num_edges == len(model)
    used = {label for _source, label, _target in model}
    assert set(graph.labels()) == used and graph.num_labels == len(used)
    for rows, forward in ((graph.bit_rows, True), (graph.rev_bit_rows, False)):
        expected = _model_rows(model, order, forward)
        for label in LABELS:
            assert rows(label) == expected.get(label, {})
    absent = "never-added"
    assert absent not in graph and not graph.has_vertex(absent)
    for vertex in (*order, absent):
        if vertex != absent:
            assert vertex in graph and graph.has_vertex(vertex)
            out_edges = sorted(((l, t) for s, l, t in model if s == vertex), key=repr)
            in_edges = sorted(((l, s) for s, l, t in model if t == vertex), key=repr)
            assert sorted(graph.out_edges(vertex), key=repr) == out_edges
            assert sorted(graph.in_edges(vertex), key=repr) == in_edges
            assert graph.out_degree(vertex) == len(out_edges)
            assert graph.in_degree(vertex) == len(in_edges)
        else:
            assert list(graph.out_edges(vertex)) == list(graph.in_edges(vertex)) == []
            with pytest.raises(VertexNotFoundError):
                graph.out_degree(vertex)
        for label in (*LABELS, "missing"):
            targets = {t for s, l, t in model if s == vertex and l == label}
            sources = {s for s, l, t in model if t == vertex and l == label}
            assert graph.targets(vertex, label) == targets == graph.targets(vertex, label)
            assert graph.sources(vertex, label) == sources == graph.sources(vertex, label)
            for target in (*order, absent):
                assert graph.has_edge(vertex, label, target) == (
                    (vertex, label, target) in model
                )
    for label in (*LABELS, "missing"):
        pairs = {(s, t) for s, l, t in model if l == label}
        assert graph.edges_with_label(label) == pairs == graph.edges_with_label(label)
        assert graph.label_count(label) == len(pairs)


@settings(max_examples=150, deadline=None)
@given(st.lists(_OPERATIONS, max_size=30))
@example([("add", 0, "a", 0), ("add", 0, "a", "u"), ("add", "u", "a", 0)])
def test_the_store_equals_an_edge_set_model(operations):
    graph = LabeledMultigraph()
    model: set = set()
    order: list = []
    for operation in operations:
        kind, *args = operation
        if kind in ("add", "add_if_absent"):
            edge = tuple(args)
            if kind == "add_if_absent":
                assert graph.add_edge_if_absent(*edge) is (edge not in model)
            elif edge in model:
                with pytest.raises(GraphError, match="duplicate"):
                    graph.add_edge(*edge)
            else:
                graph.add_edge(*edge)
            if edge not in model:
                _intern(order, edge[0], edge[2])
                model.add(edge)
        elif kind == "add_duplicate" and model:
            edge = sorted(model, key=repr)[args[0] % len(model)]
            with pytest.raises(GraphError, match="duplicate"):
                graph.add_edge(*edge)
            assert graph.add_edge_if_absent(*edge) is False
        elif kind == "remove" and model:
            edge = sorted(model, key=repr)[args[0] % len(model)]
            graph.remove_edge(*edge)
            model.remove(edge)
        elif kind == "remove_absent":
            edge = tuple(args)
            if edge in model:
                continue
            with pytest.raises(GraphError, match="not in the graph"):
                graph.remove_edge(*edge)
        elif kind == "add_vertex":
            graph.add_vertex(args[0])
            _intern(order, args[0])
        elif kind == "bad_label":
            with pytest.raises(GraphError, match="labels must be strings"):
                graph.add_edge(*args)
        elif kind == "read":
            graph.targets(*args)
            graph.sources(*args)
            graph.edges_with_label(args[1])
        _assert_store_matches(graph, model, order)
    duplicate = graph.copy()
    _assert_store_matches(duplicate, model, order)
    flipped = graph.reverse()
    assert set(flipped.edges()) == {(t, l, s) for s, l, t in model}
    assert flipped.bit_rows("a") == graph.rev_bit_rows("a")
