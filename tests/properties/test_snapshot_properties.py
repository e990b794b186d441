"""Round-trip property of the id-space graph document.

Any int/str graph -- int-lookalike string vertices beside their ints,
labels and vertices with whitespace, isolated vertices, ids interned out
of order and edges removed after their endpoints were interned -- goes
``write_snapshot`` -> disk -> ``read_snapshot`` (and ``graph_to_json`` ->
JSON text -> ``graph_from_json``) and comes back equal, in the same id
space.
"""

import json
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import labeled_graphs
from repro.graph.multigraph import LabeledMultigraph
from repro.storage.snapshot import graph_from_json, graph_to_json, read_snapshot, write_snapshot

#: How a drawn int vertex ``v`` is spelled in the graph under test.
SPELLINGS = (
    lambda v: v,
    lambda v: str(v),  # "3" beside 3
    lambda v: f" v{v}\t",
    lambda v: -v - 1,
)
LABEL_SPELLINGS = ("a", "two words", "tab\there", "", "#c", "123")


@st.composite
def persistable_graphs(draw) -> LabeledMultigraph:
    base = draw(labeled_graphs(max_vertices=10, max_edges=25))
    spell = draw(st.lists(st.sampled_from(SPELLINGS), min_size=10, max_size=10))
    labels = dict(zip("abc", draw(st.permutations(LABEL_SPELLINGS))))
    name = {vertex: spell[vertex](vertex) for vertex in base.vertices()}
    graph = LabeledMultigraph()
    graph.seed_interner(draw(st.permutations([name[v] for v in base.vertices()])))
    for extra in draw(st.lists(st.integers(100, 110), unique=True, max_size=3)):
        graph.add_vertex(str(extra) if extra % 2 else extra)
    edges = [(name[s], labels[label], name[t]) for s, label, t in base.edges()]
    graph.add_edges(edges)
    removed = st.lists(st.sampled_from(edges), unique=True) if edges else st.just([])
    for source, label, target in draw(removed):
        graph.remove_edge(source, label, target)
    return graph


def typed_table(graph: LabeledMultigraph) -> list:
    return [(vertex, type(vertex)) for vertex in graph.interner.vertices()]


def same_graph(restored: LabeledMultigraph, graph: LabeledMultigraph) -> None:
    assert restored == graph
    assert typed_table(restored) == typed_table(graph)


@settings(max_examples=150, deadline=None)
@given(persistable_graphs())
def test_document_round_trips(graph):
    text = json.dumps(graph_to_json(graph))
    same_graph(graph_from_json(json.loads(text)), graph)


@settings(max_examples=40, deadline=None)
@given(persistable_graphs(), st.integers(0, 2**40))
def test_snapshot_file_round_trips(graph, lsn):
    with tempfile.TemporaryDirectory() as directory:
        entry = write_snapshot(graph, directory, lsn)
        same_graph(read_snapshot(directory, entry), graph)
