"""Round-trip property of the packed wire encoding.

An engine's ``PairBitmap`` goes ``pairs_to_wire`` -> JSON ->
``wire_to_pairs`` and comes back as the same relation -- the one a
tuple-set input of the same pairs encodes to -- for int and string
vertices and for the empty answer, and one relation over one vertex
table is one byte string.
"""

import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import labeled_graphs, regexes
from repro.bitset import PairBitmap
from repro.core.engines import RTCSharingEngine
from repro.graph.multigraph import LabeledMultigraph
from repro.regex.parser import parse
from repro.server import protocol


def through_json(pairs) -> tuple[str, PairBitmap]:
    line = json.dumps(protocol.pairs_to_wire(pairs))
    return line, protocol.wire_to_pairs(json.loads(line))


def renamed(graph: LabeledMultigraph) -> LabeledMultigraph:
    """The same graph over string vertices (``"10"`` sorts before ``"9"``)."""
    out = LabeledMultigraph()
    for vertex in graph.vertices():
        out.add_vertex(str(vertex))
    out.add_edges((str(s), label, str(t)) for s, label, t in graph.edges())
    return out


@settings(max_examples=60, deadline=None)
@given(labeled_graphs(max_vertices=12), regexes(), st.booleans(), st.randoms())
def test_engine_bitmap_round_trips(graph, node, strings, rng):
    if strings:
        graph = renamed(graph)
    bitmap = RTCSharingEngine(graph).evaluate(node)
    assert isinstance(bitmap, PairBitmap)
    pairs = bitmap.to_pairs()

    line, decoded = through_json(bitmap)
    assert decoded == pairs
    assert decoded.count() == len(pairs)
    # The table names the answer's support, not the graph.
    support = {vertex for pair in pairs for vertex in pair}
    assert set(json.loads(line)["vertices"]) == support

    set_line, from_set = through_json(pairs)
    assert from_set == pairs == decoded.to_pairs()

    # Same relation, same table -> same bytes, whatever order it arrives in.
    again = RTCSharingEngine(graph).evaluate(node)
    again.rows = dict(sorted(again.rows.items(), key=lambda _: rng.random()))
    assert through_json(again)[0] == line
    shuffled = list(pairs)
    rng.shuffle(shuffled)
    assert through_json(set(shuffled))[0] == set_line


def test_empty_answer_round_trips():
    graph = LabeledMultigraph.from_edges([(0, "a", 1)])
    bitmap = RTCSharingEngine(graph).evaluate(parse("b"))
    line, decoded = through_json(bitmap)
    assert decoded == set() and decoded.count() == 0 and not decoded
    assert json.loads(line)["vertices"] == [] and json.loads(line)["rows"] == {}
    assert through_json(set())[0] == line


def test_mixed_int_and_string_lookalikes_stay_distinct():
    pairs = {(1, "1"), ("1", 1), (1, 1)}
    first, decoded = through_json(pairs)
    assert decoded == pairs
    for seed in range(5):
        shuffled = list(pairs)
        random.Random(seed).shuffle(shuffled)
        assert through_json(set(shuffled))[0] == first
