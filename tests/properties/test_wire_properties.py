"""Round-trip property of the packed wire encoding.

An engine's ``PairBitmap`` goes ``pairs_to_wire`` -> JSON ->
``wire_to_pairs`` and comes back as the same relation -- the one a
tuple-set input of the same pairs encodes to -- for int and string
vertices and for the empty answer, and one relation over one vertex
table is one byte string.  ``wire_floor`` never claims more bytes than
the encoded response line holds, in any encoding, on bitmaps whose rows
repeat as closure answers' do.
"""

import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import labeled_graphs, regexes
from repro.bitset import PairBitmap, VertexInterner
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


@st.composite
def repeated_row_bitmaps(draw) -> PairBitmap:
    """Bitmaps whose starts share a few rows (the shape Theorem 1 gives
    closure answers), over int or string vertices of any length, an
    empty row now and then."""
    size = draw(st.integers(1, 70))
    names = draw(st.sampled_from([range(size), [f"v{'x' * (i % 7)}{i}" for i in range(size)]]))
    rows = draw(st.lists(st.integers(0, (1 << size) - 1), min_size=1, max_size=4))
    starts = draw(st.sets(st.integers(0, size - 1), max_size=size))
    return PairBitmap(
        {start: draw(st.sampled_from(rows)) for start in starts},
        VertexInterner(names),
    )


@settings(max_examples=150, deadline=None)
@given(repeated_row_bitmaps(), st.sampled_from([None, "packed", "list"]), st.booleans())
def test_the_floor_bounds_the_encoded_line(bitmap, enc, as_set):
    pairs = bitmap.to_pairs() if as_set else bitmap
    wire = protocol.pairs_to_wire(pairs, enc)
    line = protocol.encode(
        protocol.ok_response(
            1, results=[{"query": "q", "count": len(pairs), "time": 0.0, "pairs": wire}]
        )
    )
    form, floor = protocol.wire_encoding(pairs, enc)
    assert protocol.wire_floor(pairs, enc) == floor <= len(line)
    assert ("list" if isinstance(wire, list) else "packed") == form
    decoded = protocol.wire_to_pairs(json.loads(line)["results"][0]["pairs"])
    assert decoded == bitmap.to_pairs()
    if form == "packed":
        # Each distinct row goes on the line once.
        assert len(wire["rows"]) == len({mask for mask in bitmap.rows.values() if mask})
