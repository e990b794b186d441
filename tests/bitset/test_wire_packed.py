"""Packed wire encoding: hex bitmaps round-trip to exact pair sets."""

import json

from repro.server import protocol


PAIRS = {
    (0, 1),
    (0, 17),
    ("ann", "bob"),
    ("bob", 0),
    ("1", 1),  # int/str lookalikes must stay distinct
}

class TestPairsRoundTrip:
    def test_list_encoding_is_unchanged(self):
        wire = protocol.pairs_to_wire(PAIRS, enc="list")
        assert isinstance(wire, list)
        assert sorted(map(str, wire)) == sorted(str(list(pair)) for pair in PAIRS)
        assert protocol.wire_to_pairs(wire) == PAIRS

    def test_packed_is_the_default(self):
        assert protocol.pairs_to_wire(PAIRS) == protocol.pairs_to_wire(
            PAIRS, enc="packed"
        )

    def test_packed_encoding_round_trips(self):
        wire = protocol.pairs_to_wire(PAIRS, enc="packed")
        assert wire["enc"] == "packed"
        assert protocol.wire_to_pairs(wire) == PAIRS

    def test_packed_survives_json(self):
        wire = json.loads(json.dumps(protocol.pairs_to_wire(PAIRS, enc="packed")))
        assert protocol.wire_to_pairs(wire) == PAIRS

    def test_packed_empty_relation(self):
        wire = protocol.pairs_to_wire(set(), enc="packed")
        assert protocol.wire_to_pairs(wire) == set()

    def test_packed_is_deterministic(self):
        one = protocol.pairs_to_wire(PAIRS, enc="packed")
        two = protocol.pairs_to_wire(set(PAIRS), enc="packed")
        assert one == two

    def test_packed_is_smaller_on_dense_relations(self):
        pairs = {(s, t) for s in range(40) for t in range(40) if (s + t) % 2}
        as_list = len(json.dumps(protocol.pairs_to_wire(pairs, enc="list")))
        as_packed = len(json.dumps(protocol.pairs_to_wire(pairs, enc="packed")))
        assert as_packed * 5 < as_list


class TestInternerTable:
    def test_vertex_table_is_self_describing(self):
        """The payload carries its own id table: ids are payload-local."""
        wire = protocol.pairs_to_wire({("x", "y")}, enc="packed")
        assert set(wire["vertices"]) == {"x", "y"}
        other = protocol.pairs_to_wire({("y", "x")}, enc="packed")
        # Same vertices, independently assigned ids -- decoding needs no
        # shared state between payloads.
        assert protocol.wire_to_pairs(other) == {("y", "x")}
