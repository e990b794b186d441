"""The id-space graph document: round trips, malformed input, legacy files."""

import json

import pytest

from repro.errors import StorageError
from repro.graph.multigraph import LabeledMultigraph
from repro.storage.snapshot import (
    check_persistable_edge,
    graph_from_json,
    graph_to_json,
    read_snapshot,
    rows_from_json,
    rows_to_json,
    write_snapshot,
)


def graph_identity(left: LabeledMultigraph, right: LabeledMultigraph) -> None:
    """Edges and vertices (with exact types) and the id space must match."""
    assert left == right
    assert [(v, type(v)) for v in left.interner.vertices()] == [
        (v, type(v)) for v in right.interner.vertices()
    ]


def roundtrip(graph: LabeledMultigraph, tmp_path, lsn=7):
    entry = write_snapshot(graph, tmp_path, lsn)
    return entry, read_snapshot(tmp_path, entry)


class TestRoundTrip:
    def test_one_document_under_the_kept_name(self, tmp_path):
        graph = LabeledMultigraph.from_edges(
            [(0, "a", 1), (1, "b", 2), ("v", "a", 0)]
        )
        entry, restored = roundtrip(graph, tmp_path)
        assert entry == {"edges": "snapshot-7.edges"}
        assert [path.name for path in tmp_path.iterdir()] == ["snapshot-7.edges"]
        graph_identity(graph, restored)

    def test_int_lookalike_string_vertex_stays_a_string(self, tmp_path):
        # "123" (a string) and 123 (an int) are different vertices.
        graph = LabeledMultigraph.from_edges(
            [("123", "a", 123), (123, "a", 5)]
        )
        _entry, restored = roundtrip(graph, tmp_path)
        graph_identity(graph, restored)
        assert restored.has_edge("123", "a", 123)
        assert not restored.has_edge(123, "a", 123)

    def test_whitespace_labels_and_vertices(self, tmp_path):
        graph = LabeledMultigraph.from_edges(
            [("a b", "two words", "b"), ("b", "tab\there", "#c"), ("", "", "b")]
        )
        _entry, restored = roundtrip(graph, tmp_path)
        graph_identity(graph, restored)

    def test_isolated_vertices_ride_the_table(self, tmp_path):
        graph = LabeledMultigraph.from_edges([("a", "x", "b")])
        graph.add_vertex("lonely")
        graph.add_vertex(99)
        _entry, restored = roundtrip(graph, tmp_path)
        graph_identity(graph, restored)
        assert restored.has_vertex("lonely")
        assert restored.has_vertex(99)

    def test_ids_survive_removed_edges(self, tmp_path):
        graph = LabeledMultigraph.from_edges([(5, "a", 6), (7, "a", 5)])
        graph.remove_edge(7, "a", 5)
        _entry, restored = roundtrip(graph, tmp_path)
        graph_identity(graph, restored)
        assert restored.interner.id_of(7) == 2

    def test_empty_graph_round_trips(self, tmp_path):
        graph = LabeledMultigraph()
        graph.add_vertex("only")
        _entry, restored = roundtrip(graph, tmp_path)
        graph_identity(graph, restored)

    def test_rows_are_id_lists(self):
        graph = LabeledMultigraph.from_edges([("x", "a", "y"), ("x", "a", "z")])
        document = graph_to_json(graph)
        assert document["vertices"] == ["x", "y", "z"]
        assert document["rows"] == {"a": [[0, [1, 2]]]}
        assert rows_from_json(rows_to_json({0: 0b110}), 3) == {0: 0b110}


GOOD = {"format": "repro-graph", "version": 1, "vertices": ["a", 1], "rows": {"x": [[0, [1]]]}}

MALFORMED = {
    "wrong format": {**GOOD, "format": "repro-rtc"},
    "wrong version": {**GOOD, "version": 2},
    "not an object": [GOOD],
    "repeated vertex": {**GOOD, "vertices": ["a", "a"]},
    "bool vertex": {**GOOD, "vertices": ["a", True]},
    "float vertex": {**GOOD, "vertices": ["a", 1.0]},
    "null vertex": {**GOOD, "vertices": ["a", None]},
    "vertices not a list": {**GOOD, "vertices": {"a": 0}},
    "rows not an object": {**GOOD, "rows": [["x", [[0, [1]]]]]},
    "label rows not a list": {**GOOD, "rows": {"x": {"0": [1]}}},
    "row not a pair": {**GOOD, "rows": {"x": [[0, [1], 2]]}},
    "targets not a list": {**GOOD, "rows": {"x": [[0, 1]]}},
    "negative id": {**GOOD, "rows": {"x": [[0, [-1]]]}},
    "non-int id": {**GOOD, "rows": {"x": [["0", [1]]]}},
    "bool id": {**GOOD, "rows": {"x": [[0, [True]]]}},
    "float id": {**GOOD, "rows": {"x": [[0, [1.0]]]}},
    "id out of range": {**GOOD, "rows": {"x": [[0, [2]]]}},
    "source out of range": {**GOOD, "rows": {"x": [[2, [0]]]}},
    "repeated target": {**GOOD, "rows": {"x": [[0, [1, 1]]]}},
    "repeated source row": {**GOOD, "rows": {"x": [[0, [1]], [0, [0]]]}},
}


class TestMalformed:
    def test_the_good_document_decodes(self):
        graph = graph_from_json(GOOD)
        assert set(graph.edges()) == {("a", "x", 1)}

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_each_raises_storage_error(self, case):
        with pytest.raises(StorageError):
            graph_from_json(MALFORMED[case])

    @pytest.mark.parametrize("cut", [1, 10, 23, 40, -1])
    def test_truncated_file_raises(self, tmp_path, cut):
        text = json.dumps(GOOD, separators=(",", ":"))
        (tmp_path / "s.edges").write_text(text[:cut])
        with pytest.raises(StorageError):
            read_snapshot(tmp_path, {"edges": "s.edges"})


class TestLegacySnapshots:
    """Files written before the document format still load."""

    def test_json_triples_with_sidecars(self, tmp_path):
        (tmp_path / "s.edges").write_text('["123", "two words", 123]\n[123, "a", 5]\n')
        (tmp_path / "s.isolated.json").write_text('["lonely"]\n')
        (tmp_path / "s.interner.json").write_text('[5, 123, "123", "lonely"]\n')
        entry = {
            "edges": "s.edges",
            "edge_format": "json-triples",
            "isolated": "s.isolated.json",
            "interner": "s.interner.json",
        }
        graph = read_snapshot(tmp_path, entry)
        assert set(graph.edges()) == {("123", "two words", 123), (123, "a", 5)}
        assert graph.interner.vertices() == [5, 123, "123", "lonely"]

    def test_edge_list_without_sidecars(self, tmp_path):
        (tmp_path / "s.edges").write_text("0 a 1\n1 b x\n")
        graph = read_snapshot(tmp_path, {"edges": "s.edges", "edge_format": "edge-list"})
        assert set(graph.edges()) == {(0, "a", 1), (1, "b", "x")}

    def test_corrupt_legacy_file_raises(self, tmp_path):
        (tmp_path / "s.edges").write_text('["a", "x"]\n')
        with pytest.raises(StorageError, match="corrupt legacy"):
            read_snapshot(tmp_path, {"edges": "s.edges", "edge_format": "json-triples"})


class TestPersistability:
    def test_tuple_vertex_is_rejected_before_any_write(self, tmp_path):
        graph = LabeledMultigraph.from_edges([(("tu", "ple"), "a", "b")])
        with pytest.raises(StorageError, match="cannot be persisted"):
            write_snapshot(graph, tmp_path, 1)
        assert list(tmp_path.iterdir()) == []  # nothing written

    def test_bool_vertex_is_rejected(self):
        with pytest.raises(StorageError):
            check_persistable_edge(True, "a", "b")

    def test_non_string_label_is_rejected(self):
        with pytest.raises(StorageError, match="label"):
            check_persistable_edge("a", 7, "b")

    def test_missing_snapshot_file_raises(self, tmp_path):
        graph = LabeledMultigraph.from_edges([("a", "x", "b")])
        entry = write_snapshot(graph, tmp_path, 3)
        (tmp_path / entry["edges"]).unlink()
        with pytest.raises(StorageError, match="missing snapshot"):
            read_snapshot(tmp_path, entry)
