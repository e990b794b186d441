"""VertexInterner units: dense ids, stability, graph integration."""

import pytest

from repro.bitset import VertexInterner
from repro.graph.multigraph import LabeledMultigraph


class TestVertexInterner:
    def test_ids_are_dense_and_in_intern_order(self):
        interner = VertexInterner()
        assert [interner.intern(v) for v in ("c", "a", "b")] == [0, 1, 2]
        assert interner.intern("a") == 1  # idempotent
        assert len(interner) == 3
        assert list(interner.vertices()) == ["c", "a", "b"]

    def test_id_of_and_vertex_of_round_trip(self):
        interner = VertexInterner()
        for vertex in (0, "0", 7, "seven"):
            interner.intern(vertex)
        for vertex in (0, "0", 7, "seven"):
            assert interner.vertex_of(interner.id_of(vertex)) == vertex
        assert interner.id_of("absent") is None

    def test_int_and_str_lookalikes_are_distinct(self):
        interner = VertexInterner()
        assert interner.intern(1) != interner.intern("1")

    def test_from_support_keeps_the_ids_of_the_set_bits(self):
        interner = VertexInterner.from_support(0b101001, ["a", "b", "c"])
        assert [interner.id_of(v) for v in "abc"] == [0, 3, 5]
        assert interner.vertices_of(0b101000) == ("b", "c")
        assert interner.vertices() == ["a", None, None, "b", None, "c"]
        assert VertexInterner.from_support(0, []).vertices() == []
        for vertices in (["a", "b"], ["a", "b", "c", "d"], ["a", "b", "a"]):
            with pytest.raises(ValueError):
                VertexInterner.from_support(0b101001, vertices)

    def test_mask_of(self):
        interner = VertexInterner()
        interner.intern("a"), interner.intern("b"), interner.intern("c")
        assert interner.mask_of(["a", "c"]) == (1 << 0) | (1 << 2)


class TestGraphIntegration:
    def test_ids_stable_across_remove_and_re_add(self):
        graph = LabeledMultigraph()
        graph.add_edge("x", "a", "y")
        graph.add_edge("y", "a", "z")
        ids = {v: graph.interner.id_of(v) for v in ("x", "y", "z")}
        graph.remove_edge("x", "a", "y")
        graph.add_edge("x", "a", "y")
        graph.add_edge("w", "b", "x")
        for vertex, vertex_id in ids.items():
            assert graph.interner.id_of(vertex) == vertex_id
        # New vertices get fresh ids past the existing range.
        assert graph.interner.id_of("w") == len(ids)

    def test_bit_rows_track_add_and_remove(self):
        graph = LabeledMultigraph()
        graph.add_edge(0, "a", 1)
        graph.add_edge(0, "a", 2)
        id_of = graph.interner.id_of
        row = graph.bit_rows("a")[id_of(0)]
        assert row == (1 << id_of(1)) | (1 << id_of(2))
        graph.remove_edge(0, "a", 1)
        assert graph.bit_rows("a")[id_of(0)] == 1 << id_of(2)
        graph.remove_edge(0, "a", 2)
        assert id_of(0) not in graph.bit_rows("a")

    def test_rev_bit_rows_mirror_forward(self):
        graph = LabeledMultigraph()
        graph.add_edge("u", "a", "v")
        graph.add_edge("w", "a", "v")
        id_of = graph.interner.id_of
        assert graph.rev_bit_rows("a")[id_of("v")] == (
            (1 << id_of("u")) | (1 << id_of("w"))
        )

    def test_seed_interner_preassigns_ids(self):
        graph = LabeledMultigraph()
        graph.seed_interner(["n2", "n0", "n1"])
        graph.add_edge("n0", "a", "n1")
        assert graph.interner.id_of("n2") == 0
        assert graph.interner.id_of("n0") == 1
        assert graph.interner.id_of("n1") == 2
