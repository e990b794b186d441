"""Tests for the RTC repair under edge insertions (standalone handles)."""

import random

import pytest

from repro.core.incremental import IncrementalRTC
from repro.core.rtc import compute_rtc
from repro.errors import GraphError
from repro.graph.multigraph import LabeledMultigraph
from repro.rpq.evaluate import eval_rpq


def from_scratch(graph, body):
    """The batch pipeline the incremental structure must always equal."""
    rg = eval_rpq(graph, body)
    if _nullable(body):
        rg = rg | {(v, v) for v in graph.vertices()}
    return compute_rtc(rg)


def _nullable(body):
    from repro.regex.nfa import compile_nfa
    from repro.regex.parser import parse

    return compile_nfa(parse(body)).nullable


def assert_equal_state(incremental: IncrementalRTC, body: str):
    expected = from_scratch(incremental.graph, body)
    assert incremental.plus_pairs() == expected.expand()
    snapshot = incremental.snapshot()
    assert snapshot.expand() == expected.expand()


class TestBasics:
    def test_initial_state_matches_batch(self, fig1):
        incremental = IncrementalRTC(fig1, "b.c")
        assert incremental.plus_pairs() == eval_rpq(fig1, "(b.c)+")

    def test_acyclic_insertion(self):
        graph = LabeledMultigraph.from_edges([(0, "a", 1)])
        incremental = IncrementalRTC(graph, "a")
        incremental.add_edge(1, "a", 2)
        assert incremental.plus_pairs() == {(0, 1), (1, 2), (0, 2)}
        assert incremental.full_rebuilds == 0
        assert incremental.incremental_updates > 0

    def test_cycle_insertion_is_a_row_repair(self):
        # Merging SCCs needs no fallback: the rows are repaired and the
        # condensation is recomputed from them.
        graph = LabeledMultigraph.from_edges([(0, "a", 1), (1, "a", 2)])
        incremental = IncrementalRTC(graph, "a")
        incremental.add_edge(2, "a", 0)  # closes the 3-cycle
        assert incremental.reaches(0, 0)
        assert (incremental.full_rebuilds, incremental.incremental_updates) == (0, 1)
        assert_equal_state(incremental, "a")

    def test_self_loop_insertion(self):
        graph = LabeledMultigraph.from_edges([(0, "a", 1)])
        incremental = IncrementalRTC(graph, "a")
        incremental.add_edge(1, "a", 1)
        assert incremental.reaches(1, 1)
        assert not incremental.reaches(0, 0)
        assert_equal_state(incremental, "a")

    def test_new_vertices_appear(self):
        graph = LabeledMultigraph.from_edges([(0, "a", 1)])
        incremental = IncrementalRTC(graph, "a")
        incremental.add_edge(5, "a", 6)
        assert incremental.reaches(5, 6)
        assert_equal_state(incremental, "a")

    def test_irrelevant_label_is_noop(self, fig1):
        incremental = IncrementalRTC(fig1, "b.c")
        before = incremental.plus_pairs()
        incremental.add_edge(0, "zz", 9)
        assert incremental.plus_pairs() == before

    def test_duplicate_edge_raises_and_preserves_state(self):
        graph = LabeledMultigraph.from_edges([(0, "a", 1)])
        incremental = IncrementalRTC(graph, "a")
        before = incremental.plus_pairs()
        with pytest.raises(GraphError):
            incremental.add_edge(0, "a", 1)
        assert incremental.plus_pairs() == before


class TestMultiLabelBodies:
    def test_concatenation_body(self, fig1):
        incremental = IncrementalRTC(fig1, "b.c")
        # New edge v3 -c-> v7 creates the b.c path (v2, v7) via v2-b->v3.
        incremental.add_edge(3, "c", 7)
        assert_equal_state(incremental, "b.c")
        assert incremental.reaches(2, 7)

    def test_mid_path_edge(self, fig1):
        incremental = IncrementalRTC(fig1, "b.c.c")
        incremental.add_edge(9, "b", 1)  # b then c.c: 9 -> 5 etc.
        assert_equal_state(incremental, "b.c.c")

    def test_union_body(self, fig1):
        incremental = IncrementalRTC(fig1, "b|e")
        incremental.add_edge(4, "e", 0)
        assert_equal_state(incremental, "b|e")

    def test_nullable_body(self):
        graph = LabeledMultigraph.from_edges([(0, "a", 1)])
        incremental = IncrementalRTC(graph, "a?")
        incremental.add_edge(2, "a", 3)
        # a? is nullable: every vertex must reach itself in (a?)+.
        for vertex in (0, 1, 2, 3):
            assert incremental.reaches(vertex, vertex)
        assert_equal_state(incremental, "a?")


class TestRandomisedAgainstBatch:
    @pytest.mark.parametrize("seed", range(6))
    def test_insertion_sequences(self, seed):
        rng = random.Random(seed)
        graph = LabeledMultigraph()
        size = rng.randint(3, 8)
        for vertex in range(size):
            graph.add_vertex(vertex)
        body = rng.choice(["a", "a.b", "a|b"])
        incremental = IncrementalRTC(graph, body)
        for _step in range(18):
            source = rng.randrange(size)
            target = rng.randrange(size)
            label = rng.choice("ab")
            if graph.has_edge(source, label, target):
                continue
            incremental.add_edge(source, label, target)
            assert_equal_state(incremental, body)

    def test_one_label_body_is_always_row_repaired(self):
        # A one-label body's start set is the edge's source alone, which
        # never outnumbers a non-empty G_R: no whole re-evaluation.
        rng = random.Random(4)
        graph = LabeledMultigraph.from_edges([(0, "a", 1)])
        for vertex in range(12):
            graph.add_vertex(vertex)
        incremental = IncrementalRTC(graph, "a")
        steps = 0
        for _step in range(25):
            source, target = rng.randrange(12), rng.randrange(12)
            if not graph.has_edge(source, "a", target):
                incremental.add_edge(source, "a", target)
                steps += 1
        assert (incremental.full_rebuilds, incremental.incremental_updates) == (0, steps)
        assert_equal_state(incremental, "a")
