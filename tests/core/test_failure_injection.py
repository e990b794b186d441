"""Failure injection and hostile-input tests across the core surface.

Exercises the library's behaviour on degenerate graphs, malformed and
adversarial queries, and boundary conditions that real users hit first:
empty graphs, isolated vertices, queries over missing labels, deeply
nested closures, epsilon-heavy expressions and DNF blow-ups.
"""

import pytest

from repro.core.engines import FullSharingEngine, NoSharingEngine, RTCSharingEngine
from repro.core.plan import Plan
from repro.errors import EvaluationError, RPQSyntaxError
from repro.graph.multigraph import LabeledMultigraph
from repro.regex.parser import parse
from repro.rpq.label_join import eval_label_sequence
from repro.rpq.restricted import as_label_sequence

ENGINES = [NoSharingEngine, FullSharingEngine, RTCSharingEngine]


def empty_graph() -> LabeledMultigraph:
    return LabeledMultigraph()


def isolated_graph() -> LabeledMultigraph:
    graph = LabeledMultigraph()
    for vertex in range(5):
        graph.add_vertex(vertex)
    return graph


@pytest.mark.parametrize("engine_class", ENGINES)
class TestDegenerateGraphs:
    def test_empty_graph_label_query(self, engine_class):
        assert engine_class(empty_graph()).evaluate("a") == set()

    def test_empty_graph_closure_query(self, engine_class):
        assert engine_class(empty_graph()).evaluate("a.(b)+.c") == set()

    def test_empty_graph_epsilon(self, engine_class):
        assert engine_class(empty_graph()).evaluate("()") == set()

    def test_empty_graph_star(self, engine_class):
        # R* on an empty graph: no vertices, so no reflexive pairs either.
        assert engine_class(empty_graph()).evaluate("(a)*") == set()

    def test_isolated_vertices_epsilon(self, engine_class):
        result = engine_class(isolated_graph()).evaluate("()")
        assert result == {(v, v) for v in range(5)}

    def test_isolated_vertices_star(self, engine_class):
        result = engine_class(isolated_graph()).evaluate("(a)*")
        assert result == {(v, v) for v in range(5)}

    def test_isolated_vertices_plus(self, engine_class):
        assert engine_class(isolated_graph()).evaluate("(a)+") == set()

    def test_self_loop_only_graph(self, engine_class):
        graph = LabeledMultigraph.from_edges([(0, "a", 0)])
        assert engine_class(graph).evaluate("a+") == {(0, 0)}
        assert engine_class(graph).evaluate("a.a.a") == {(0, 0)}


@pytest.mark.parametrize("engine_class", ENGINES)
class TestHostileQueries:
    def test_unknown_labels_everywhere(self, engine_class, fig1):
        assert engine_class(fig1).evaluate("x.(y)+.z") == set()

    def test_unknown_label_in_pre_only(self, engine_class, fig1):
        assert engine_class(fig1).evaluate("x.(b.c)+") == set()

    def test_unknown_label_in_post_only(self, engine_class, fig1):
        assert engine_class(fig1).evaluate("d.(b.c)+.x") == set()

    def test_epsilon_closure_body(self, engine_class, fig1):
        # (())+ is epsilon; a . (())+ . c == a.c.
        assert engine_class(fig1).evaluate("a.(())+.c") == engine_class(
            fig1
        ).evaluate("a.c")

    def test_deeply_nested_closures(self, engine_class, fig1):
        assert engine_class(fig1).evaluate("(((b.c)+)+)+") == engine_class(
            fig1
        ).evaluate("(b.c)+")

    def test_star_of_star(self, engine_class, fig1):
        assert engine_class(fig1).evaluate("((b.c)*)*") == engine_class(
            fig1
        ).evaluate("(b.c)*")

    def test_optional_stack(self, engine_class, fig1):
        assert engine_class(fig1).evaluate("b???") == engine_class(fig1).evaluate(
            "b?"
        )

    def test_malformed_query_raises(self, engine_class, fig1):
        with pytest.raises(RPQSyntaxError):
            engine_class(fig1).evaluate("(a|b")


class TestDnfBlowupGuard:
    def test_engine_honours_max_clauses(self, fig1):
        wide = ".".join(["(a|b)"] * 13)  # 8192 clauses > default 4096
        engine = RTCSharingEngine(fig1)
        with pytest.raises(EvaluationError, match="exceeds"):
            engine.evaluate(wide)

    def test_raising_the_limit_unblocks(self, fig1):
        # The bound is a planning argument: a plan asked for more clauses
        # decomposes the query, and its clauses together answer it.
        wide = ".".join(["(a|b)"] * 13)
        units = Plan(parse(wide)).units(max_clauses=10_000)
        assert len(units) == 8192
        pairs = set()
        for step in units:
            pairs |= eval_label_sequence(fig1, as_label_sequence(step.unit.post))
        assert pairs == set(NoSharingEngine(fig1).evaluate(wide))


class TestVertexTypeRobustness:
    def test_string_vertices(self):
        graph = LabeledMultigraph.from_edges(
            [("a-node", "knows", "b-node"), ("b-node", "knows", "a-node")]
        )
        for engine_class in ENGINES:
            result = engine_class(graph).evaluate("knows+")
            assert ("a-node", "a-node") in result

    def test_mixed_vertex_types(self):
        graph = LabeledMultigraph.from_edges([(1, "a", "x"), ("x", "a", 2)])
        for engine_class in ENGINES:
            assert engine_class(graph).evaluate("a.a") == {(1, 2)}

    def test_tuple_vertices(self):
        graph = LabeledMultigraph.from_edges(
            [((0, 0), "go", (0, 1)), ((0, 1), "go", (1, 1))]
        )
        result = RTCSharingEngine(graph).evaluate("go+")
        assert ((0, 0), (1, 1)) in result
