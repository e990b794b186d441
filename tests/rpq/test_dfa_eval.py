"""Tests for the DFA-based evaluation variant."""

import pytest

from dfa_eval import eval_dfa_from, eval_rpq_dfa
from repro.regex.dfa import determinize
from repro.regex.nfa import compile_nfa
from repro.regex.parser import parse
from repro.rpq.counters import OpCounters
from repro.rpq.evaluate import eval_rpq

QUERIES = [
    "a",
    "b.c",
    "d.(b.c)+.c",
    "(b.c)*",
    "(b|c)+",
    "a?.(b.c)+",
    "c*.b",
    "()",
    "zz",
]


class TestAgreementWithNfa:
    @pytest.mark.parametrize("query", QUERIES)
    def test_fig1(self, fig1, query):
        assert eval_rpq_dfa(fig1, query) == eval_rpq(fig1, query), query

    @pytest.mark.parametrize("query", ["a+", "(a.b)+", "a.b+.a"])
    def test_tiny_graph_with_oracle(self, tiny_graph, oracle_eval, query):
        assert eval_rpq_dfa(tiny_graph, query) == oracle_eval(tiny_graph, query)

    def test_random_agreement(self):
        import random

        from repro.graph.multigraph import LabeledMultigraph

        rng = random.Random(5)
        for _trial in range(8):
            graph = LabeledMultigraph()
            size = rng.randint(2, 8)
            for vertex in range(size):
                graph.add_vertex(vertex)
            for _ in range(rng.randint(1, 20)):
                graph.add_edge_if_absent(
                    rng.randrange(size), rng.choice("ab"), rng.randrange(size)
                )
            query = rng.choice(["a+", "(a.b)+", "a.b*", "(a|b)+.a", "b?.a+"])
            assert eval_rpq_dfa(graph, query) == eval_rpq(graph, query), query


class TestStartsAndCounters:
    def test_starts_restriction(self, fig1):
        full = eval_rpq_dfa(fig1, "b.c")
        restricted = eval_rpq_dfa(fig1, "b.c", starts=[2])
        assert restricted == {pair for pair in full if pair[0] == 2}

    def test_nullable_with_starts(self, fig1):
        result = eval_rpq_dfa(fig1, "b?", starts=[2])
        assert (2, 2) in result

    def test_precompiled_dfa_accepted(self, fig1):
        dfa = determinize(compile_nfa(parse("b.c")))
        assert eval_rpq_dfa(fig1, dfa) == eval_rpq(fig1, "b.c")

    def test_counters(self, fig1):
        counters = OpCounters()
        eval_rpq_dfa(fig1, "d.(b.c)+.c", counters=counters)
        assert counters.states_expanded > 0
        assert counters.edges_scanned > 0

    def test_eval_dfa_from_single_start(self, fig1):
        dfa = determinize(compile_nfa(parse("b.c")))
        assert eval_dfa_from(fig1, dfa, 2) == {4, 6}

    def test_dfa_frontier_not_larger_than_nfa(self, fig1):
        # The determinised product expands at most as many pairs as the
        # NFA product on the same traversal (one state per subset).
        nfa_counters = OpCounters()
        dfa_counters = OpCounters()
        eval_rpq(fig1, "d.(b.c)+.c", counters=nfa_counters)
        eval_rpq_dfa(fig1, "d.(b.c)+.c", counters=dfa_counters)
        assert dfa_counters.states_expanded <= nfa_counters.states_expanded
