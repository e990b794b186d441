"""Tests for EvalRestrictedRPQ (single-start Post evaluation)."""

import pytest

from repro.rpq.counters import OpCounters
from repro.rpq.evaluate import eval_rpq
from repro.rpq.restricted import RestrictedEvaluator, as_label_sequence
from repro.regex.parser import parse


class TestAsLabelSequence:
    @pytest.mark.parametrize(
        "query,expected",
        [
            ("()", []),
            ("a", ["a"]),
            ("a.b.c", ["a", "b", "c"]),
            ("a.().b", ["a", "b"]),
        ],
    )
    def test_pure_sequences(self, query, expected):
        assert as_label_sequence(parse(query)) == expected

    @pytest.mark.parametrize("query", ["a|b", "a.(b|c)", "a?", "a.b?"])
    def test_non_sequences(self, query):
        assert as_label_sequence(parse(query)) is None


class TestRestrictedEvaluator:
    def test_rejects_closures(self):
        with pytest.raises(ValueError):
            RestrictedEvaluator("a+")
        with pytest.raises(ValueError):
            RestrictedEvaluator("a.(b.c)*")

    def test_label_sequence_fast_path(self, fig1):
        evaluator = RestrictedEvaluator("b.c")
        assert evaluator.ends_from(fig1, 2) == {4, 6}
        assert evaluator.ends_from(fig1, 8) == set()

    def test_epsilon(self, fig1):
        evaluator = RestrictedEvaluator("()")
        assert evaluator.is_epsilon
        assert evaluator.nullable
        assert evaluator.ends_from(fig1, 5) == {5}

    def test_union_post_uses_automaton(self, fig1):
        evaluator = RestrictedEvaluator("b|c")
        assert not evaluator.is_epsilon
        assert evaluator.ends_from(fig1, 2) == {3, 5}

    def test_nullable_automaton_includes_start(self, fig1):
        evaluator = RestrictedEvaluator("c?")
        assert evaluator.nullable
        assert evaluator.ends_from(fig1, 1) == {1, 2}

    def test_matches_eval_rpq_per_start(self, fig1):
        for query in ["c", "b.c", "b|c", "c.c?"]:
            evaluator = RestrictedEvaluator(query)
            reference = eval_rpq(fig1, query, starts=list(fig1.vertices()))
            for start in fig1.vertices():
                expected = {end for (s, end) in reference if s == start}
                assert evaluator.ends_from(fig1, start) == expected, (query, start)

    def test_counted_reference_matches_row_walk(self, fig1):
        # Counters select the tuple-set walk; without them ends_from
        # walks id-space rows.  Both must name the same ends.
        counters = OpCounters()
        for query in ["()", "c", "b.c", "b|c", "c?", "c.c?"]:
            evaluator = RestrictedEvaluator(query)
            for start in fig1.vertices():
                assert evaluator.ends_from(fig1, start, counters) == evaluator.ends_from(
                    fig1, start
                ), (query, start)
        assert counters.edges_scanned > 0

    def test_start_outside_graph(self, fig1):
        assert RestrictedEvaluator("c").ends_from(fig1, "absent") == set()
        assert RestrictedEvaluator("()").ends_from(fig1, "absent") == {"absent"}
