"""Tests for the three evaluation engines and their agreement."""

import pytest

from repro.bitset import PairBitmap
from repro.core.engines import (
    FullSharingEngine,
    NoSharingEngine,
    RTCSharingEngine,
    evaluate_plan,
)
from repro.bitset.kernel import eval_label_sequence_bits
from repro.core.plan import plan_for
from repro.core.timing import PHASE_PRE_JOIN, PHASE_SHARED_DATA
from repro.db import GraphDB, create_engine
from repro.errors import RPQSyntaxError, UnknownLabelError
from repro.graph.builders import labeled_cycle
from repro.rpq.evaluate import eval_rpq
from repro.rpq.label_join import eval_label_sequence

ENGINE_CLASSES = [NoSharingEngine, FullSharingEngine, RTCSharingEngine]

QUERIES = [
    "a",
    "d",
    "()",
    "b.c",
    "d.(b.c)+.c",
    "a.(b.c)+",
    "(b.c)+.c",
    "(b.c)*",
    "d.(b.c)*.c",
    "a.(a.b)+.b",
    "(a.b)*.b+.(a.b+.c)+",
    "b.c|d.(b.c)+.c",
    "(b|c)+",
    "c*.b",
    "a?.(b.c)+",
    "(c.c)+|(b.b)+",
    "e.f.(e.f)*",
    "zz.(b.c)+",
]


class TestEngineAgreement:
    @pytest.mark.parametrize("query", QUERIES)
    def test_engines_agree_on_fig1(self, fig1, query):
        results = [cls(fig1).evaluate(query) for cls in ENGINE_CLASSES]
        assert results[0] == results[1] == results[2], query

    @pytest.mark.parametrize("query", ["a+", "(a.b)+", "a.b+.a", "(a|b)+.a"])
    def test_engines_agree_with_oracle(self, tiny_graph, oracle_eval, query):
        expected = oracle_eval(tiny_graph, query)
        for cls in ENGINE_CLASSES:
            assert cls(tiny_graph).evaluate(query) == expected, (cls, query)

    def test_evaluate_many_matches_individual(self, fig1):
        queries = ["d.(b.c)+.c", "a.(b.c)+", "b.(b.c)+.c"]
        engine = RTCSharingEngine(fig1)
        batch = engine.evaluate_many(queries)
        assert batch == [eval_rpq(fig1, q) for q in queries]


class TestRTCSharingSpecifics:
    def test_rtc_cache_hit_on_second_query(self, fig1):
        engine = RTCSharingEngine(fig1)
        engine.evaluate("d.(b.c)+.c")
        assert engine.rtc_cache.stats.entries == 1
        misses = engine.rtc_cache.stats.misses
        engine.evaluate("a.(b.c)+")
        assert engine.rtc_cache.stats.entries == 1
        assert engine.rtc_cache.stats.misses == misses  # pure hit
        assert engine.rtc_cache.stats.hits >= 1

    def test_nested_closures_reuse_rtc(self, fig1):
        # Example 7: evaluating a.(a.b)+.b then (a.b)*... reuses the RTC.
        engine = RTCSharingEngine(fig1)
        engine.evaluate("a.(a.b)+.b")
        entries_after_first = engine.rtc_cache.stats.entries
        engine.evaluate("(a.b)*.b+.(a.b+.c)+")
        assert engine.rtc_cache.stats.hits >= 1
        assert engine.rtc_cache.stats.entries > entries_after_first

    def test_semantic_cache_shares_equal_languages(self, fig1):
        engine = RTCSharingEngine(fig1, cache_mode="semantic")
        engine.evaluate("d.(b.c|b.b)+")
        engine.evaluate("d.(b.(c|b))+")
        assert engine.rtc_cache.stats.entries == 1
        assert engine.rtc_cache.stats.hits >= 1

    def test_syntactic_cache_distinguishes_spelling(self, fig1):
        engine = RTCSharingEngine(fig1)
        engine.evaluate("d.(b.c|b.b)+")
        engine.evaluate("d.(b.(c|b))+")
        assert engine.rtc_cache.stats.entries == 2

    def test_reaches_extension(self, fig1):
        engine = RTCSharingEngine(fig1)
        assert engine.reaches("b.c", 2, 6)
        assert not engine.reaches("b.c", 6, 2)

    def test_shared_data_size(self, fig1):
        engine = RTCSharingEngine(fig1)
        assert engine.shared_data_size() == 0
        engine.evaluate("d.(b.c)+.c")
        assert engine.shared_data_size() == 3  # Example 6: three RTC pairs

    def test_reset_cache(self, fig1):
        engine = RTCSharingEngine(fig1)
        engine.evaluate("d.(b.c)+.c")
        engine.reset_cache()
        assert engine.shared_data_size() == 0
        # Still evaluates correctly after the reset.
        assert engine.evaluate("d.(b.c)+.c") == {(7, 5), (7, 3)}


class TestFullSharingSpecifics:
    def test_closure_cache_shared(self, fig1):
        engine = FullSharingEngine(fig1)
        engine.evaluate("d.(b.c)+.c")
        assert engine.closure_cache.stats.entries == 1
        engine.evaluate("a.(b.c)+")
        assert engine.closure_cache.stats.entries == 1
        assert engine.closure_cache.stats.hits >= 1

    def test_shared_data_is_full_closure(self, fig1):
        engine = FullSharingEngine(fig1)
        engine.evaluate("d.(b.c)+.c")
        assert engine.shared_data_size() == 10  # Example 4: ten pairs

    def test_shared_sizes_rtc_never_larger(self, fig1):
        full = FullSharingEngine(fig1)
        rtc = RTCSharingEngine(fig1)
        for query in ["d.(b.c)+.c", "a.(b|c)+", "(c)+"]:
            full.evaluate(query)
            rtc.evaluate(query)
        assert rtc.shared_data_size() <= full.shared_data_size()


class TestMetricsAndErrors:
    def test_total_time_accumulates(self, fig1):
        engine = RTCSharingEngine(fig1)
        engine.evaluate("d.(b.c)+.c")
        assert engine.total_time > 0
        assert engine.queries_evaluated == 1
        engine.reset_metrics()
        assert engine.total_time == 0.0
        assert engine.queries_evaluated == 0

    def test_phase_times_populated(self, fig1):
        engine = RTCSharingEngine(fig1)
        _pairs, _elapsed, phases = evaluate_plan(engine, plan_for("d.(b.c)+.c"))
        assert phases[PHASE_SHARED_DATA] > 0
        assert phases[PHASE_PRE_JOIN] > 0
        assert phases["remainder"] > 0

    def test_counters_opt_in(self, fig1):
        silent = RTCSharingEngine(fig1)
        counting = RTCSharingEngine(fig1, collect_counters=True)
        silent.evaluate("d.(b.c)+.c")
        counting.evaluate("d.(b.c)+.c")
        assert silent.counters is None
        assert counting.counters is not None
        assert counting.counters.total() > 0

    def test_strict_labels(self, fig1):
        # Every engine answers an unknown label with no pairs; refusing it
        # is eval_rpq's opt-in, not an engine option.
        for engine_class in ENGINE_CLASSES:
            with pytest.raises(TypeError):
                engine_class(fig1, strict_labels=True)
            assert set(engine_class(fig1).evaluate("qq.a")) == set()
            assert set(engine_class(fig1).evaluate("zz.a")) == set()
        with pytest.raises(UnknownLabelError):
            eval_rpq(fig1, "qq.a", strict_labels=True)

    def test_syntax_error_propagates(self, fig1):
        with pytest.raises(RPQSyntaxError):
            RTCSharingEngine(fig1).evaluate("a..b")

    def test_create_engine_factory(self, fig1):
        assert isinstance(create_engine("no", fig1), NoSharingEngine)
        assert isinstance(create_engine("FULL", fig1), FullSharingEngine)
        assert isinstance(create_engine("rtc", fig1), RTCSharingEngine)

    def test_create_engine_unknown_name(self, fig1):
        from repro.errors import ReproError, UnknownEngineError

        with pytest.raises(UnknownEngineError) as info:
            create_engine("quantum", fig1)
        assert isinstance(info.value, ReproError)
        # Callers that catch ValueError keep working.
        assert isinstance(info.value, ValueError)
        assert info.value.name == "quantum"
        assert "rtc" in info.value.available

    @pytest.mark.parametrize(
        "name, counted, expected",
        [
            ("rtc", False, PairBitmap),
            ("no", False, PairBitmap),
            ("full", False, set),
            ("rtc", True, set),
            ("no", True, set),
            ("full", True, set),
        ],
    )
    def test_one_result_type_per_run(self, fig1, name, counted, expected):
        """Closure, label-sequence, automaton and epsilon-Pre clauses mixed."""
        engine = create_engine(name, fig1, collect_counters=counted)
        queries = [
            "d.(b.c)+.c|b.c|(b|c).c",
            "(b.c)*|d",
            "b.c",
            "(b|c)",
            "d.(b.c)+",
        ]
        for query in queries:
            result = engine.evaluate(query)
            assert type(result) is expected, query
            assert result == eval_rpq(fig1, query)

    def test_invalid_clause_evaluator(self, fig1):
        # Closure-free clauses have one evaluator; neither an engine nor
        # a session accepts a choice of it.
        with pytest.raises(TypeError):
            RTCSharingEngine(fig1, clause_evaluator="psychic")
        with pytest.raises(TypeError):
            GraphDB.open(fig1, engine="rtc", clause_evaluator="automaton")

    @pytest.mark.parametrize("evaluator", ["auto", "automaton", "label-join"])
    def test_clause_evaluator_modes_agree(self, fig1, evaluator):
        """The engine's answer for a closure-free clause, the automaton's
        and the label-sequence join's are the same pairs."""
        evaluate = {
            "auto": lambda: RTCSharingEngine(fig1).evaluate("b.c"),
            "automaton": lambda: eval_rpq(fig1, "b.c"),
            "label-join": lambda: eval_label_sequence(fig1, ["b", "c"]),
        }[evaluator]
        expected = {(2, 4), (2, 6), (3, 5), (4, 2), (5, 3)}
        assert set(evaluate()) == expected
        assert eval_label_sequence_bits(fig1, ["b", "c"]) == expected


class TestStarIdentitySemantics:
    def test_bare_star_includes_all_vertices(self, fig1):
        # (b.c)* must include (v, v) for every vertex, even isolated ones.
        result = RTCSharingEngine(fig1).evaluate("(b.c)*")
        for vertex in fig1.vertices():
            assert (vertex, vertex) in result

    def test_star_then_label(self):
        graph = labeled_cycle(3, "a")
        graph.add_edge(0, "b", 1)
        result = RTCSharingEngine(graph).evaluate("(a)*.b")
        assert result == eval_rpq(graph, "a*.b")
        assert (0, 1) in result  # zero iterations then b
