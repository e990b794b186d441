"""The shared, graph-independent plan cache (:mod:`repro.core.plan`)."""

import sys
import threading
from collections import Counter

import pytest

import repro.core.plan as plan_module
from repro.core.cache import make_key_function
from repro.core.decompose import decompose_clause
from repro.core.dnf import to_dnf
from repro.core.engines import NoSharingEngine, RTCSharingEngine
from repro.core.plan import PLAN_MEMO_LIMIT, Plan, closure_group_key, plan_for
from repro.db import GraphDB
from repro.errors import EvaluationError, RPQSyntaxError
from repro.graph.builders import labeled_cycle
from repro.regex.parser import parse


class TestMemo:
    def test_one_plan_per_text_and_per_ast(self):
        plan_for("a.(b.c)+")  # first sight: planned, not kept
        assert plan_for("a.(b.c)+") is plan_for("a.(b.c)+")
        node = parse("a.(b.c)+.c")
        plan_for(node)
        assert plan_for(node) is plan_for(parse("a.(b.c)+.c"))
        plan = plan_for("b.c")
        assert plan_for(plan) is plan

    def test_a_one_off_text_is_not_kept(self, planning_calls):
        text = "a.(b.c)+|one_off"
        first = plan_for(text)
        assert text not in plan_module._plans
        assert all(isinstance(seen, int) for seen in plan_module._seen_once)
        second = plan_for(text)
        assert second is not first and plan_module._plans[text] is second
        assert plan_for(text) is second
        assert planning_calls["parse"] == 2

    def test_repeated_reads_plan_a_text_at_most_twice(self, planning_calls, fig1):
        """Once on first sight (dropped), once when kept -- then never,
        across sessions over different graphs and across an update."""
        text = "d.(b.c)+.c|plan_once"
        first, second = GraphDB.open(fig1), GraphDB.open(labeled_cycle(5, "b"))
        expected = [set(first.execute(text)), set(second.execute(text))]
        walks = planning_calls["dnf"]
        assert planning_calls["parse"] == 2 and walks > 0
        for _ in range(3):
            assert [set(first.execute(text)), set(second.execute(text))] == expected
        first.update(add=[(9, "d", 1), (2, "c", 9)])
        oracle = GraphDB.open(first.graph, engine="no")
        assert set(first.execute(text)) == set(oracle.execute(text))
        assert set(first.prepare(text).execute()) == set(first.execute(text))
        assert planning_calls == {"parse": 2, "dnf": walks}

    def test_group_key_is_walked_once_per_mode(self, planning_calls):
        plan = plan_for("a.(b.(c)+)+|group_once")
        syntactic = plan.group_key("syntactic")
        walks = planning_calls["dnf"]
        assert plan.group_key("syntactic") == syntactic
        assert planning_calls["dnf"] == walks
        assert plan.is_warm("syntactic") and not plan.is_warm("semantic")

    def test_memo_is_bounded(self):
        for index in range(PLAN_MEMO_LIMIT + 1):
            plan_for(f"bound{index}")
            plan_for(f"bound{index}")
        assert 0 < len(plan_module._plans) <= PLAN_MEMO_LIMIT
        assert 0 < len(plan_module._seen_once) <= PLAN_MEMO_LIMIT

    def test_a_syntax_error_is_not_memoised(self, planning_calls):
        for attempt in range(1, 4):
            with pytest.raises(RPQSyntaxError):
                plan_for("a..b")
            assert planning_calls["parse"] == attempt
        assert "a..b" not in plan_module._plans

    def test_a_clause_blow_up_is_not_memoised(self, fig1):
        text = "(a|b).(a|b).(a|b)"  # 8 clauses
        plan = plan_for(text)
        for _ in range(3):
            with pytest.raises(EvaluationError):
                plan.units(max_clauses=4)
        assert len(plan.units()) == 8
        wide = ".".join(["(a|b)"] * 13)  # 8192 clauses > MAX_CLAUSES
        db = GraphDB.open(fig1)
        for _ in range(2):
            with pytest.raises(EvaluationError):
                db.execute(wide)


class TestPlanContents:
    def test_units_match_a_fresh_decomposition(self):
        node = parse("a.(b)+.c|(d.(b.c)*)+|c")
        plan = Plan(node)
        units = plan.units()
        assert [step.unit for step in units] == [
            decompose_clause(clause) for clause in to_dnf(node)
        ]
        assert plan.units() is units
        closure = units[0]
        assert closure.pre is not None and closure.pre.node == parse("a")
        assert closure.post is not None and not closure.post.is_epsilon
        assert closure.body_key("syntactic") == "b"
        free = units[2]
        assert free.unit.type is None and free.pre is None and free.post is None

    def test_group_key_and_route(self):
        plan = Plan(parse("a.(b.c)+|d?"))
        for mode in ("syntactic", "semantic"):
            assert plan.group_key(mode) == closure_group_key(
                plan.node, make_key_function(mode)
            )
        labels, nullable, nfa = plan.route()
        assert labels == frozenset("abcd") and nullable
        assert plan.route()[2] is nfa


def body_counts(queries, mode="syntactic") -> Counter:
    """How many batch units of a query set reuse each closure body."""
    return Counter(key for query in queries for key in plan_for(query).bodies(mode))


class TestBodies:
    def test_a_body_shared_across_queries(self):
        assert body_counts(["a.(b.c)+", "d.(b.c)+.c", "c.(c)+"]) == {"b.c": 2, "c": 1}
        assert body_counts(["a.(b)+", "a.(c)+"]) == {"b": 1, "c": 1}

    def test_closure_free_queries_have_no_bodies(self):
        assert list(plan_for("a.b|c").bodies()) == []
        assert plan_for("a.b|c").group_key() == ""

    def test_nested_bodies_in_pre_and_in_r(self):
        # Pre (a.b)*.b+ holds bodies a.b and b; R a.b+.c nests b again.
        assert body_counts(["(a.b)*.b+.(a.b+.c)+"]) == {"a.b+.c": 1, "a.b": 1, "b": 2}

    def test_example7_reuses_bodies(self):
        # The paper's Fig. 7: the third query reuses the RTCs of a.b and b.
        counts = body_counts(["a", "a.(a.b)+.b", "(a.b)*.b+.(a.b+.c)+"])
        assert counts["a.b"] == 2 and counts["b"] == 2

    def test_a_union_counts_a_body_once_per_clause(self):
        assert body_counts(["a.(b)+|c.(b)+"]) == {"b": 2}
        assert plan_for("a.(b)+|c.(b)+").group_key() == "b"

    def test_semantic_mode_identifies_equal_languages(self):
        queries = ["a.(b.c|b.b)+", "a.(b.(c|b))+"]
        assert sorted(body_counts(queries).values()) == [1, 1]
        assert list(body_counts(queries, "semantic").values()) == [2]
        first, second = (plan_for(query) for query in queries)
        assert first.group_key("semantic") == second.group_key("semantic")
        assert first.group_key("syntactic") != second.group_key("syntactic")

    def test_a_clause_blow_up_raises_and_keys_empty(self):
        blown = Plan(parse("(a|b)" + ".(c|d)" * 12 + ".(e)+"))  # 8192 clauses
        with pytest.raises(EvaluationError):
            list(blown.bodies())
        assert blown.group_key() == ""


class TestSharing:
    def test_threads_racing_on_fresh_plans_see_equal_values(self, fig1):
        """Eight threads share fresh plans and one RTC cache under a tiny
        switch interval: every lazy field they race on, and every answer,
        equals the single-threaded value."""
        texts = [f"a.(b.c)+.c|d.race{index}|(b.race{index})*" for index in range(12)]
        expected = {
            text: (
                [decompose_clause(clause) for clause in to_dnf(parse(text))],
                closure_group_key(parse(text), make_key_function("syntactic")),
                NoSharingEngine(fig1).evaluate(text),
            )
            for text in texts
        }
        shared = RTCSharingEngine(fig1)
        failures = []

        def work(offset):
            engine = RTCSharingEngine(fig1)
            engine.rtc_cache = shared.rtc_cache
            for step in range(len(texts) * 3):
                text = texts[(offset + step) % len(texts)]
                plan = plan_for(text)
                units, key, answer = expected[text]
                seen = (
                    [unit.unit for unit in plan.units()],
                    plan.group_key("syntactic"),
                    engine.evaluate(plan),
                )
                if seen != (units, key, answer):
                    failures.append((text, seen))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
