"""Tests for the static query explainer and its cost proxy."""

import pytest

from repro.core.engines import RTCSharingEngine
from repro.core.explain import estimate_cost, explain
from repro.db import GraphDB
from repro.errors import ReproError, RPQSyntaxError
from repro.graph.builders import paper_figure1_graph
from repro.regex.parser import parse

#: Every clause kind in one union: closure-free, ``+`` and ``*`` units, an
#: epsilon Post, a closure nested in Pre and one nested in R, and an
#: epsilon clause.
GOLDEN_QUERY = "b.c|d.(b.c)+.c|d.(b.c)*.c|a.(b.c)+|(a.b)+.c.(b.c)+|d.((b)+.c)+|()"

#: ``describe()`` of :data:`GOLDEN_QUERY` on Fig. 1, byte for byte; "warm"
#: is after evaluating ``a.(b.c)+``.
GOLDEN = {
    "no-cache": """\
query: b.c|d.(b.c)+.c|d.(b.c)*.c|a.(b.c)+|(a.b)+.c.(b.c)+|d.(b+.c)+|()
clauses: 7
  clause 0: b.c
    EvalRPQwithoutKC via label-sequence (est. cost 30)
  clause 1: d.(b.c)+.c
    Pre  = d
    R    = b.c   [closure +, RTC key miss: None]
    Post = c via label-sequence
    pipeline: Pre_G ⋈ SCC ⋈ R̄+_G ⋈ SCC ⋈ Post_G (Eq. 6-10; est. cost 30)
  clause 2: d.(b.c)*.c
    Pre  = d
    R    = b.c   [closure *, RTC key miss: None]
    Post = c via label-sequence
    pipeline: Pre_G ⋈ SCC ⋈ R̄+_G ⋈ SCC ⋈ Post_G (Eq. 6-10; est. cost 30)
  clause 3: a.(b.c)+
    Pre  = a
    R    = b.c   [closure +, RTC key miss: None]
    Post = () via epsilon
    pipeline: Pre_G ⋈ SCC ⋈ R̄+_G ⋈ SCC ⋈ Post_G (Eq. 6-10; est. cost 30)
  clause 4: (a.b)+.c.(b.c)+
    Pre  = (a.b)+.c
    R    = b.c   [closure +, RTC key miss: None]
    Post = () via epsilon
    pipeline: Pre_G ⋈ SCC ⋈ R̄+_G ⋈ SCC ⋈ Post_G (Eq. 6-10; est. cost 30)
  clause 5: d.(b+.c)+
    Pre  = d
    R    = b+.c   [closure +, RTC key miss: None]
    Post = () via epsilon
    pipeline: Pre_G ⋈ SCC ⋈ R̄+_G ⋈ SCC ⋈ Post_G (Eq. 6-10; est. cost 300)
  clause 6: ()
    EvalRPQwithoutKC via epsilon (est. cost 1)""",
    "syntactic-cold": """\
query: b.c|d.(b.c)+.c|d.(b.c)*.c|a.(b.c)+|(a.b)+.c.(b.c)+|d.(b+.c)+|()
clauses: 7
  clause 0: b.c
    EvalRPQwithoutKC via label-sequence (est. cost 30)
  clause 1: d.(b.c)+.c
    Pre  = d
    R    = b.c   [closure +, RTC key miss: b.c]
    Post = c via label-sequence
    pipeline: Pre_G ⋈ SCC ⋈ R̄+_G ⋈ SCC ⋈ Post_G (Eq. 6-10; est. cost 30)
  clause 2: d.(b.c)*.c
    Pre  = d
    R    = b.c   [closure *, RTC key miss: b.c]
    Post = c via label-sequence
    pipeline: Pre_G ⋈ SCC ⋈ R̄+_G ⋈ SCC ⋈ Post_G (Eq. 6-10; est. cost 30)
  clause 3: a.(b.c)+
    Pre  = a
    R    = b.c   [closure +, RTC key miss: b.c]
    Post = () via epsilon
    pipeline: Pre_G ⋈ SCC ⋈ R̄+_G ⋈ SCC ⋈ Post_G (Eq. 6-10; est. cost 30)
  clause 4: (a.b)+.c.(b.c)+
    Pre  = (a.b)+.c
    R    = b.c   [closure +, RTC key miss: b.c]
    Post = () via epsilon
    pipeline: Pre_G ⋈ SCC ⋈ R̄+_G ⋈ SCC ⋈ Post_G (Eq. 6-10; est. cost 30)
  clause 5: d.(b+.c)+
    Pre  = d
    R    = b+.c   [closure +, RTC key miss: b+.c]
    Post = () via epsilon
    pipeline: Pre_G ⋈ SCC ⋈ R̄+_G ⋈ SCC ⋈ Post_G (Eq. 6-10; est. cost 300)
  clause 6: ()
    EvalRPQwithoutKC via epsilon (est. cost 1)""",
    "syntactic-warm": """\
query: b.c|d.(b.c)+.c|d.(b.c)*.c|a.(b.c)+|(a.b)+.c.(b.c)+|d.(b+.c)+|()
clauses: 7
  clause 0: b.c
    EvalRPQwithoutKC via label-sequence (est. cost 30)
  clause 1: d.(b.c)+.c
    Pre  = d
    R    = b.c   [closure +, RTC key HIT: b.c]
    Post = c via label-sequence
    pipeline: Pre_G ⋈ SCC ⋈ R̄+_G ⋈ SCC ⋈ Post_G (Eq. 6-10; est. cost 30)
  clause 2: d.(b.c)*.c
    Pre  = d
    R    = b.c   [closure *, RTC key HIT: b.c]
    Post = c via label-sequence
    pipeline: Pre_G ⋈ SCC ⋈ R̄+_G ⋈ SCC ⋈ Post_G (Eq. 6-10; est. cost 30)
  clause 3: a.(b.c)+
    Pre  = a
    R    = b.c   [closure +, RTC key HIT: b.c]
    Post = () via epsilon
    pipeline: Pre_G ⋈ SCC ⋈ R̄+_G ⋈ SCC ⋈ Post_G (Eq. 6-10; est. cost 30)
  clause 4: (a.b)+.c.(b.c)+
    Pre  = (a.b)+.c
    R    = b.c   [closure +, RTC key HIT: b.c]
    Post = () via epsilon
    pipeline: Pre_G ⋈ SCC ⋈ R̄+_G ⋈ SCC ⋈ Post_G (Eq. 6-10; est. cost 30)
  clause 5: d.(b+.c)+
    Pre  = d
    R    = b+.c   [closure +, RTC key miss: b+.c]
    Post = () via epsilon
    pipeline: Pre_G ⋈ SCC ⋈ R̄+_G ⋈ SCC ⋈ Post_G (Eq. 6-10; est. cost 300)
  clause 6: ()
    EvalRPQwithoutKC via epsilon (est. cost 1)""",
    "semantic-cold": """\
query: b.c|d.(b.c)+.c|d.(b.c)*.c|a.(b.c)+|(a.b)+.c.(b.c)+|d.(b+.c)+|()
clauses: 7
  clause 0: b.c
    EvalRPQwithoutKC via label-sequence (est. cost 30)
  clause 1: d.(b.c)+.c
    Pre  = d
    R    = b.c   [closure +, RTC key miss: states=3;accept=[2];delta=0-b->1;1-c->2]
    Post = c via label-sequence
    pipeline: Pre_G ⋈ SCC ⋈ R̄+_G ⋈ SCC ⋈ Post_G (Eq. 6-10; est. cost 30)
  clause 2: d.(b.c)*.c
    Pre  = d
    R    = b.c   [closure *, RTC key miss: states=3;accept=[2];delta=0-b->1;1-c->2]
    Post = c via label-sequence
    pipeline: Pre_G ⋈ SCC ⋈ R̄+_G ⋈ SCC ⋈ Post_G (Eq. 6-10; est. cost 30)
  clause 3: a.(b.c)+
    Pre  = a
    R    = b.c   [closure +, RTC key miss: states=3;accept=[2];delta=0-b->1;1-c->2]
    Post = () via epsilon
    pipeline: Pre_G ⋈ SCC ⋈ R̄+_G ⋈ SCC ⋈ Post_G (Eq. 6-10; est. cost 30)
  clause 4: (a.b)+.c.(b.c)+
    Pre  = (a.b)+.c
    R    = b.c   [closure +, RTC key miss: states=3;accept=[2];delta=0-b->1;1-c->2]
    Post = () via epsilon
    pipeline: Pre_G ⋈ SCC ⋈ R̄+_G ⋈ SCC ⋈ Post_G (Eq. 6-10; est. cost 30)
  clause 5: d.(b+.c)+
    Pre  = d
    R    = b+.c   [closure +, RTC key miss: states=3;accept=[2];delta=0-b->1;1-b->1;1-c->2]
    Post = () via epsilon
    pipeline: Pre_G ⋈ SCC ⋈ R̄+_G ⋈ SCC ⋈ Post_G (Eq. 6-10; est. cost 300)
  clause 6: ()
    EvalRPQwithoutKC via epsilon (est. cost 1)""",
    "semantic-warm": """\
query: b.c|d.(b.c)+.c|d.(b.c)*.c|a.(b.c)+|(a.b)+.c.(b.c)+|d.(b+.c)+|()
clauses: 7
  clause 0: b.c
    EvalRPQwithoutKC via label-sequence (est. cost 30)
  clause 1: d.(b.c)+.c
    Pre  = d
    R    = b.c   [closure +, RTC key HIT: states=3;accept=[2];delta=0-b->1;1-c->2]
    Post = c via label-sequence
    pipeline: Pre_G ⋈ SCC ⋈ R̄+_G ⋈ SCC ⋈ Post_G (Eq. 6-10; est. cost 30)
  clause 2: d.(b.c)*.c
    Pre  = d
    R    = b.c   [closure *, RTC key HIT: states=3;accept=[2];delta=0-b->1;1-c->2]
    Post = c via label-sequence
    pipeline: Pre_G ⋈ SCC ⋈ R̄+_G ⋈ SCC ⋈ Post_G (Eq. 6-10; est. cost 30)
  clause 3: a.(b.c)+
    Pre  = a
    R    = b.c   [closure +, RTC key HIT: states=3;accept=[2];delta=0-b->1;1-c->2]
    Post = () via epsilon
    pipeline: Pre_G ⋈ SCC ⋈ R̄+_G ⋈ SCC ⋈ Post_G (Eq. 6-10; est. cost 30)
  clause 4: (a.b)+.c.(b.c)+
    Pre  = (a.b)+.c
    R    = b.c   [closure +, RTC key HIT: states=3;accept=[2];delta=0-b->1;1-c->2]
    Post = () via epsilon
    pipeline: Pre_G ⋈ SCC ⋈ R̄+_G ⋈ SCC ⋈ Post_G (Eq. 6-10; est. cost 30)
  clause 5: d.(b+.c)+
    Pre  = d
    R    = b+.c   [closure +, RTC key miss: states=3;accept=[2];delta=0-b->1;1-b->1;1-c->2]
    Post = () via epsilon
    pipeline: Pre_G ⋈ SCC ⋈ R̄+_G ⋈ SCC ⋈ Post_G (Eq. 6-10; est. cost 300)
  clause 6: ()
    EvalRPQwithoutKC via epsilon (est. cost 1)""",
}


class TestGolden:
    def test_without_a_cache(self):
        assert explain(paper_figure1_graph(), GOLDEN_QUERY).describe() == GOLDEN["no-cache"]

    @pytest.mark.parametrize("mode", ["syntactic", "semantic"])
    def test_engine_cold_and_warm(self, mode):
        engine = RTCSharingEngine(paper_figure1_graph(), cache_mode=mode)
        assert engine.explain(GOLDEN_QUERY).describe() == GOLDEN[f"{mode}-cold"]
        engine.evaluate("a.(b.c)+")
        assert engine.explain(GOLDEN_QUERY).describe() == GOLDEN[f"{mode}-warm"]

    def test_session_on_full_sharing_has_no_rtc_keys(self):
        db = GraphDB.open(paper_figure1_graph(), engine="full")
        db.execute("a.(b.c)+")
        assert db.explain(GOLDEN_QUERY).describe() == GOLDEN["no-cache"]

    def test_session_renders_its_prepared_plan(self):
        db = GraphDB.open(paper_figure1_graph())
        db.execute("a.(b.c)+")
        prepared = db.prepare(GOLDEN_QUERY)
        assert prepared.explain().describe() == GOLDEN["syntactic-warm"]


class TestExplainStandalone:
    def test_closure_free_clause(self, fig1):
        plan = explain(fig1, "b.c")
        assert len(plan.clauses) == 1
        clause = plan.clauses[0]
        assert not clause.is_batch_unit
        assert clause.post_strategy == "label-sequence"
        assert clause.estimated_cost > 0

    def test_batch_unit_decomposition(self, fig1):
        plan = explain(fig1, "d.(b.c)+.c")
        clause = plan.clauses[0]
        assert clause.is_batch_unit
        assert clause.pre == "d"
        assert clause.r == "b.c"
        assert clause.closure_type == "+"
        assert clause.post == "c"
        assert clause.post_strategy == "label-sequence"

    def test_union_produces_multiple_clauses(self, fig1):
        plan = explain(fig1, "a|b.(c)+")
        assert len(plan.clauses) == 2
        kinds = {clause.is_batch_unit for clause in plan.clauses}
        assert kinds == {True, False}

    def test_epsilon_post(self, fig1):
        plan = explain(fig1, "a.(b.c)+")
        assert plan.clauses[0].post_strategy == "epsilon"

    def test_no_cache_given(self, fig1):
        plan = explain(fig1, "d.(b.c)+.c")
        assert plan.clauses[0].rtc_key is None
        assert plan.clauses[0].rtc_cached is False

    def test_syntax_errors_propagate(self, fig1):
        with pytest.raises(RPQSyntaxError):
            explain(fig1, "a..b")


class TestEngineExplain:
    def test_cache_status_reported(self, fig1):
        engine = RTCSharingEngine(fig1)
        cold = engine.explain("d.(b.c)+.c")
        assert cold.clauses[0].rtc_cached is False
        assert cold.clauses[0].rtc_key == "b.c"
        engine.evaluate("a.(b.c)+")
        warm = engine.explain("d.(b.c)+.c")
        assert warm.clauses[0].rtc_cached is True

    def test_explain_has_no_side_effects(self, fig1):
        engine = RTCSharingEngine(fig1)
        engine.explain("d.(b.c)+.c")
        assert engine.rtc_cache.stats.lookups == 0
        assert engine.shared_data_size() == 0
        assert engine.queries_evaluated == 0

    def test_describe_output(self, fig1):
        engine = RTCSharingEngine(fig1)
        engine.evaluate("a.(b.c)+")
        text = engine.explain("d.(b.c)+.c|a").describe()
        assert "clauses: 2" in text
        assert "RTC key HIT" in text
        assert "Eq. 6-10" in text
        assert "EvalRPQwithoutKC" in text

    def test_semantic_cache_keys_in_plan(self, fig1):
        engine = RTCSharingEngine(fig1, cache_mode="semantic")
        engine.evaluate("a.(b.c|b.b)+")
        plan = engine.explain("d.(b.(c|b))+")  # language-equal body
        assert plan.clauses[0].rtc_cached is True

    def test_engine_max_clauses_bounds_the_plan(self, fig1):
        engine = RTCSharingEngine(fig1)
        with pytest.raises(ReproError):
            engine.explain(".".join(["(a|b)"] * 13))  # 8192 clauses


class TestEstimateCost:
    def test_rarer_labels_cost_less(self, fig1):
        assert estimate_cost(fig1, parse("d")) < estimate_cost(fig1, parse("c"))

    def test_closures_cost_more(self, fig1):
        assert estimate_cost(fig1, parse("b+")) > estimate_cost(fig1, parse("b"))

    def test_concatenation_multiplies(self, fig1):
        assert estimate_cost(fig1, parse("b.c")) == estimate_cost(
            fig1, parse("b")
        ) * estimate_cost(fig1, parse("c"))

    def test_unknown_label_floor(self, fig1):
        assert estimate_cost(fig1, parse("zz")) == 1.0
