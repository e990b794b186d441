"""Property tests of the shared plan cache (:mod:`repro.core.plan`).

A plan is a pure function of its query: its batch units are exactly a
fresh DNF + decomposition, its group key exactly
:func:`~repro.core.plan.closure_group_key`, and evaluating it -- shared
across engines and graphs -- answers exactly what the no-sharing oracle
does.
"""

import pytest
from hypothesis import given, settings

from strategies import labeled_graphs, regexes
from repro.core.cache import make_key_function
from repro.core.decompose import decompose_clause
from repro.core.dnf import to_dnf
from repro.core.engines import FullSharingEngine, NoSharingEngine, RTCSharingEngine
from repro.core.plan import closure_group_key, plan_for
from repro.errors import EvaluationError


@settings(max_examples=100, deadline=None)
@given(regexes())
def test_units_equal_a_fresh_decomposition(node):
    plan = plan_for(node)
    for max_clauses in (4096, 3):
        try:
            clauses = to_dnf(node, max_clauses)
        except EvaluationError:
            with pytest.raises(EvaluationError):
                plan.units(max_clauses)
            continue
        units = plan.units(max_clauses)
        assert [step.unit for step in units] == [
            decompose_clause(clause) for clause in clauses
        ]
        for step in units:
            unit = step.unit
            assert (step.pre is None) == (unit.pre.to_string() == "()")
            if step.pre is not None:
                assert step.pre.node == unit.pre
            has_post = unit.has_closure and bool(unit.post_labels)
            assert (step.post is not None) == has_post


@settings(max_examples=100, deadline=None)
@given(regexes())
def test_group_key_equals_closure_group_key(node):
    plan = plan_for(node.to_string())
    for mode in ("syntactic", "semantic"):
        key_function = make_key_function(mode)
        assert plan.group_key(mode) == closure_group_key(node, key_function)


@settings(max_examples=50, deadline=None)
@given(labeled_graphs(), labeled_graphs(), regexes())
def test_a_shared_plan_answers_like_the_oracle(graph, other, node):
    plan = plan_for(node.to_string())
    for target in (graph, other):
        expected = NoSharingEngine(target).evaluate(node)
        assert RTCSharingEngine(target).evaluate(plan) == expected
        semantic = RTCSharingEngine(target, cache_mode="semantic")
        assert semantic.evaluate(plan) == expected
        assert FullSharingEngine(target).evaluate(plan) == expected


@settings(max_examples=100, deadline=None)
@given(labeled_graphs(), regexes())
def test_bodies_are_the_rtcs_evaluation_builds(graph, node):
    plan = plan_for(node.to_string())
    for mode in ("syntactic", "semantic"):
        engine = RTCSharingEngine(graph, cache_mode=mode)
        engine.evaluate(plan)
        built = "|".join(sorted(key for key, _rtc in engine.rtc_cache.items()))
        assert "|".join(sorted(set(plan.bodies(mode)))) == built
