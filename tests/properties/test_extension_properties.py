"""Property-based tests for the extension features.

* :func:`repro.regex.simplify.simplify` preserves the language exactly
  (word enumeration + canonical key) on random expressions;
* witness extraction produces valid, accepted paths whose key set equals
  plain evaluation;
* :class:`repro.core.incremental.IncrementalRTC` stays equal to the
  batch pipeline under random insertion sequences;
* evaluating the simplified query never changes engine results.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import LABELS, labeled_graphs, regexes
from repro.core.engines import RTCSharingEngine
from repro.core.incremental import IncrementalRTC
from repro.regex.dfa import canonical_key
from repro.regex.nfa import compile_nfa
from repro.regex.simplify import is_nullable_ast, simplify
from repro.rpq.evaluate import eval_rpq
from repro.rpq.witness import eval_rpq_with_witness

WORDS = [
    list(word)
    for length in range(0, 4)
    for word in itertools.product(LABELS, repeat=length)
]


@settings(max_examples=60, deadline=None)
@given(regexes())
def test_simplify_preserves_language(node):
    original = compile_nfa(node)
    rewritten = compile_nfa(simplify(node))
    for word in WORDS:
        assert original.accepts_word(word) == rewritten.accepts_word(word)


@settings(max_examples=40, deadline=None)
@given(regexes())
def test_simplify_preserves_canonical_key(node):
    assert canonical_key(node) == canonical_key(simplify(node))


@settings(max_examples=60, deadline=None)
@given(regexes())
def test_simplify_is_idempotent(node):
    once = simplify(node)
    assert simplify(once) == once


@settings(max_examples=60, deadline=None)
@given(regexes())
def test_is_nullable_matches_nfa(node):
    assert is_nullable_ast(node) == compile_nfa(node).nullable


@settings(max_examples=30, deadline=None)
@given(labeled_graphs(max_vertices=6, max_edges=14), regexes())
def test_witness_pairs_equal_eval(graph, node):
    witnesses = eval_rpq_with_witness(graph, node)
    assert set(witnesses) == eval_rpq(graph, node)


@settings(max_examples=30, deadline=None)
@given(labeled_graphs(max_vertices=6, max_edges=14), regexes())
def test_witnesses_are_accepted_paths(graph, node):
    nfa = compile_nfa(node)
    for (start, end), witness in eval_rpq_with_witness(graph, node).items():
        vertices = [witness[i] for i in range(0, len(witness), 2)]
        labels = [witness[i] for i in range(1, len(witness), 2)]
        assert vertices[0] == start and vertices[-1] == end
        for i, label in enumerate(labels):
            assert graph.has_edge(vertices[i], label, vertices[i + 1])
        assert nfa.accepts_word(labels)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=2, max_value=6),
    st.sampled_from(["a", "a.b", "a|b"]),
    st.lists(
        st.tuples(
            st.integers(0, 5), st.sampled_from(["a", "b"]), st.integers(0, 5)
        ),
        min_size=1,
        max_size=12,
    ),
)
def test_incremental_rtc_equals_batch(size, body, insertions):
    from repro.graph.multigraph import LabeledMultigraph

    graph = LabeledMultigraph()
    for vertex in range(size):
        graph.add_vertex(vertex)
    incremental = IncrementalRTC(graph, body)
    for source, label, target in insertions:
        source %= size
        target %= size
        if graph.has_edge(source, label, target):
            continue
        incremental.add_edge(source, label, target)
        expected = eval_rpq(graph, f"({body})+")
        assert incremental.plus_pairs() == expected


@settings(max_examples=30, deadline=None)
@given(labeled_graphs(), regexes())
def test_simplify_changes_no_engine_result(graph, node):
    plain = RTCSharingEngine(graph).evaluate(node)
    simplified = RTCSharingEngine(graph).evaluate(simplify(node))
    assert plain == simplified
