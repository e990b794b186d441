"""Property-based tests for the regex substrate."""

import itertools
from unittest import mock

from hypothesis import given, settings

from strategies import regexes
from repro.core.dnf import dnf_to_regex, to_dnf
from repro.regex.dfa import canonical_key, determinize, minimize
from repro.regex.nfa import LabelNFA, compile_nfa, thompson
from repro.regex.parser import parse

WORDS = [
    list(word)
    for length in range(0, 4)
    for word in itertools.product("abc", repeat=length)
]


@settings(max_examples=60, deadline=None)
@given(regexes())
def test_parse_to_string_roundtrip(node):
    """to_string() re-parses to the identical AST."""
    assert parse(node.to_string()) == node


@settings(max_examples=40, deadline=None)
@given(regexes())
def test_dnf_preserves_language(node):
    """The closure-literal DNF accepts exactly the original language."""
    original = compile_nfa(node)
    converted = compile_nfa(dnf_to_regex(to_dnf(node)))
    for word in WORDS:
        assert original.accepts_word(word) == converted.accepts_word(word)


@settings(max_examples=40, deadline=None)
@given(regexes())
def test_dfa_pipeline_preserves_language(node):
    """determinize + minimize accept exactly what the NFA accepts."""
    nfa = compile_nfa(node)
    dfa = minimize(determinize(nfa))
    for word in WORDS:
        assert nfa.accepts_word(word) == dfa.accepts_word(word)


@settings(max_examples=30, deadline=None)
@given(regexes())
def test_canonical_key_invariant_under_dnf(node):
    """Language-preserving rewrites keep the canonical key stable."""
    assert canonical_key(node) == canonical_key(dnf_to_regex(to_dnf(node)))


@settings(max_examples=30, deadline=None)
@given(regexes(), regexes())
def test_canonical_key_separates_languages(first, second):
    """Equal keys imply equal acceptance on sampled words (soundness)."""
    if canonical_key(first) == canonical_key(second):
        first_nfa = compile_nfa(first)
        second_nfa = compile_nfa(second)
        for word in WORDS:
            assert first_nfa.accepts_word(word) == second_nfa.accepts_word(word)


@settings(max_examples=40, deadline=None)
@given(regexes())
def test_nullable_flag_matches_empty_word(node):
    assert compile_nfa(node).nullable == compile_nfa(node).accepts_word([])


@settings(max_examples=40, deadline=None)
@given(regexes())
def test_first_labels_complete(node):
    """Any accepted non-empty word starts with a label in first_labels."""
    nfa = compile_nfa(node)
    for word in WORDS:
        if word and nfa.accepts_word(word):
            assert word[0] in nfa.first_labels


def _thompson_accepts(eps_nfa, word):
    """Direct epsilon-NFA simulation: no closing, no trimming."""
    states = eps_nfa.epsilon_closure({eps_nfa.start})
    for label in word:
        states = eps_nfa.epsilon_closure(
            {
                target
                for state in states
                for target in eps_nfa.transitions.get(state, {}).get(label, ())
            }
        )
    return eps_nfa.accept in states


def _untrimmed_nfa(node) -> LabelNFA:
    """The epsilon-closed Thompson automaton over every reachable state."""
    eps_nfa = thompson(node)
    closures = {
        state: eps_nfa.epsilon_closure({state}) for state in range(eps_nfa.num_states)
    }
    start = closures[eps_nfa.start]
    delta = {}
    stack = list(start)
    while stack:
        state = stack.pop()
        if state in delta:
            continue
        delta[state] = row = {
            label: frozenset().union(*(closures[target] for target in targets))
            for label, targets in eps_nfa.transitions.get(state, {}).items()
        }
        for targets in row.values():
            stack.extend(targets)
    accepts = frozenset(state for state in delta if eps_nfa.accept in closures[state])
    return LabelNFA(
        start=start,
        accepts=accepts,
        delta=delta,
        nullable=not start.isdisjoint(accepts),
        first_labels=frozenset(label for state in start for label in delta[state]),
        labels=frozenset(label for row in delta.values() for label in row),
    )


def _closure_of(seeds, successors):
    seen = set(seeds)
    stack = list(seeds)
    while stack:
        for successor in successors.get(stack.pop(), ()):
            if successor not in seen:
                seen.add(successor)
                stack.append(successor)
    return seen


@settings(max_examples=60, deadline=None)
@given(regexes())
def test_compiled_automaton_is_trim(node):
    """Every state is reachable and co-reachable, and every state named
    anywhere has a transition row."""
    nfa = compile_nfa(node)
    named = set(nfa.start) | set(nfa.accepts)
    forward: dict = {}
    backward: dict = {}
    for state, row in nfa.delta.items():
        for targets in row.values():
            assert targets
            named |= targets
            forward.setdefault(state, set()).update(targets)
            for target in targets:
                backward.setdefault(target, set()).add(state)
    assert named <= set(nfa.delta)
    assert _closure_of(nfa.start, forward) == set(nfa.delta)
    assert _closure_of(nfa.accepts, backward) == set(nfa.delta)


@settings(max_examples=60, deadline=None)
@given(regexes())
def test_trimming_keeps_the_language_and_its_keys(node):
    """The trim automaton accepts what the Thompson automaton accepts,
    and every fact read off the automaton -- alphabet, first labels,
    nullability, the canonical (RTC cache) key -- is the untrimmed one."""
    nfa = compile_nfa(node)
    eps_nfa = thompson(node)
    for word in WORDS:
        assert nfa.accepts_word(word) == _thompson_accepts(eps_nfa, word), word
    reference = _untrimmed_nfa(node)
    assert nfa.labels == reference.labels
    assert nfa.first_labels == reference.first_labels
    assert nfa.nullable == reference.nullable
    with mock.patch("repro.regex.dfa.compile_nfa", _untrimmed_nfa):
        untrimmed_key = canonical_key(node)
    assert canonical_key(node) == untrimmed_key


def test_trimming_drops_epsilon_only_states():
    assert compile_nfa(parse("l2.(l1.l0)+.l0")).num_states == 5
    assert len(_untrimmed_nfa(parse("l2.(l1.l0)+.l0")).delta) == 10
    assert compile_nfa(parse("a+")).num_states == 2
