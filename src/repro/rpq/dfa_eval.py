"""DFA-based RPQ evaluation -- the determinised automaton variant.

The NFA product traversal of :mod:`repro.rpq.evaluate` visits
``(vertex, nfa_state)`` pairs; with a determinised automaton the frontier
carries exactly one DFA state per graph vertex, trading the subset-
construction cost (paid once per query) for fewer product pairs during
traversal.  Whether that trades well depends on the query: closure-heavy
queries touch each (vertex, state) pair many times and tend to gain;
queries with tiny NFAs do not.  The ablation benchmark
``benchmarks/test_ablation_automata.py`` measures the trade on the
paper's workloads.

Semantics are identical to :func:`repro.rpq.evaluate.eval_rpq` and the
test suite asserts equality on random graph/query pairs.  This is an
ablation evaluator: it always walks tuple sets, counted or not.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable

from repro.graph.multigraph import LabeledMultigraph
from repro.regex.ast import RegexNode
from repro.regex.dfa import DFA, determinize
from repro.regex.nfa import compile_nfa
from repro.regex.parser import parse
from repro.rpq.counters import OpCounters

__all__ = ["eval_rpq_dfa", "eval_dfa_from"]


def eval_dfa_from(
    graph: LabeledMultigraph,
    dfa: DFA,
    start: object,
    counters: OpCounters | None = None,
) -> set:
    """End vertices of paths from ``start`` accepted by the DFA.

    BFS over (vertex, dfa_state) pairs; at most one state per NFA subset,
    so the visited set is bounded by ``|V| * |DFA states|``.
    """
    delta = dfa.delta
    accepts = dfa.accepts
    results: set = set()
    visited: set[tuple[object, int]] = {(start, dfa.start)}  # repro: noqa[RPR801] -- (vertex, state) visited set of the set-kernel baseline, not a pair relation
    queue: deque[tuple[object, int]] = deque([(start, dfa.start)])
    if counters is not None:
        counters.traversal_starts += 1
    while queue:
        vertex, state = queue.popleft()
        if counters is not None:
            counters.states_expanded += 1
        for label, next_state in delta[state].items():
            for target in graph.targets(vertex, label):
                if counters is not None:
                    counters.edges_scanned += 1
                pair = (target, next_state)
                if pair in visited:
                    continue
                visited.add(pair)
                queue.append(pair)
                if next_state in accepts:
                    results.add(target)
    if counters is not None:
        counters.pairs_emitted += len(results)
    return results


def eval_rpq_dfa(
    graph: LabeledMultigraph,
    query: str | RegexNode | DFA,
    starts: Iterable | None = None,
    counters: OpCounters | None = None,
) -> set[tuple[object, object]]:
    """Evaluate an RPQ with a determinised automaton.

    Same contract as :func:`repro.rpq.evaluate.eval_rpq`: returns all
    ``(start, end)`` pairs, including reflexive pairs when the language
    contains the empty word.
    """
    if isinstance(query, DFA):
        dfa = query
    else:
        dfa = determinize(compile_nfa(parse(query)))

    first_labels = set(dfa.delta[dfa.start])
    if starts is None:
        traversal_starts: set = set()
        for label in first_labels:
            for source, _target in graph.edges_with_label(label):
                traversal_starts.add(source)
        reflexive: Iterable = graph.vertices()
    else:
        traversal_starts = {v for v in starts if graph.has_vertex(v)}
        reflexive = traversal_starts

    results: set[tuple[object, object]] = set()  # repro: noqa[RPR801] -- set-kernel ablation baseline; counter-instrumented runs stay on tuples
    if dfa.start in dfa.accepts:
        for vertex in reflexive:
            results.add((vertex, vertex))
    for start in traversal_starts:
        for end in eval_dfa_from(graph, dfa, start, counters):
            results.add((start, end))
    return results
