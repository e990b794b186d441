"""Automaton-based RPQ evaluation (the paper's Section II-B / Example 2).

The evaluator simulates an epsilon-free NFA while traversing the graph:
from each candidate start vertex it runs a BFS over (vertex, NFA-state)
product pairs, recording ``(start, vertex)`` whenever an accepting state is
reached.  A (vertex, state) pair already visited from the same start is
never expanded again -- exactly the duplicate-avoidance rule of the paper's
Example 2 (``p(v7,d,v4,b,v1,c,v2,b,v5,c,v4,b,v1)`` terminates because
``(v1, q2)`` was seen before).

Two standard prunings, both used by the Yakovets-style baseline the paper
compares against, are applied:

* start vertices are restricted to those with at least one out-edge whose
  label can begin a match (``first_labels`` of the NFA);
* per (vertex, state) pair, only the labels of the automaton's transition
  row are looked up in the graph (one decoded label row each).

This module is the *counted reference*: the tuple-set traversal runs
when an :class:`OpCounters` is attached (the ablation figures tally its
per-edge work) and is what the identity suites hold the bitmap kernel
to.  Without counters :func:`eval_rpq` is
:func:`repro.bitset.kernel.eval_rpq_bits`, decoded to tuples once.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable

from repro.bitset.kernel import eval_rpq_bits
from repro.errors import UnknownLabelError
from repro.graph.multigraph import LabeledMultigraph
from repro.regex.ast import RegexNode
from repro.regex.nfa import LabelNFA, compile_nfa
from repro.regex.parser import parse
from repro.rpq.counters import OpCounters

__all__ = [
    "eval_rpq",
    "eval_rpq_from",
    "candidate_starts",
    "check_alphabet",
]


def check_alphabet(graph: LabeledMultigraph, nfa: LabelNFA) -> None:
    """Raise :class:`UnknownLabelError` for labels absent from the graph.

    Evaluation without this check is still correct (missing labels match
    nothing); engines expose it as an opt-in strictness knob.
    """
    known = set(graph.labels())
    for label in sorted(nfa.labels):
        if label not in known:
            raise UnknownLabelError(label)


def candidate_starts(graph: LabeledMultigraph, nfa: LabelNFA) -> set:
    """Vertices that can possibly begin a non-empty match.

    A traversal from any other vertex dies on the first step, so skipping
    them is pure win.  (Zero-length matches from ``nullable`` queries are
    handled separately by the caller.)
    """
    starts: set = set()
    for label in nfa.first_labels:
        for source, _target in graph.edges_with_label(label):
            starts.add(source)
    return starts


def eval_rpq_from(
    graph: LabeledMultigraph,
    nfa: LabelNFA,
    start: object,
    counters: OpCounters | None = None,
) -> set:
    """End vertices of paths from ``start`` satisfying the automaton.

    Implements one traversal of the paper's Example 2: BFS over
    (vertex, state) pairs with a per-start visited set.  Zero-length
    matches are **not** included (callers add ``start`` when the query is
    nullable and they want reflexive pairs).
    """
    delta = nfa.delta
    accepts = nfa.accepts
    results: set = set()
    visited: set[tuple[object, int]] = set()  # repro: noqa[RPR801] -- (vertex, state) visited set of the set-kernel baseline, not a pair relation
    queue: deque[tuple[object, int]] = deque()
    for state in nfa.start:
        pair = (start, state)
        visited.add(pair)
        queue.append(pair)

    if counters is not None:
        counters.traversal_starts += 1

    while queue:
        vertex, state = queue.popleft()
        if counters is not None:
            counters.states_expanded += 1
        for label, next_states in delta[state].items():
            for target in graph.targets(vertex, label):
                if counters is not None:
                    counters.edges_scanned += 1
                for next_state in next_states:
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


def eval_rpq(
    graph: LabeledMultigraph,
    query: str | RegexNode | LabelNFA,
    starts: Iterable | None = None,
    counters: OpCounters | None = None,
    strict_labels: bool = False,
) -> set[tuple[object, object]]:
    """Evaluate an RPQ: all ``(start, end)`` pairs of satisfying paths.

    Parameters
    ----------
    graph:
        The edge-labeled multigraph ``G``.
    query:
        Query text, AST, or a pre-compiled :class:`LabelNFA`.
    starts:
        Restrict traversal to these start vertices (used by
        ``EvalRestrictedRPQ``); ``None`` evaluates from every candidate.
    counters:
        Optional :class:`OpCounters` to tally traversal work; attaching
        one selects the tuple-set traversal the tallies describe.
    strict_labels:
        When true, raise :class:`UnknownLabelError` if the query uses a
        label missing from the graph.

    Notes
    -----
    A nullable query (language contains the empty word) contributes the
    pair ``(v, v)`` for **every** vertex of the graph (or of ``starts``),
    following Definition 2 with the zero-length path.
    """
    if isinstance(query, LabelNFA):
        nfa = query
    else:
        nfa = compile_nfa(parse(query))
    if strict_labels:
        check_alphabet(graph, nfa)
    if counters is None:
        return eval_rpq_bits(graph, nfa, starts=starts).to_pairs()

    if starts is None:
        traversal_starts: Iterable = candidate_starts(graph, nfa)
    else:
        traversal_starts = [vertex for vertex in starts if graph.has_vertex(vertex)]

    results: set[tuple[object, object]] = set()  # repro: noqa[RPR801] -- counted reference: counter-instrumented runs stay on tuples
    if nfa.nullable:
        reflexive = graph.vertices() if starts is None else traversal_starts
        for vertex in reflexive:
            results.add((vertex, vertex))

    for start in traversal_starts:
        for end in eval_rpq_from(graph, nfa, start, counters):
            results.add((start, end))
    return results
