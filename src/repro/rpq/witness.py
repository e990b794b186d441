"""Witness paths: not just *which* pairs match, but *why*.

``eval_rpq`` returns vertex pairs (Definition 2); applications like the
paper's signal-path detection also want one concrete satisfying path per
pair.  :func:`eval_rpq_with_witness` runs the same product BFS but keeps
parent pointers on (vertex, state) pairs, then reconstructs, for every
result pair, a shortest witness path as the alternating sequence
``[v0, l1, v1, l2, ..., vn]``.

Guarantees (all property-tested):

* the pair set equals :func:`repro.rpq.evaluate.eval_rpq` exactly;
* every witness starts/ends at the pair's vertices;
* every witness's edges exist in the graph;
* every witness's label word is accepted by the query automaton;
* witnesses are shortest (BFS order) in number of edges.
"""

from __future__ import annotations

from collections import deque

from repro.graph.multigraph import LabeledMultigraph
from repro.regex.ast import RegexNode
from repro.regex.nfa import LabelNFA, compile_nfa
from repro.regex.parser import parse

__all__ = ["Witness", "eval_rpq_with_witness"]

# A witness is the alternating tuple (v0, l1, v1, ..., ln, vn).
Witness = tuple


def _witness_from(
    graph: LabeledMultigraph, nfa: LabelNFA, start: object
) -> dict[object, Witness]:
    """BFS with parent pointers; returns end vertex -> shortest witness."""
    parents: dict[tuple[object, int], tuple[object, int, str] | None] = {}
    queue: deque[tuple[object, int]] = deque()
    for state in nfa.start:
        pair = (start, state)
        parents[pair] = None
        queue.append(pair)

    found: dict[object, tuple[object, int]] = {}
    while queue:
        vertex, state = queue.popleft()
        for label, next_states in nfa.delta[state].items():
            for target in graph.targets(vertex, label):
                for next_state in next_states:
                    pair = (target, next_state)
                    if pair in parents:
                        continue
                    parents[pair] = (vertex, state, label)
                    queue.append(pair)
                    if next_state in nfa.accepts and target not in found:
                        found[target] = pair

    witnesses: dict[object, Witness] = {}
    for end_vertex, accept_pair in found.items():
        backwards: list[object] = [accept_pair[0]]
        pair = accept_pair
        while True:
            parent = parents[pair]
            if parent is None:
                break
            previous_vertex, previous_state, label = parent
            backwards.append(label)
            backwards.append(previous_vertex)
            pair = (previous_vertex, previous_state)
        witnesses[end_vertex] = tuple(reversed(backwards))
    return witnesses


def eval_rpq_with_witness(
    graph: LabeledMultigraph,
    query: str | RegexNode | LabelNFA,
    starts=None,
) -> dict[tuple[object, object], Witness]:
    """Evaluate an RPQ returning ``{(start, end): witness_path}``.

    Zero-length matches of nullable queries get the trivial witness
    ``(v,)``.  The key set equals ``eval_rpq(graph, query, starts)``.
    """
    if isinstance(query, LabelNFA):
        nfa = query
    else:
        nfa = compile_nfa(parse(query))

    if starts is None:
        from repro.rpq.evaluate import candidate_starts

        traversal_starts = candidate_starts(graph, nfa)
        reflexive = graph.vertices() if nfa.nullable else ()
    else:
        traversal_starts = [v for v in starts if graph.has_vertex(v)]
        reflexive = traversal_starts if nfa.nullable else ()

    results: dict[tuple[object, object], Witness] = {}
    for vertex in reflexive:
        results[(vertex, vertex)] = (vertex,)
    for start in traversal_starts:
        for end, witness in _witness_from(graph, nfa, start).items():
            key = (start, end)
            if key not in results:
                results[key] = witness
    return results
