"""``EvalRestrictedRPQ`` -- evaluate ``Post`` from a single start vertex.

Algorithm 2 (line 14) calls ``EvalRestrictedRPQ(Post, v_k)`` for every
vertex ``v_k`` produced by the closure join.  ``Post`` is guaranteed
closure-free by the clause decomposition, so two fast paths exist:

* a plain label sequence -> frontier expansion
  (:func:`~repro.rpq.label_join.eval_labels_from`);
* anything else (unions survive inside ``Pre``/``R`` recursion but a
  closure-free ``Post`` can still be e.g. ``a.(b|c)``) -> single-start
  automaton traversal.

:class:`RestrictedEvaluator` compiles the query once and is then called
per start vertex -- the compile cost is paid once per batch unit, not once
per vertex.
"""

from __future__ import annotations

from repro.bitset.kernel import bfs_mask, sweep
from repro.graph.multigraph import LabeledMultigraph
from repro.regex.ast import Concat, Epsilon, Label, RegexNode, contains_closure
from repro.regex.nfa import compile_nfa
from repro.regex.parser import parse
from repro.rpq.counters import OpCounters
from repro.rpq.evaluate import eval_rpq_from
from repro.rpq.label_join import eval_labels_from

__all__ = ["RestrictedEvaluator", "as_label_sequence"]


def as_label_sequence(node: RegexNode) -> list[str] | None:
    """Return the label list when ``node`` is a pure concatenation of labels.

    Returns ``[]`` for epsilon and ``None`` when the expression contains
    any other operator.
    """
    if isinstance(node, Epsilon):
        return []
    if isinstance(node, Label):
        return [node.name]
    if isinstance(node, Concat):
        labels: list[str] = []
        for part in node.parts:
            if isinstance(part, Label):
                labels.append(part.name)
            elif isinstance(part, Epsilon):
                continue
            else:
                return None
        return labels
    return None


class RestrictedEvaluator:
    """Single-start evaluator for a fixed closure-free query.

    >>> from repro.graph import paper_figure1_graph
    >>> evaluator = RestrictedEvaluator("c")
    >>> sorted(evaluator.ends_from(paper_figure1_graph(), 2))
    [5]
    """

    def __init__(self, query: str | RegexNode) -> None:
        node = parse(query)
        if contains_closure(node):
            raise ValueError(
                f"EvalRestrictedRPQ requires a closure-free query, got {node}"
            )
        self._node = node
        self._labels = as_label_sequence(node)
        self._nfa = None if self._labels is not None else compile_nfa(node)
        self._nullable = (
            not self._labels if self._labels is not None else self._nfa.nullable
        )

    @property
    def is_epsilon(self) -> bool:
        """True when the query is exactly epsilon (identity relation)."""
        return self._labels == []

    @property
    def nullable(self) -> bool:
        """True when the language contains the empty word."""
        return self._nullable

    def ends_from(
        self,
        graph: LabeledMultigraph,
        start: object,
        counters: OpCounters | None = None,
    ) -> set:
        """End vertices of satisfying paths from ``start`` (incl. zero-length).

        Matches Algorithm 2's use: returns ``{v_l | (v_k, v_l) found}``;
        includes ``start`` itself when the query is nullable.  Without
        ``counters`` the walk runs on id-space rows (as :meth:`ends_mask`
        does) and is decoded once; the counted reference walks tuple sets.
        """
        if counters is None:
            start_id = graph.interner.id_of(start)
            if start_id is not None:
                if self._labels:
                    # The first step is the start's own row: no sweep.
                    ends = graph.bit_rows(self._labels[0]).get(start_id, 0)
                    for label in self._labels[1:]:
                        ends = sweep(graph.bit_rows(label), ends)
                else:
                    ends = self.ends_mask(graph, 1 << start_id)
                return set(graph.interner.vertices_of(ends))
        if self._labels is not None:
            ends = eval_labels_from(graph, self._labels, start, counters)
        else:
            ends = eval_rpq_from(graph, self._nfa, start, counters)
            if self._nullable:
                ends = set(ends)
                ends.add(start)
        return ends

    def ends_mask(self, graph: LabeledMultigraph, starts: int) -> int:
        """Bit-parallel :meth:`ends_from` for a whole set of starts.

        ``starts`` and the result are bitmaps over the graph's interner;
        the result is the union of ``ends_from(v)`` over the set bits --
        ``Post`` applied to a closure row in one traversal (label-row
        sweeps for a label sequence, one product BFS otherwise).
        """
        if self._labels is not None:
            ends = starts
            for label in self._labels:
                if not ends:
                    break
                ends = sweep(graph.bit_rows(label), ends)
            return ends
        nfa = self._nfa
        ends = bfs_mask(graph.bit_rows, nfa.delta, nfa.accepts, nfa.start, starts)
        return ends | starts if self._nullable else ends
