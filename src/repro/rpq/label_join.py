"""Join-based evaluation of closure-free label sequences.

A DNF clause without a Kleene closure is a plain concatenation of labels
``l1 . l2 . ... . ln``.  Evaluating it is a relational join of the per-label
edge relations (Lemma 4 applied n-1 times), and the join *order* matters:
Koschmieder & Leser [10] anchor the evaluation at the rarest label and grow
outward, which prunes enormously on skewed label distributions.

Two strategies are provided (results identical, cross-checked in tests):

* :func:`eval_label_sequence` with ``order="left-right"`` -- fold joins
  left to right;
* ``order="rare-first"`` -- start from the label with the fewest edges and
  repeatedly extend toward the cheaper neighbouring label.

:func:`eval_labels_from` is the single-start variant used for ``Post``
evaluation inside ``EvalBatchUnit`` (Algorithm 2, line 14).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.bitset.kernel import eval_label_sequence_bits
from repro.graph.multigraph import LabeledMultigraph
from repro.rpq.counters import OpCounters

__all__ = ["eval_label_sequence", "eval_labels_from"]


def _extend_right(
    graph: LabeledMultigraph,
    pairs: set[tuple[object, object]],
    label: str,
    counters: OpCounters | None,
) -> set[tuple[object, object]]:
    """Join on the right: ``{(s, t') | (s, t) in pairs, t -label-> t'}``."""
    result: set[tuple[object, object]] = set()  # repro: noqa[RPR801] -- counted reference: counter-instrumented runs stay on tuples
    for source, middle in pairs:
        if counters is not None:
            counters.join_probes += 1
        for target in graph.targets(middle, label):
            if counters is not None:
                counters.edges_scanned += 1
            result.add((source, target))
    return result


def _extend_left(
    graph: LabeledMultigraph,
    pairs: set[tuple[object, object]],
    label: str,
    counters: OpCounters | None,
) -> set[tuple[object, object]]:
    """Join on the left: ``{(s', t) | (s, t) in pairs, s' -label-> s}``."""
    result: set[tuple[object, object]] = set()  # repro: noqa[RPR801] -- counted reference: counter-instrumented runs stay on tuples
    for middle, target in pairs:
        if counters is not None:
            counters.join_probes += 1
        for source in graph.sources(middle, label):
            if counters is not None:
                counters.edges_scanned += 1
            result.add((source, target))
    return result


def eval_label_sequence(
    graph: LabeledMultigraph,
    labels: Sequence[str],
    order: str = "rare-first",
    counters: OpCounters | None = None,
) -> set[tuple[object, object]]:
    """All ``(start, end)`` pairs connected by the label sequence.

    ``order`` chooses the join strategy: ``"left-right"`` or
    ``"rare-first"`` (default).  An empty sequence denotes epsilon and
    yields the reflexive pairs of all vertices.  Without ``counters``
    the joins are bitmap row sweeps, decoded to tuples here, once
    (callers that can stay in id space call
    :func:`~repro.bitset.kernel.eval_label_sequence_bits` themselves);
    with them, the counted tuple joins below.  Both honour ``order``.
    """
    if counters is None:
        return eval_label_sequence_bits(graph, labels, order=order).to_pairs()
    if not labels:
        return {(vertex, vertex) for vertex in graph.vertices()}  # repro: noqa[RPR801] -- counted reference; the bits path returned above
    if order == "left-right":
        pairs = set(graph.edges_with_label(labels[0]))
        if counters is not None:
            counters.edges_scanned += len(pairs)
        for label in labels[1:]:
            if not pairs:
                return set()
            pairs = _extend_right(graph, pairs, label, counters)
        return pairs
    if order != "rare-first":
        raise ValueError(f"unknown join order {order!r}")

    # Anchor at the rarest label, then grow toward the cheaper side.
    anchor = min(range(len(labels)), key=lambda i: graph.label_count(labels[i]))
    pairs = set(graph.edges_with_label(labels[anchor]))
    if counters is not None:
        counters.edges_scanned += len(pairs)
    left = anchor - 1
    right = anchor + 1
    while pairs and (left >= 0 or right < len(labels)):
        extend_left = False
        if right >= len(labels):
            extend_left = True
        elif left >= 0:
            extend_left = graph.label_count(labels[left]) <= graph.label_count(
                labels[right]
            )
        if extend_left:
            pairs = _extend_left(graph, pairs, labels[left], counters)
            left -= 1
        else:
            pairs = _extend_right(graph, pairs, labels[right], counters)
            right += 1
    if left >= 0 or right < len(labels):
        return set()
    return pairs


def eval_labels_from(
    graph: LabeledMultigraph,
    labels: Sequence[str],
    start: object,
    counters: OpCounters | None = None,
) -> set:
    """End vertices of label-sequence paths starting at ``start``.

    The single-start evaluator behind ``EvalRestrictedRPQ(Post, v_k)``
    when ``Post`` is a plain label sequence: a frontier expansion with one
    set per step, no automaton needed.
    """
    frontier: set = {start}
    for label in labels:
        next_frontier: set = set()
        for vertex in frontier:
            if counters is not None:
                counters.join_probes += 1
            for target in graph.targets(vertex, label):
                if counters is not None:
                    counters.edges_scanned += 1
                next_frontier.add(target)
        if not next_frontier:
            return set()
        frontier = next_frontier
    return frontier
