"""Bit-parallel evaluation primitives over interned adjacency rows.

This is the evaluation pipeline: frontiers are Python big-int bitmaps
advanced by OR-sweeps of the graph's label-indexed adjacency rows
(:meth:`~repro.graph.multigraph.LabeledMultigraph.bit_rows`), one
traversal step per automaton state ORing whole target rows, and every
answer is a :class:`PairBitmap` that is decoded to vertex tuples once,
by whoever needs tuples.

The tuple-set evaluators of :mod:`repro.rpq` are the counted reference,
not an alternative: they run exactly when a
:class:`~repro.rpq.counters.OpCounters` is attached (the tallies count
per-edge work a word-parallel sweep never performs), and the
``tests/bitset`` identity suite holds this module to their answers on
randomized graphs, the benchmark workloads and mid-run updates.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.bitset.pairbitmap import PairBitmap

__all__ = [
    "bfs_mask",
    "eval_label_sequence_bits",
    "eval_rpq_bits",
    "sweep",
]


def sweep(rows: dict[int, int], mask: int) -> int:
    """OR together the adjacency rows of every vertex id set in ``mask``.

    The elementary bit-parallel traversal step: one label's frontier
    advances in a single pass over its set bits, each contributing a
    whole target row.
    """
    reached = 0
    get = rows.get
    while mask:
        low = mask & -mask
        row = get(low.bit_length() - 1)
        if row:
            reached |= row
        mask ^= low
    return reached


def bfs_mask(rows_of, delta, accepts, start_states, starts: int) -> int:
    """Product BFS from a start bitmap; returns the accepted-vertex bitmap.

    ``rows_of`` maps a label to its adjacency rows: ``graph.bit_rows``
    walks edges forward, ``graph.rev_bit_rows`` backward (with ``delta``
    the reversed automaton).  The frontier is one bitmap per automaton
    state; each level ORs the adjacency rows of the frontier's vertices,
    per transition label, into the successor states' bitmaps.
    ``visited`` masks give the duplicate-avoidance of the paper's
    Example 2.  With several bits set in ``starts`` the result is the
    union of the per-start answers (the image of the whole set), found
    in one traversal.  Zero-length matches are not included.
    """
    frontier = {state: starts for state in start_states}
    visited = dict(frontier)
    result = 0
    while frontier:
        next_frontier: dict[int, int] = {}
        for state, mask in frontier.items():
            row = delta.get(state)
            if not row:
                continue
            for label, next_states in row.items():
                reached = sweep(rows_of(label), mask)
                if not reached:
                    continue
                for next_state in next_states:
                    fresh = reached & ~visited.get(next_state, 0)
                    if not fresh:
                        continue
                    visited[next_state] = visited.get(next_state, 0) | fresh
                    next_frontier[next_state] = (
                        next_frontier.get(next_state, 0) | fresh
                    )
                    if next_state in accepts:
                        result |= fresh
        frontier = next_frontier
    return result


def eval_rpq_bits(graph, nfa, starts: Iterable | None = None) -> PairBitmap:
    """All ``(start, end)`` pairs of paths the automaton accepts.

    ``nfa`` is a compiled :class:`~repro.regex.nfa.LabelNFA`.  One
    product BFS per candidate start (a vertex with an out-edge that can
    begin a match, or the given ``starts`` that the graph holds); a
    nullable language contributes ``(v, v)`` for every vertex of the
    graph (or of ``starts``), following Definition 2 with the
    zero-length path.
    """
    interner = graph.interner
    if starts is None:
        start_ids: set[int] = set()
        for label in nfa.first_labels:
            start_ids.update(graph.bit_rows(label))
        reflexive: Iterable = graph.vertices() if nfa.nullable else ()
    else:
        kept = [vertex for vertex in starts if graph.has_vertex(vertex)]
        start_ids = set(map(interner.id_of, kept))
        reflexive = kept if nfa.nullable else ()

    result = PairBitmap.identity(map(interner.id_of, reflexive), interner)
    rows_of = graph.bit_rows
    for start_id in start_ids:
        result.add_row(
            start_id,
            bfs_mask(rows_of, nfa.delta, nfa.accepts, nfa.start, 1 << start_id),
        )
    return result


def _extend_right_bits(graph, bitmap: PairBitmap, label: str) -> PairBitmap:
    """``{(s, t') | (s, t) in bitmap, t -label-> t'}`` as row sweeps."""
    rows = graph.bit_rows(label)
    result = PairBitmap(interner=bitmap.interner)
    for source_id, mask in bitmap.rows.items():
        reached = sweep(rows, mask)
        if reached:
            result.rows[source_id] = reached
    return result


def _extend_left_bits(graph, bitmap: PairBitmap, label: str) -> PairBitmap:
    """``{(s', t) | (s, t) in bitmap, s' -label-> s}`` via reverse rows."""
    rev_rows = graph.rev_bit_rows(label)
    result = PairBitmap(interner=bitmap.interner)
    rows = result.rows
    for middle_id, target_mask in bitmap.rows.items():
        sources = rev_rows.get(middle_id)
        if not sources:
            continue
        while sources:
            low = sources & -sources
            source_id = low.bit_length() - 1
            rows[source_id] = rows.get(source_id, 0) | target_mask
            sources ^= low
    return result


def label_rows_bitmap(graph, label: str) -> PairBitmap:
    """The one-label edge relation as a :class:`PairBitmap` (copied rows)."""
    return PairBitmap(dict(graph.bit_rows(label)), interner=graph.interner)


def eval_label_sequence_bits(
    graph,
    labels: Sequence[str],
    order: str = "rare-first",
) -> PairBitmap:
    """Bit-parallel :func:`repro.rpq.label_join.eval_label_sequence`.

    Same join-order strategies (``left-right`` folds, ``rare-first``
    anchors at the rarest label and grows toward the cheaper side); the
    per-step relation is a :class:`PairBitmap` and each extension is a
    row AND/OR sweep instead of a tuple join.  The answer stays a
    bitmap over the graph's interner -- callers that need tuples decode
    it once with :meth:`PairBitmap.to_pairs`.
    """
    interner = graph.interner
    if not labels:
        return PairBitmap.identity(map(interner.id_of, graph.vertices()), interner)
    if order == "left-right":
        bitmap = label_rows_bitmap(graph, labels[0])
        for label in labels[1:]:
            if not bitmap:
                break
            bitmap = _extend_right_bits(graph, bitmap, label)
        return bitmap
    if order != "rare-first":
        raise ValueError(f"unknown join order {order!r}")

    anchor = min(range(len(labels)), key=lambda i: graph.label_count(labels[i]))
    bitmap = label_rows_bitmap(graph, labels[anchor])
    left = anchor - 1
    right = anchor + 1
    while bitmap and (left >= 0 or right < len(labels)):
        extend_left = False
        if right >= len(labels):
            extend_left = True
        elif left >= 0:
            extend_left = graph.label_count(labels[left]) <= graph.label_count(
                labels[right]
            )
        if extend_left:
            bitmap = _extend_left_bits(graph, bitmap, labels[left])
            left -= 1
        else:
            bitmap = _extend_right_bits(graph, bitmap, labels[right])
            right += 1
    return bitmap
