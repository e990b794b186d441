"""Bit-parallel evaluation primitives over interned adjacency rows.

The kernels here mirror the set-based evaluators of :mod:`repro.rpq`
one-to-one -- same semantics, same pruning -- but carry their frontiers
as Python big-int bitmaps and advance them with OR-sweeps of the
graph's label-indexed adjacency rows
(:meth:`~repro.graph.multigraph.LabeledMultigraph.bit_rows`).  One
traversal step per automaton state ORs whole target rows instead of
inserting ``(vertex, state)`` tuples one at a time, so the per-edge
cost collapses to a fraction of a word operation.

The set evaluators remain the oracle: they carry the paper's
:class:`~repro.rpq.counters.OpCounters` instrumentation, and the
``tests/bitset`` identity suite asserts both kernels return identical
answers on randomized graphs, the benchmark workloads, and mid-run
updates.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.bitset.pairbitmap import PairBitmap
from repro.graph.transitive_closure import iter_bits

__all__ = [
    "alphabet_reachable_mask",
    "bfs_mask",
    "eval_label_sequence_bits",
    "eval_rpq_bits",
    "eval_rpq_dfa_bits",
    "expand_rtc_bits",
    "iter_bits",
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


def bfs_mask(graph, delta, accepts, start_states, starts: int) -> int:
    """Product BFS from a start bitmap; returns the accepted-vertex bitmap.

    The frontier is one bitmap per automaton state; each level ORs the
    adjacency rows of the frontier's vertices, per transition label,
    into the successor states' bitmaps.  ``visited`` masks give the
    same duplicate-avoidance as the set evaluator's per-start visited
    set (paper Example 2).  With several bits set in ``starts`` the
    result is the union of the per-start answers (the image of the
    whole set), found in one traversal.
    """
    frontier = {state: starts for state in start_states}
    visited = dict(frontier)
    result = 0
    bit_rows = graph.bit_rows
    while frontier:
        next_frontier: dict[int, int] = {}
        for state, mask in frontier.items():
            row = delta.get(state)
            if not row:
                continue
            for label, next_states in row.items():
                reached = sweep(bit_rows(label), mask)
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


def _candidate_start_ids(graph, first_labels) -> set[int]:
    """Ids of vertices with an out-edge that can begin a match."""
    starts: set[int] = set()
    for label in first_labels:
        starts.update(graph.bit_rows(label))
    return starts


def eval_rpq_bits(
    graph,
    nfa,
    starts: Iterable | None = None,
) -> set[tuple[object, object]]:
    """Bit-parallel :func:`repro.rpq.evaluate.eval_rpq` (same contract).

    ``nfa`` is a compiled :class:`~repro.regex.nfa.LabelNFA`; the
    nullable language contributes reflexive pairs exactly as the set
    kernel does.
    """
    interner = graph.interner
    if starts is None:
        start_ids = _candidate_start_ids(graph, nfa.first_labels)
        reflexive: Iterable = graph.vertices() if nfa.nullable else ()
    else:
        kept = [vertex for vertex in starts if graph.has_vertex(vertex)]
        start_ids = {interner.id_of(vertex) for vertex in kept}
        start_ids.discard(None)
        reflexive = kept if nfa.nullable else ()

    results: set[tuple[object, object]] = set()
    for vertex in reflexive:
        results.add((vertex, vertex))

    delta = nfa.delta
    accepts = nfa.accepts
    vertex_of = interner.vertex_of
    for start_id in start_ids:
        mask = bfs_mask(graph, delta, accepts, nfa.start, 1 << start_id)
        if not mask:
            continue
        start = vertex_of(start_id)
        for target_id in iter_bits(mask):
            results.add((start, vertex_of(target_id)))
    return results


def eval_rpq_dfa_bits(
    graph,
    dfa,
    starts: Iterable | None = None,
) -> set[tuple[object, object]]:
    """Bit-parallel :func:`repro.rpq.dfa_eval.eval_rpq_dfa` (same contract)."""
    interner = graph.interner
    first_labels = set(dfa.delta[dfa.start])
    if starts is None:
        start_ids = _candidate_start_ids(graph, first_labels)
        reflexive: Iterable = (
            graph.vertices() if dfa.start in dfa.accepts else ()
        )
    else:
        kept = [vertex for vertex in starts if graph.has_vertex(vertex)]
        start_ids = {interner.id_of(vertex) for vertex in kept}
        start_ids.discard(None)
        reflexive = kept if dfa.start in dfa.accepts else ()

    # The DFA's delta is a tuple of label -> one-state rows; wrap the
    # targets in tuples so the product BFS sees the NFA shape.
    delta = {
        state: {label: (target,) for label, target in row.items()}
        for state, row in enumerate(dfa.delta)
    }
    accepts = dfa.accepts
    results: set[tuple[object, object]] = set()
    for vertex in reflexive:
        results.add((vertex, vertex))
    vertex_of = interner.vertex_of
    for start_id in start_ids:
        mask = bfs_mask(graph, delta, accepts, (dfa.start,), 1 << start_id)
        if not mask:
            continue
        start = vertex_of(start_id)
        for target_id in iter_bits(mask):
            results.add((start, vertex_of(target_id)))
    return results


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


def alphabet_reachable_mask(
    graph,
    labels: Iterable[str],
    sources: Iterable,
    reverse: bool = False,
) -> int:
    """Vertices reachable from ``sources`` via edges labeled in ``labels``.

    A label-order-blind BFS over the union of the given labels' rows --
    an *over*-approximation of any RPQ over that alphabet, which makes
    it a sound pruning filter: a vertex outside the mask cannot end any
    matching path.  ``reverse=True`` sweeps the reverse adjacency rows
    instead, answering "which vertices can reach ``sources``" -- the
    membership prefilter of the cluster's cut-relevant ``reaches`` fast
    path.  Source bits are included in the returned mask.
    """
    rows_of = graph.rev_bit_rows if reverse else graph.bit_rows
    label_rows = [rows_of(label) for label in labels]
    label_rows = [rows for rows in label_rows if rows]
    seen = graph.interner.mask_of(sources)
    frontier = seen
    while frontier:
        reached = 0
        for rows in label_rows:
            reached |= sweep(rows, frontier)
        frontier = reached & ~seen
        seen |= frontier
    return seen


def expand_rtc_bits(rtc, interner=None) -> PairBitmap:
    """Theorem 1 as bitmaps: ``R+_G`` from an RTC, one row per member.

    Function spelling of
    :meth:`~repro.core.rtc.ReducedTransitiveClosure.expand_bits`.
    """
    return rtc.expand_bits(interner)
