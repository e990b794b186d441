"""Shard-local summaries for the cluster's boundary join.

A shard holding an induced subgraph cannot answer an RPQ alone when
satisfying paths cross cut edges.  What it *can* answer, exactly and
locally and **independently of which start is asked about**, is where
each traversal *source* gets to inside the shard:

* the **exit nodes** ``(u, s)`` it reaches -- ``u`` a cut source of this
  shard, ``s`` the automaton state on arrival -- from which the router
  can follow a cut edge; and
* the **end vertices** it reaches in an accepting state.

The sources are numbered as *tags*.  The first ``len(starts)`` tags are
the shard's own candidate start vertices (seeded in every start state
of the automaton); the remaining ones are the router-supplied **entry
nodes** ``(w, s')`` -- a cut target this shard owns and the state a cut
edge into it leaves the automaton in.  The cut relation and the query
automaton fix the entry nodes before any shard is asked, so one call
per shard is the whole conversation: :func:`summarise_shard` runs *one*
product traversal carrying a bitmask of tags per ``(vertex, state)``
node, so its cost follows the product graph, not the number of
sources.

The router closes the reported exits over the cut edges and reads every
start's answer off that closure; see :mod:`repro.cluster.boundary`.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

from repro.bitset.interner import bit_indexes
from repro.graph.multigraph import LabeledMultigraph
from repro.regex.nfa import LabelNFA

__all__ = ["ShardSummary", "summarise_shard"]


@dataclass
class ShardSummary:
    """What one shard's sources reach locally, as tag bitmasks.

    Tag ``i < len(starts)`` is the candidate start ``starts[i]``; tag
    ``len(starts) + j`` is the ``j``-th entry node the caller passed.
    """

    #: The shard's candidate start vertices, in tag order.
    starts: list
    #: ``(cut source, state) -> tags`` reaching that exit node.
    exits: dict
    #: ``vertex -> tags`` reaching it in an accepting state.
    ends: dict
    #: Every vertex of the shard when the query is nullable (its
    #: reflexive pairs; each vertex is owned by exactly one shard), else
    #: empty.
    reflexive: list = field(default_factory=list)


def summarise_shard(
    graph: LabeledMultigraph,
    nfa: LabelNFA,
    boundary: Iterable,
    entries: Sequence[tuple] = (),
) -> ShardSummary:
    """Summarise one shard's subgraph for the router's boundary closure.

    Parameters
    ----------
    graph:
        The shard's induced subgraph.
    nfa:
        The compiled query automaton (shared state numbering with the
        router: :func:`~repro.regex.nfa.compile_nfa` is deterministic).
    boundary:
        The shard's cut sources; only ``(vertex, state)`` nodes on them
        are reported as exits.
    entries:
        The ``(vertex, state)`` entry nodes this shard owns.  Vertices
        the shard does not hold keep their tag but reach nothing.

    A source reaches its own seed node, so a start or entry sitting on
    a boundary vertex is an exit and an entry in an accepting state is
    an end, both in zero local steps.
    """
    interner = graph.interner
    id_of = interner.id_of
    vertex_of = interner.vertex_of
    delta = nfa.delta
    start_ids = sorted(
        {vid for label in nfa.first_labels for vid in graph.bit_rows(label)}
    )

    frontier: dict[tuple[int, int], int] = {}
    bit = 1
    for vid in start_ids:
        for state in nfa.start:
            frontier[(vid, state)] = bit
        bit <<= 1
    for vertex, state in entries:
        vid = id_of(vertex)
        if vid is not None:
            node = (vid, state)
            frontier[node] = frontier.get(node, 0) | bit
        bit <<= 1

    # Level-synchronous propagation of the *fresh* tags only: a node
    # re-enters the frontier once per level that brought it new tags,
    # not once per arriving edge.
    reached = dict(frontier)
    moves: dict[tuple[int, int], list] = {}
    while frontier:
        work: dict[tuple[int, int], int] = {}
        for node, tags in frontier.items():
            successors = moves.get(node)
            if successors is None:
                vid, state = node
                successors = moves[node] = [
                    (target, next_state)
                    for label, next_states in delta[state].items()
                    for target in bit_indexes(graph.bit_rows(label).get(vid, 0))
                    for next_state in next_states
                ]
            for successor in successors:
                seen = reached.get(successor, 0)
                fresh = tags & ~seen
                if fresh:
                    reached[successor] = seen | fresh
                    work[successor] = work.get(successor, 0) | fresh
        frontier = work

    boundary_ids = {id_of(vertex) for vertex in boundary}
    accepting = nfa.accepts
    exits: dict = {}
    end_tags: dict[int, int] = {}
    for (vid, state), tags in reached.items():
        if vid in boundary_ids:
            exits[(vertex_of(vid), state)] = tags
        if state in accepting:
            end_tags[vid] = end_tags.get(vid, 0) | tags
    return ShardSummary(
        starts=[vertex_of(vid) for vid in start_ids],
        exits=exits,
        ends={vertex_of(vid): tags for vid, tags in end_tags.items()},
        reflexive=list(graph.vertices()) if nfa.nullable else [],
    )
