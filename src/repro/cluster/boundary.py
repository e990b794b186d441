"""The router's half of the boundary join: a closure over the boundary graph.

Over an edge-cut partition a satisfying path is a sequence of *local
segments* separated by cut edges.  The shards summarise the segments
(:func:`repro.rpq.partial.summarise_shard`); this module, which needs
no cluster, threads or sockets, does everything else:

:func:`plan`
    From the query automaton and the relevant cut edges alone, fix the
    **entry nodes** ``(w, s')`` -- cut target x state entered over a cut
    edge -- and the one-cut-edge relation ``hop(u, s)`` from an exit
    node ``(cut source u, state s)`` to the entries it leads to.  The
    entries a shard owns are the extra traversal sources it is asked to
    summarise, so the plan exists before any shard is called.  The
    automaton is trim (:func:`~repro.regex.nfa.compile_nfa`), so every
    entry sits on a live state.  A plan depends on nothing a read
    changes, so the cluster keeps one per repeated query text until the
    cut relation changes; that memo and the cluster's answer cache each
    hold at most :data:`~repro.core.plan.PLAN_MEMO_LIMIT` texts.

:func:`close`
    Turn the summaries into the answer.  Every exit a source reaches
    becomes ``hop`` steps: from a start, the entries its first segment
    leads to; from an entry, entry -> entry edges of the **boundary
    graph** (at most ``|cuts| x |live states|`` nodes).  The accepted
    ends are then closed over that graph once -- ``image[e]`` is every
    end accepted from entry ``e`` through any number of further
    segments and cut edges -- so every start shares one closure: its row
    is its local ends OR-ed with the images of the entries its exits hit.

Correctness: cut an accepting path at its cut edges.  The first segment
runs from a start tag to an exit (or, with no cut edge, to a local
end); every middle segment from an entry to an exit; the last from an
entry to an accepted end -- each exactly what a summary reports, and
each cut edge exactly one ``hop``.  Conversely every chain of reported
segments and hops spells a path of the whole graph with an accepting
run.  Three facts need no shard and are added here: an entry sitting on
a cut source steps on without a local edge, an entry in an accepting
state accepts its own vertex, and a cut source is a start through its
cut edges even when its shard holds no matching first-label edge.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass

from repro.bitset import PairBitmap, VertexInterner
from repro.bitset.interner import bit_indexes
from repro.regex.nfa import LabelNFA
from repro.rpq.partial import ShardSummary

__all__ = [
    "BoundaryPlan",
    "plan",
    "close",
    "summary_to_wire",
    "summary_from_wire",
]


@dataclass
class BoundaryPlan:
    """What the cut relation and the automaton fix before any shard call."""

    nfa: LabelNFA
    #: The cut edges the plan was built from.
    cuts: tuple
    #: Entry nodes ``(cut target, state)``; an entry's id is its bit in
    #: every entry mask.
    entries: VertexInterner
    #: ``(cut source, state) -> entry mask`` reached over one cut edge.
    hops: dict
    #: ``shard -> [entry id]`` in the tag order the shard is handed.
    entries_of: dict
    #: ``shard -> {cut source}``: the exits the shard must report.
    boundary_of: dict

    def hop(self, vertex: object, state: int) -> int:
        return self.hops.get((vertex, state), 0)

    def shard_entries(self, shard: int) -> list[tuple]:
        """The entry nodes ``shard`` owns, as ``(vertex, state)`` tags."""
        node_of = self.entries.vertex_of
        return [node_of(entry) for entry in self.entries_of.get(shard, ())]


def plan(
    nfa: LabelNFA, cuts: Iterable[tuple], shard_of: Callable
) -> BoundaryPlan:
    """Entry nodes, hops and per-shard work for one query over ``cuts``.

    ``cuts`` are ``(source, label, target)`` cross-shard edges (labels
    outside the query alphabet contribute nothing); ``shard_of`` maps a
    vertex to its owning shard, or ``None``.
    """
    cuts = tuple(cuts)
    moves: dict = {}  # label -> [(state, next states)]
    for state, row in nfa.delta.items():
        for label, next_states in row.items():
            moves.setdefault(label, []).append((state, next_states))
    entries = VertexInterner()
    hops: dict = {}
    boundary_of: dict = {}
    for source, label, target in cuts:
        shard = shard_of(source)
        if shard is not None:
            boundary_of.setdefault(shard, set()).add(source)
        for state, next_states in moves.get(label, ()):
            entry_mask = 0
            for next_state in next_states:
                entry_mask |= 1 << entries.intern((target, next_state))
            exit_node = (source, state)
            hops[exit_node] = hops.get(exit_node, 0) | entry_mask
    entries_of: dict = {}
    for entry, (vertex, _state) in enumerate(entries):
        shard = shard_of(vertex)
        if shard is not None:
            entries_of.setdefault(shard, []).append(entry)
    return BoundaryPlan(nfa, cuts, entries, hops, entries_of, boundary_of)


def _distribute(
    tags: int, value: int, real: list[int], entry: list[int], entry_ids: list[int]
) -> None:
    """OR ``value`` into the slot of every tag set in ``tags``."""
    n_real = len(real)
    for tag in bit_indexes(tags & ((1 << n_real) - 1)):
        real[tag] |= value
    for tag in bit_indexes(tags >> n_real):
        entry[entry_ids[tag]] |= value


def close(plan: BoundaryPlan, summaries: dict[int, ShardSummary]) -> PairBitmap:
    """The query's answer from one summary per contributing shard.

    ``summaries[shard]`` must have been computed with
    ``plan.shard_entries(shard)`` as its entries.  Shards without a
    summary (no label of the query, so no local segment) still take
    part through the router-side facts of the module docstring.
    """
    nfa = plan.nfa
    accepting = nfa.accepts
    pairs = PairBitmap(interner=VertexInterner())
    intern = pairs.interner.intern

    # Per entry: the entries one segment + one cut edge leads to, and
    # the ends one segment accepts.
    step = [plan.hop(vertex, state) for vertex, state in plan.entries]
    ends = [
        1 << intern(vertex) if state in accepting else 0
        for vertex, state in plan.entries
    ]
    # Per start: (vertex, entry mask its exits hit, local end mask).
    starts: list[tuple] = []
    for (vertex, state), entry_mask in plan.hops.items():
        if state in nfa.start:
            starts.append((vertex, entry_mask, 0))

    for shard, summary in summaries.items():
        entry_ids = plan.entries_of.get(shard, ())
        start_hops = [0] * len(summary.starts)
        start_ends = [0] * len(summary.starts)
        for (vertex, state), tags in summary.exits.items():
            entry_mask = plan.hop(vertex, state)
            if entry_mask:
                _distribute(tags, entry_mask, start_hops, step, entry_ids)
        for vertex, tags in summary.ends.items():
            _distribute(tags, 1 << intern(vertex), start_ends, ends, entry_ids)
        starts.extend(zip(summary.starts, start_hops, start_ends))
        for vertex in summary.reflexive:
            vertex_id = intern(vertex)
            pairs.add(vertex_id, vertex_id)

    image = _close_images(step, ends)
    reached_from = {0: 0}  # entry mask -> ends; starts share few masks
    for vertex, entry_mask, end_mask in starts:
        reached = reached_from.get(entry_mask)
        if reached is None:
            reached = 0
            for entry in bit_indexes(entry_mask):
                reached |= image[entry]
            reached_from[entry_mask] = reached
        pairs.add_row(intern(vertex), end_mask | reached)
    return pairs


def _close_images(step: list[int], ends: list[int]) -> list[int]:
    """``image[e] = ends[e] | OR image[e']`` over ``step[e]``, closed.

    The closure is used once, so the end images are pushed through the
    boundary graph directly rather than through a materialised
    transitive closure: in-place sweeps, one big-int OR per edge, in
    alternating directions -- a chain settles in two sweeps whichever
    way it points, a strongly connected boundary graph in a few.
    """
    image = list(ends)
    order = [
        (entry, bit_indexes(mask)) for entry, mask in enumerate(step) if mask
    ]
    changed = True
    while changed:
        changed = False
        for entry, targets in order:
            before = reached = image[entry]
            for target in targets:
                reached |= image[target]
            if reached != before:
                image[entry] = reached
                changed = True
        order.reverse()
    return image


def summary_to_wire(summary: ShardSummary) -> dict:
    """A summary as JSON: vertices verbatim, tag masks as hex strings."""
    return {
        "starts": list(summary.starts),
        "exits": [
            [vertex, state, format(tags, "x")]
            for (vertex, state), tags in summary.exits.items()
        ],
        "ends": [
            [vertex, format(tags, "x")] for vertex, tags in summary.ends.items()
        ],
        "reflexive": list(summary.reflexive),
    }


def summary_from_wire(wire: dict) -> ShardSummary:
    """The inverse of :func:`summary_to_wire`."""
    return ShardSummary(
        starts=wire["starts"],
        exits={
            (vertex, state): int(tags, 16)
            for vertex, state, tags in wire["exits"]
        },
        ends={vertex: int(tags, 16) for vertex, tags in wire["ends"]},
        reflexive=wire["reflexive"],
    )
