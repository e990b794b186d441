"""Partitioning one labeled multigraph into shard subgraphs.

Two strategies coexist:

``component`` (the default, and the fast path)
    The cluster's original correctness rule: a satisfying path of any
    RPQ stays inside one weakly-connected component of ``G`` (every step
    follows an edge, so the path's vertices are all weakly connected to
    its start).  A partition that keeps every component whole makes the
    per-shard answers *disjoint* and their union exactly the
    single-session answer -- no cross-shard joins, no duplicate
    elimination beyond a set union.  :func:`partition_graph` bin-packs
    the components greedily, largest (by edge count) first onto the
    currently lightest shard.

``edge-cut``
    Any partition is legal: vertices are assigned in balanced,
    BFS-contiguous ranges, same-shard edges land in the shard
    subgraphs, and edges whose endpoints live on two shards are recorded
    in the partition's explicit ``cut_edges`` relation instead of any
    subgraph.  The router compensates by closing per-shard summaries
    over the cut relation (see :mod:`repro.rpq.partial` and
    :mod:`repro.cluster.boundary`); when the cut relation is empty the
    union merge applies unchanged.

``auto``
    ``component`` unless one component dominates (the heaviest shard
    would reach twice the ideal load), then ``edge-cut``.

The resulting :class:`GraphPartition` keeps the ``vertex -> shard``
assignment so the serving layer can route streaming updates to the
owning shard, can ``assign`` brand-new vertices as updates introduce
them, and tracks the cut relation as cross-shard edges come and go.
"""

from __future__ import annotations

import threading
from collections import deque
from collections.abc import Iterable

from repro.errors import ClusterError, GraphError
from repro.graph.multigraph import LabeledMultigraph

__all__ = [
    "GraphPartition",
    "partition_graph",
    "weakly_connected_components",
    "PARTITION_STRATEGIES",
]

#: Recognised ``partition_graph`` strategies.
PARTITION_STRATEGIES = ("component", "edge-cut", "auto")


def weakly_connected_components(graph: LabeledMultigraph) -> list[list]:
    """The weakly-connected components of ``graph`` (isolated vertices too).

    Each component is a list of vertices; components are returned in a
    deterministic order (sorted by string form of their representative)
    so partitioning is reproducible across processes and hash seeds.
    """
    seen: set = set()
    components: list[list] = []
    for root in sorted(graph.vertices(), key=str):
        if root in seen:
            continue
        seen.add(root)
        component = [root]
        stack = [root]
        while stack:
            vertex = stack.pop()
            for _label, target in graph.out_edges(vertex):
                if target not in seen:
                    seen.add(target)
                    component.append(target)
                    stack.append(target)
            for _label, source in graph.in_edges(vertex):
                if source not in seen:
                    seen.add(source)
                    component.append(source)
                    stack.append(source)
        components.append(component)
    return components


class GraphPartition:
    """A split of one graph into shard subgraphs plus a cut relation.

    Holds the shard subgraphs themselves, the ``vertex -> shard``
    assignment used for routing, and the ``cut_edges`` relation: every
    ``(source, label, target)`` edge whose endpoints live on different
    shards.  Component-disjoint partitions simply have an empty cut
    relation.  Assignment and cut state are mutable (updates introduce
    vertices and cross-shard edges) and internally locked, so the
    serving layer may route from multiple threads.  Every change to the
    cut relation bumps its version (:meth:`cut_state`), so a reader can
    keep what it derived from one relation until the version moves.
    """

    def __init__(
        self,
        shards: list[LabeledMultigraph],
        shard_of: dict,
        cut_edges: Iterable[tuple] = (),
    ) -> None:
        if not shards:
            raise ClusterError(
                "a partition needs at least one shard",
                code="cluster.topology",
            )
        self.shards = shards
        self._shard_of = dict(shard_of)
        self._cut_edges = {tuple(edge) for edge in cut_edges}
        self._cut_version = 0
        self._cut_snapshot: frozenset | None = None
        self._lock = threading.Lock()

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def has_cuts(self) -> bool:
        """True when at least one edge crosses a shard boundary."""
        with self._lock:
            return bool(self._cut_edges)

    def cut_state(self) -> tuple[int, frozenset]:
        """``(cut version, cut relation)``, read together.

        The version counts the changes to the relation.  The relation is
        copied once per version and shared until the next change, so
        repeated reads of an unchanged relation are free.
        """
        with self._lock:
            if self._cut_snapshot is None:
                self._cut_snapshot = frozenset(self._cut_edges)
            return self._cut_version, self._cut_snapshot

    def cut_relation(self) -> frozenset:
        """A snapshot of the cross-shard ``(source, label, target)`` edges."""
        return self.cut_state()[1]

    def boundary_vertices(self, shard: int) -> frozenset:
        """The vertices of ``shard`` incident to at least one cut edge."""
        with self._lock:
            return frozenset(
                vertex
                for source, _label, target in self._cut_edges
                for vertex in (source, target)
                if self._shard_of.get(vertex) == shard
            )

    def record_cut(self, source: object, label: str, target: object) -> None:
        """Add one cross-shard edge to the cut relation.

        Raises :class:`~repro.errors.GraphError` on a duplicate, matching
        the multigraph's own duplicate-edge contract.
        """
        edge = (source, label, target)
        with self._lock:
            if edge in self._cut_edges:
                raise GraphError(
                    f"duplicate cross-shard edge {source!r} -{label}-> {target!r}"
                )
            self._cut_edges.add(edge)
            self._cut_version += 1
            self._cut_snapshot = None

    def discard_cut(self, source: object, label: str, target: object) -> bool:
        """Remove one cut edge; returns False when it was not recorded."""
        edge = (source, label, target)
        with self._lock:
            if edge not in self._cut_edges:
                return False
            self._cut_edges.remove(edge)
            self._cut_version += 1
            self._cut_snapshot = None
            return True

    def has_cut(self, source: object, label: str, target: object) -> bool:
        with self._lock:
            return (source, label, target) in self._cut_edges

    def shard_of(self, vertex: object) -> int | None:
        """The shard owning ``vertex``, or None for an unknown vertex."""
        with self._lock:
            return self._shard_of.get(vertex)

    def assign(self, vertex: object, shard: int) -> int:
        """Record ``vertex`` as owned by ``shard`` (first assignment wins).

        Returns the effective shard, which may differ from the request
        when a concurrent router already assigned the vertex.
        """
        if not 0 <= shard < len(self.shards):
            raise ClusterError(
                f"shard {shard} is out of range for {len(self.shards)} shards",
                code="cluster.topology",
                shards=(shard,),
            )
        with self._lock:
            return self._shard_of.setdefault(vertex, shard)

    def edge_owners(self, source: object, target: object) -> tuple:
        """The ``(source_shard, target_shard)`` owners of an edge's endpoints.

        Either entry is None for a vertex the cluster has not seen.
        """
        with self._lock:
            return (self._shard_of.get(source), self._shard_of.get(target))

    def shard_for_edge(self, source: object, target: object) -> int | None:
        """The single shard an edge between ``source`` and ``target`` lives on.

        Returns None when both endpoints are new to the cluster (the
        caller picks a shard and :meth:`assign`\\ s them) *and* when the
        endpoints live on two different shards -- a cross-shard edge
        belongs to no shard subgraph; it is recorded in the cut relation
        instead (use :meth:`edge_owners` to distinguish the two cases).
        """
        source_shard, target_shard = self.edge_owners(source, target)
        if source_shard is None and target_shard is None:
            return None
        if source_shard is None:
            return target_shard
        if target_shard is None:
            return source_shard
        if source_shard != target_shard:
            return None
        return source_shard

    def stats(self) -> dict:
        """Per-shard size statistics (the ``stats`` verb's cluster section)."""
        with self._lock:
            cut_count = len(self._cut_edges)
        return {
            "num_shards": self.num_shards,
            "cut_edges": cut_count,
            "shards": [
                {
                    "shard": index,
                    "vertices": graph.num_vertices,
                    "edges": graph.num_edges,
                    "labels": graph.num_labels,
                    "boundary": len(self.boundary_vertices(index)),
                }
                for index, graph in enumerate(self.shards)
            ],
        }

    def __repr__(self) -> str:
        sizes = ", ".join(str(graph.num_edges) for graph in self.shards)
        with self._lock:
            cuts = len(self._cut_edges)
        return (
            f"GraphPartition(shards={self.num_shards}, edges=[{sizes}], "
            f"cuts={cuts})"
        )


def _bfs_vertex_order(graph: LabeledMultigraph) -> list:
    """All vertices in deterministic BFS order, component by component.

    BFS contiguity keeps most edges inside a chunk when the order is
    sliced into ranges, which is what makes naive range assignment a
    reasonable edge-cut partitioner.
    """
    seen: set = set()
    order: list = []
    for root in sorted(graph.vertices(), key=str):
        if root in seen:
            continue
        seen.add(root)
        queue = deque([root])
        while queue:
            vertex = queue.popleft()
            order.append(vertex)
            neighbours = {target for _label, target in graph.out_edges(vertex)}
            neighbours.update(
                source for _label, source in graph.in_edges(vertex)
            )
            for neighbour in sorted(neighbours, key=str):
                if neighbour not in seen:
                    seen.add(neighbour)
                    queue.append(neighbour)
    return order


def _partition_components(
    graph: LabeledMultigraph, num_shards: int
) -> GraphPartition:
    components = weakly_connected_components(graph)

    def component_edges(component: Iterable) -> int:
        return sum(graph.out_degree(vertex) for vertex in component)

    weighted = sorted(
        ((component_edges(component), component) for component in components),
        key=lambda item: (-item[0], -len(item[1]), str(item[1][0])),
    )

    loads = [0] * num_shards
    shard_of: dict = {}
    for weight, component in weighted:
        shard = loads.index(min(loads))
        loads[shard] += weight
        for vertex in component:
            shard_of[vertex] = shard

    shards = [LabeledMultigraph() for _ in range(num_shards)]
    for vertex, shard in shard_of.items():
        shards[shard].add_vertex(vertex)
    for source, label, target in graph.edges():
        shards[shard_of[source]].add_edge(source, label, target)
    return GraphPartition(shards, shard_of)


def _partition_edge_cut(
    graph: LabeledMultigraph, num_shards: int
) -> GraphPartition:
    order = _bfs_vertex_order(graph)
    total = len(order)
    base, extra = divmod(total, num_shards)

    shard_of: dict = {}
    cursor = 0
    for shard in range(num_shards):
        size = base + (1 if shard < extra else 0)
        for vertex in order[cursor : cursor + size]:
            shard_of[vertex] = shard
        cursor += size

    shards = [LabeledMultigraph() for _ in range(num_shards)]
    for vertex, shard in shard_of.items():
        shards[shard].add_vertex(vertex)
    cut_edges = []
    for source, label, target in graph.edges():
        source_shard = shard_of[source]
        if source_shard == shard_of[target]:
            shards[source_shard].add_edge(source, label, target)
        else:
            cut_edges.append((source, label, target))
    return GraphPartition(shards, shard_of, cut_edges)


def partition_graph(
    graph: LabeledMultigraph,
    num_shards: int,
    strategy: str = "component",
) -> GraphPartition:
    """Split ``graph`` into ``num_shards`` subgraphs.

    ``strategy`` selects how (underscores are accepted for hyphens):

    ``"component"``
        Whole weakly-connected components, packed greedily by descending
        edge count onto the currently lightest shard.  Shard answers are
        disjoint and union-mergeable; the cut relation is empty.  With
        fewer components than shards, the surplus shards hold empty
        graphs (they simply answer every query with the empty set).
    ``"edge-cut"``
        Balanced contiguous ranges of a deterministic BFS vertex order;
        cross-range edges land in the partition's ``cut_edges`` relation
        and the router joins partial paths over them.  This is what
        makes a single giant component shard at all.
    ``"auto"``
        ``"component"`` unless its heaviest shard would reach twice the
        ideal edge load, then ``"edge-cut"``.
    """
    if num_shards < 1:
        raise ClusterError(
            f"num_shards must be >= 1, got {num_shards}",
            code="cluster.topology",
        )
    strategy = str(strategy).replace("_", "-")
    if strategy not in PARTITION_STRATEGIES:
        raise ClusterError(
            f"unknown partition strategy {strategy!r}; expected one of "
            f"{', '.join(PARTITION_STRATEGIES)}",
            code="cluster.unsupported",
        )

    if strategy == "auto":
        candidate = _partition_components(graph, num_shards)
        if num_shards == 1 or graph.num_edges == 0:
            return candidate
        heaviest = max(shard.num_edges for shard in candidate.shards)
        ideal = graph.num_edges / num_shards
        # Strict: a single giant component on two shards sits exactly at
        # 2x ideal, and that is precisely the case edge-cut exists for.
        if heaviest < 2 * ideal:
            return candidate
        strategy = "edge-cut"

    if strategy == "component":
        return _partition_components(graph, num_shards)
    return _partition_edge_cut(graph, num_shards)
