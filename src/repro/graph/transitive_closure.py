"""Transitive-closure algorithms for directed graphs.

The paper's pipeline computes ``TC(Ḡ_R)`` -- the transitive closure of the
*condensation* of the edge-level reduced graph -- instead of ``TC(G_R)``
(Lemma 3 / Theorem 1).  This module supplies every building block plus the
historical algorithms the paper cites as prior art:

* :func:`tc_bfs`       -- per-vertex BFS, O(|V| * |E|).  This is the closure
  computation FullSharing performs on ``G_R`` to materialise ``R+_G``.
* :func:`tc_warshall`  -- O(|V|^3) dynamic programming; only sensible for
  tiny graphs, kept as an independent oracle for tests.
* :func:`dag_closure_bitsets` / :func:`scc_closure` -- reverse-topological
  DP over a :class:`~repro.graph.scc.Condensation` with Python-int bitsets
  (fast set union via ``|``).  This is the engine behind the RTC.
* :func:`tc_purdom`    -- Purdom's algorithm [12]: condense, compute the DAG
  closure, then expand SCC pairs into vertex pairs (Lemma 3 made explicit).
* :func:`tc_nuutila`   -- Nuutila's improvement [13]: interleaves closure
  computation with Tarjan's SCC detection in a single pass.

All pair-returning functions agree exactly; the test suite cross-checks
them on random graphs.  ``(v, v)`` belongs to the closure iff ``v`` lies on
a cycle (including a self-loop) -- the closure is of *paths of length >= 1*,
matching the paper's ``R+`` semantics.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator

from repro.bitset.interner import bit_indexes
from repro.graph.digraph import DiGraph
from repro.graph.scc import Condensation, condense

__all__ = [
    "tc_bfs",
    "tc_warshall",
    "dag_closure_bitsets",
    "scc_closure",
    "tc_purdom",
    "tc_nuutila",
    "transitive_closure_pairs",
]


def tc_bfs(graph: DiGraph) -> set[tuple[object, object]]:
    """Transitive closure by BFS from every vertex -- O(|V| * |E|).

    The pair ``(v, v)`` is included only when ``v`` can reach itself through
    at least one edge (v lies on a cycle), matching Kleene-plus semantics.
    """
    closure: set[tuple[object, object]] = set()
    for start in graph.vertices():
        seen: set[object] = set()
        queue: deque = deque(graph.successors(start))
        while queue:
            vertex = queue.popleft()
            if vertex in seen:
                continue
            seen.add(vertex)
            closure.add((start, vertex))
            for successor in graph.successors(vertex):
                if successor not in seen:
                    queue.append(successor)
    return closure


def tc_warshall(graph: DiGraph) -> set[tuple[object, object]]:
    """Warshall's O(|V|^3) transitive closure.

    Kept as a slow, independent oracle: it shares no code with the
    SCC-based algorithms, so agreement on random graphs is strong evidence
    of correctness.
    """
    vertices = list(graph.vertices())
    index = {vertex: i for i, vertex in enumerate(vertices)}
    n = len(vertices)
    reach = [0] * n
    for source, target in graph.edges():
        reach[index[source]] |= 1 << index[target]
    for k in range(n):
        bit_k = 1 << k
        reach_k = reach[k]
        for i in range(n):
            if reach[i] & bit_k:
                reach[i] |= reach_k
    closure: set[tuple[object, object]] = set()
    for i in range(n):
        row = reach[i]
        source = vertices[i]
        for j in bit_indexes(row):
            closure.add((source, vertices[j]))
    return closure


def dag_closure_bitsets(condensation: Condensation) -> dict[int, int]:
    """Closure of the condensation as ``scc_id -> bitmask of reachable ids``.

    Relies on the id-order invariant of :func:`~repro.graph.scc.condense`:
    every condensation edge points from a higher id to a lower id, so a
    single ascending sweep is a reverse-topological DP.  A cyclic SCC
    (self-loop) reaches itself.
    """
    reach: dict[int, int] = {}
    dag = condensation.dag
    for scc_id in range(condensation.num_sccs):
        mask = 0
        for successor in dag.successors(scc_id):
            if successor == scc_id:
                mask |= 1 << scc_id
            else:
                mask |= (1 << successor) | reach[successor]
        # A vertex on a cycle through *other* SCCs cannot exist (they would
        # be one SCC), so self-reachability comes only from the self-loop.
        reach[scc_id] = mask
    return reach


def scc_closure(condensation: Condensation) -> dict[int, frozenset[int]]:
    """Closure of the condensation as ``scc_id -> frozenset of ids``."""
    bitsets = dag_closure_bitsets(condensation)
    return {
        scc_id: frozenset(bit_indexes(mask)) for scc_id, mask in bitsets.items()
    }


def _expand_scc_pairs(
    condensation: Condensation, bitsets: dict[int, int]
) -> set[tuple[object, object]]:
    """Lemma 3 expansion: SCC-level closure -> vertex-level closure pairs."""
    closure: set[tuple[object, object]] = set()
    members = condensation.members
    for source_id, mask in bitsets.items():
        source_members = members[source_id]
        for target_id in bit_indexes(mask):
            for source in source_members:
                for target in members[target_id]:
                    closure.add((source, target))
    return closure


def tc_purdom(graph: DiGraph) -> set[tuple[object, object]]:
    """Purdom's transitive-closure algorithm [12].

    Condense the graph, compute the closure of the condensation, then take
    the Cartesian product of member sets for every closed SCC pair --
    exactly the construction Lemma 3 formalises.
    """
    condensation = condense(graph)
    bitsets = dag_closure_bitsets(condensation)
    return _expand_scc_pairs(condensation, bitsets)


def tc_nuutila(graph: DiGraph) -> set[tuple[object, object]]:
    """Nuutila's transitive-closure algorithm [13].

    Interleaves the closure DP with Tarjan's SCC detection: when Tarjan
    finishes a component, every component reachable from it is already
    finished (components complete in reverse topological order), so its
    successor set can be unioned immediately -- no separate condensation
    pass.  Implemented iteratively.
    """
    index_of: dict[object, int] = {}
    lowlink: dict[object, int] = {}
    on_stack: set[object] = set()
    stack: list[object] = []
    scc_of: dict[object, int] = {}
    members: list[list[object]] = []
    reach: list[int] = []  # scc id -> bitmask of reachable scc ids
    counter = 0

    for root in graph.vertices():
        if root in index_of:
            continue
        work: list[tuple[object, Iterator]] = [(root, iter(graph.successors(root)))]
        index_of[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)

        while work:
            vertex, successors = work[-1]
            advanced = False
            for successor in successors:
                if successor not in index_of:
                    index_of[successor] = lowlink[successor] = counter
                    counter += 1
                    stack.append(successor)
                    on_stack.add(successor)
                    work.append((successor, iter(graph.successors(successor))))
                    advanced = True
                    break
                if successor in on_stack:
                    if index_of[successor] < lowlink[vertex]:
                        lowlink[vertex] = index_of[successor]
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if lowlink[vertex] < lowlink[parent]:
                    lowlink[parent] = lowlink[vertex]
            if lowlink[vertex] == index_of[vertex]:
                scc_id = len(members)
                component: list[object] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    scc_of[member] = scc_id
                    component.append(member)
                    if member == vertex:
                        break
                members.append(component)
                # Interleaved closure step: union the (already complete)
                # reach sets of adjacent components.
                mask = 0
                cyclic = len(component) > 1
                for member in component:
                    for successor in graph.successors(member):
                        if successor == member:
                            cyclic = True
                            continue
                        successor_id = scc_of[successor]
                        if successor_id == scc_id:
                            cyclic = True
                        else:
                            mask |= (1 << successor_id) | reach[successor_id]
                if cyclic:
                    mask |= 1 << scc_id
                reach.append(mask)

    closure: set[tuple[object, object]] = set()
    for source_id, mask in enumerate(reach):
        for target_id in bit_indexes(mask):
            for source in members[source_id]:
                for target in members[target_id]:
                    closure.add((source, target))
    return closure


_ALGORITHMS = {
    "bfs": tc_bfs,
    "warshall": tc_warshall,
    "purdom": tc_purdom,
    "nuutila": tc_nuutila,
}


def transitive_closure_pairs(
    graph: DiGraph, algorithm: str = "purdom"
) -> set[tuple[object, object]]:
    """Dispatch to one of the closure algorithms by name.

    ``algorithm`` is one of ``"bfs"``, ``"warshall"``, ``"purdom"``,
    ``"nuutila"``.  Purdom is the default: it is the SCC-based method the
    paper builds on and the fastest on graphs with non-trivial SCCs.
    """
    try:
        implementation = _ALGORITHMS[algorithm]
    except KeyError:
        raise ValueError(
            f"unknown transitive-closure algorithm {algorithm!r}; "
            f"expected one of {sorted(_ALGORITHMS)}"
        ) from None
    return implementation(graph)
