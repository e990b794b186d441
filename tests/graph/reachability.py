"""Reachability oracles over directed graphs.

The paper's related-work section (VI) observes that the result of ``R+`` on
``G`` equals the result of a *reachability query* on the edge-level reduced
graph ``G_R``.  This module provides two oracles over a :class:`DiGraph`:

* :class:`OnlineBfsOracle` -- no index; answers each query with a BFS.
  Mirrors the "traverse at run-time if needed" family [25], [26].
* :class:`SccIntervalOracle` -- index-only oracle in the spirit of [23],
  [24]: condenses the graph once, computes the DAG closure with bitsets,
  and answers queries with two dictionary lookups and one bit test.

Both answer *positive-length* reachability (``u`` reaches ``v`` via a path
of >= 1 edge), consistent with Kleene-plus semantics everywhere else in the
library.  They are related-work baselines, not library code: only
``test_reachability.py`` beside this module imports them.
"""

from __future__ import annotations

from collections import deque

from repro.graph.digraph import DiGraph
from repro.graph.scc import condense
from repro.graph.transitive_closure import dag_closure_bitsets

__all__ = ["OnlineBfsOracle", "SccIntervalOracle"]


class OnlineBfsOracle:
    """Index-free reachability: answer each query with a fresh BFS.

    Cheap to build (nothing to build), expensive to query -- the classic
    trade-off anchor for reachability-index papers.
    """

    def __init__(self, graph: DiGraph) -> None:
        self._graph = graph

    def reaches(self, source: object, target: object) -> bool:
        """True when a path of length >= 1 runs from ``source`` to ``target``."""
        graph = self._graph
        if source not in graph:
            return False
        seen: set[object] = set()
        queue: deque = deque(graph.successors(source))
        while queue:
            vertex = queue.popleft()
            if vertex == target:
                return True
            if vertex in seen:
                continue
            seen.add(vertex)
            for successor in graph.successors(vertex):
                if successor not in seen:
                    queue.append(successor)
        return False


class SccIntervalOracle:
    """Index-only reachability via the condensation closure.

    Building cost is one Tarjan pass plus the bitset DP; queries are O(1).
    The index is exactly the paper's RTC, which is why the RTC doubles as a
    reachability index for ``G_R``.
    """

    def __init__(self, graph: DiGraph) -> None:
        self._condensation = condense(graph)
        self._reach = dag_closure_bitsets(self._condensation)

    @property
    def index_size(self) -> int:
        """Total number of (scc, scc) pairs stored in the index."""
        return sum(mask.bit_count() for mask in self._reach.values())

    def reaches(self, source: object, target: object) -> bool:
        """True when a path of length >= 1 runs from ``source`` to ``target``."""
        scc_of = self._condensation.scc_of
        source_id = scc_of.get(source)
        target_id = scc_of.get(target)
        if source_id is None or target_id is None:
            return False
        return bool(self._reach[source_id] & (1 << target_id))
