"""Incremental RTC maintenance under edge insertions (streaming extension).

The paper's related work points at RPQ evaluation over *streaming* graphs
(Pacaci et al. [29]); its own pipeline is batch: any change to ``G``
invalidates ``R_G``, ``G_R`` and the RTC.  This module maintains all
three **incrementally** for a fixed closure body ``R`` while labeled
edges are inserted into ``G``:

1. **Delta of ``R_G``** -- a new edge ``(u, l, v)`` creates exactly the
   pairs ``starts(q) x ends(q')`` for every NFA transition ``q -l-> q'``,
   where ``ends(q')`` is a forward product-BFS from ``(v, q')`` and
   ``starts(q)`` a *backward* product-BFS from ``(u, q)`` over the
   reversed graph and reversed automaton.
2. **Delta of ``G_R``** -- insert the new pairs into the reduced graph.
3. **RTC update** -- for a pair that keeps the condensation acyclic, run
   the classic Italiano-style DAG closure insertion (every SCC reaching
   the source side absorbs the target side's closure).  A pair that
   closes a cycle merges SCCs; that (rare) case falls back to a full
   ``Compute_RTC``, and the fallback count is exposed so tests and
   benchmarks can see how often it happens.

Correctness contract (property-tested): after any insertion sequence,
:meth:`IncrementalRTC.snapshot` equals ``compute_rtc`` of a from-scratch
re-evaluation, pair for pair.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import cache
from itertools import product

from repro.bitset.kernel import bfs_mask, eval_rpq_bits
from repro.core.cache import body_footprint
from repro.core.rtc import ReducedTransitiveClosure, compute_rtc
from repro.errors import GraphError
from repro.graph.digraph import DiGraph
from repro.graph.multigraph import LabeledMultigraph
from repro.graph.scc import Condensation
from repro.regex.ast import RegexNode
from repro.regex.nfa import LabelNFA, compile_nfa
from repro.regex.parser import parse

__all__ = ["IncrementalRTC"]


def _reverse_delta(nfa: LabelNFA) -> dict[int, dict[str, set[int]]]:
    """``state -> label -> predecessor states`` of the automaton."""
    reverse: dict[int, dict[str, set[int]]] = {state: {} for state in nfa.delta}
    for state, row in nfa.delta.items():
        for label, targets in row.items():
            for target in targets:
                reverse.setdefault(target, {}).setdefault(label, set()).add(state)
    return reverse


class IncrementalRTC:
    """Maintain ``R_G``, ``G_R`` and the RTC of one ``R`` under insertions.

    >>> from repro.graph import LabeledMultigraph
    >>> g = LabeledMultigraph.from_edges([(0, "a", 1)])
    >>> inc = IncrementalRTC(g, "a")
    >>> inc.reaches(0, 1)
    True
    >>> inc.add_edge(1, "a", 0)   # closes a cycle
    >>> inc.reaches(1, 1)
    True
    """

    def __init__(self, graph: LabeledMultigraph, body: str | RegexNode) -> None:
        self._bind(graph, body)
        # Mutable state: G_R and the RTC's three maps.
        self._gr = self._evaluate_gr()
        self._rebuild()

    def _bind(self, graph: LabeledMultigraph, body: str | RegexNode) -> None:
        """Everything fixed for the watcher's life; counters start at zero."""
        self.graph = graph
        self.body = parse(body)
        self._nfa = compile_nfa(self.body)
        self._reverse_nfa = _reverse_delta(self._nfa)
        #: labels of the body, and whether it matches the empty word: an
        #: update the two do not name (:func:`~repro.core.cache.update_touches`)
        #: cannot change this watcher's state, so nobody need notify it.
        self.alphabet, self.nullable = body_footprint(self.body)
        #: how many insertions were handled by full recomputation
        self.full_rebuilds = 0
        #: how many insertions were handled incrementally
        self.incremental_updates = 0

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def reaches(self, source: object, target: object) -> bool:
        """Membership test ``(source, target) in (R+)_G``."""
        source_id = self._scc_of.get(source)
        target_id = self._scc_of.get(target)
        if source_id is None or target_id is None:
            return False
        return target_id in self._closure[source_id]

    def plus_pairs(self) -> set[tuple[object, object]]:
        """Materialise ``(R+)_G`` (Theorem 1 expansion of current state)."""
        return self.snapshot().expand()

    def snapshot(self) -> ReducedTransitiveClosure:
        """A frozen :class:`ReducedTransitiveClosure` of the current state."""
        members = {
            scc_id: tuple(sorted(vertices, key=str))
            for scc_id, vertices in self._members.items()
        }
        dag = DiGraph()
        for scc_id in members:
            dag.add_vertex(scc_id)
        for scc_id, targets in self._closure.items():
            for target in targets:
                dag.add_edge(scc_id, target)
        condensation = Condensation(
            scc_of=dict(self._scc_of), members=members, dag=dag
        )
        return ReducedTransitiveClosure(
            condensation=condensation,
            closure={k: frozenset(v) for k, v in self._closure.items()},
            num_gr_vertices=self._gr.num_vertices,
            num_gr_edges=self._gr.num_edges,
        )

    # ------------------------------------------------------------------
    # persistence (repro.storage)
    # ------------------------------------------------------------------
    def export_state(self) -> tuple[list[tuple[object, object]], ReducedTransitiveClosure]:
        """``(G_R edges, frozen RTC)`` -- everything a restart needs.

        Together with the graph and the body, this is the watcher's full
        state: :meth:`from_state` rebuilds an equivalent watcher without
        re-running ``eval_rpq``.  The update counters are *not* exported
        (a restored watcher starts its statistics at zero).
        """
        edges = sorted(self._gr.edges(), key=lambda pair: (str(pair[0]), str(pair[1])))
        return edges, self.snapshot()

    @classmethod
    def from_state(
        cls,
        graph: LabeledMultigraph,
        body: str | RegexNode,
        gr_edges: Iterable[tuple[object, object]],
        rtc: ReducedTransitiveClosure,
    ) -> "IncrementalRTC":
        """Rebuild a watcher from :meth:`export_state` output.

        ``graph`` must be the same graph the state was exported against
        (the caller -- :mod:`repro.storage.recovery` -- guarantees this by
        stamping the export with the WAL position it was valid at).  The
        expensive ``eval_rpq`` of ``__init__`` is skipped entirely; only
        the NFA is recompiled.
        """
        watcher = cls.__new__(cls)
        watcher._bind(graph, body)
        watcher._gr = DiGraph()
        for source, target in gr_edges:
            watcher._gr.add_edge(source, target)
        watcher._load(rtc)
        return watcher

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def add_edge(self, source: object, label: str, target: object) -> None:
        """Insert ``e(source, label, target)`` into ``G`` and repair state."""
        new_vertices = [
            v for v in (source, target) if not self.graph.has_vertex(v)
        ]
        self.graph.add_edge(source, label, target)
        self.notify_edge_added(source, label, target, new_vertices)

    def notify_edge_added(
        self,
        source: object,
        label: str,
        target: object,
        new_vertices: Iterable[object] = (),
    ) -> None:
        """Repair state for an edge *already inserted* into the bound graph.

        The entry point for multi-watcher setups (``GraphDB.update``):
        the session mutates the shared graph once, then notifies every
        watcher.  ``new_vertices`` are the edge endpoints that did not
        exist before the insertion (they seed identity pairs when ``R``
        is nullable).
        """
        delta = self._rg_delta(source, label, target)
        if self.nullable:
            for vertex in new_vertices:
                delta.add((vertex, vertex))

        for pair in delta:
            if self._gr.add_edge(*pair):
                self._insert_reduced_edge(*pair)

    def remove_edge(self, source: object, label: str, target: object) -> None:
        """Delete ``e(source, label, target)`` from ``G`` and repair state.

        Deletion is fundamentally harder than insertion (a removed edge
        can invalidate arbitrarily many ``R_G`` pairs and split SCCs), so
        this path recomputes ``R_G``, ``G_R`` and the RTC from scratch --
        correct and simple; the rebuild is counted in
        :attr:`full_rebuilds`.  Insertion-heavy streams stay incremental.
        """
        if not self.graph.has_edge(source, label, target):
            raise GraphError(
                f"edge ({source!r}, {label!r}, {target!r}) is not in the graph"
            )
        self.graph.remove_edge(source, label, target)
        self.notify_graph_replaced()

    def notify_graph_replaced(self) -> None:
        """Recompute ``R_G``, ``G_R`` and the RTC from the current graph.

        Used after deletions or arbitrary external graph surgery; counted
        as a full rebuild.
        """
        self._gr = self._evaluate_gr()
        self._rebuild()
        self.full_rebuilds += 1

    def _evaluate_gr(self) -> DiGraph:
        """``G_R`` from scratch: ``R_G`` as edges (reflexive if nullable)."""
        return DiGraph.from_pairs(eval_rpq_bits(self.graph, self._nfa))

    def _rg_delta(
        self, source: object, label: str, target: object
    ) -> set[tuple[object, object]]:
        """New ``R_G`` pairs created by the inserted graph edge.

        For every transition ``q -label-> q'``: the vertices whose
        traversal can sit at ``(source, q)`` (a backward product BFS
        over the reverse rows and the reversed automaton) times the
        vertices where ``(target, q')`` reaches acceptance (a forward
        one), each including its own end in zero steps.
        """
        nfa = self._nfa
        graph = self.graph
        interner = graph.interner

        def reached(rows_of, automaton, accepts, state, vertex) -> tuple:
            bit = 1 << interner.id_of(vertex)
            mask = bfs_mask(rows_of, automaton, accepts, (state,), bit)
            if state in accepts:
                mask |= bit
            return interner.vertices_of(mask)

        # Several transitions share a source or a target state.
        ends_of = cache(
            lambda state: reached(graph.bit_rows, nfa.delta, nfa.accepts, state, target)
        )
        starts_of = cache(
            lambda state: reached(
                graph.rev_bit_rows, self._reverse_nfa, nfa.start, state, source
            )
        )
        delta: set[tuple[object, object]] = set()
        for state, row in nfa.delta.items():
            for next_state in row.get(label, ()):
                ends = ends_of(next_state)
                if ends:
                    delta.update(product(starts_of(state), ends))
        return delta

    # ------------------------------------------------------------------
    # reduced-graph / RTC repair
    # ------------------------------------------------------------------
    def _rebuild(self) -> None:
        """Full Compute_RTC from the current ``G_R`` (the fallback path)."""
        self._load(compute_rtc(self._gr))

    def _load(self, rtc: ReducedTransitiveClosure) -> None:
        """Adopt a frozen RTC as the mutable state."""
        self._scc_of = dict(rtc.condensation.scc_of)
        self._members = {
            scc_id: set(members)
            for scc_id, members in rtc.condensation.members.items()
        }
        self._closure = {
            scc_id: set(targets) for scc_id, targets in rtc.closure.items()
        }

    def _ensure_scc(self, vertex: object) -> int:
        scc_id = self._scc_of.get(vertex)
        if scc_id is not None:
            return scc_id
        scc_id = len(self._members)
        while scc_id in self._members:  # ids are dense, but stay safe
            scc_id += 1
        self._members[scc_id] = {vertex}
        self._closure[scc_id] = set()
        self._scc_of[vertex] = scc_id
        return scc_id

    def _insert_reduced_edge(self, source: object, target: object) -> None:
        """Repair the RTC for one new ``G_R`` edge."""
        source_id = self._ensure_scc(source)
        target_id = self._ensure_scc(target)

        if source_id == target_id:
            # Edge inside an SCC (or a self-loop): the SCC becomes/stays
            # cyclic, so it must reach itself.
            if source_id not in self._closure[source_id]:
                self._add_reach(source_id, source_id)
            self.incremental_updates += 1
            return

        if source_id in self._closure[target_id]:
            # target side already reaches source side: this edge closes a
            # cycle and merges SCCs -- recompute (rare path).
            self._rebuild()
            self.full_rebuilds += 1
            return

        self._add_reach(source_id, target_id)
        self.incremental_updates += 1

    def _add_reach(self, source_id: int, target_id: int) -> None:
        """Italiano-style DAG closure insertion for ``source -> target``."""
        new_targets = {target_id} | self._closure[target_id]
        affected = [
            scc_id
            for scc_id, targets in self._closure.items()
            if scc_id == source_id or source_id in targets
        ]
        for scc_id in affected:
            self._closure[scc_id] |= new_targets
