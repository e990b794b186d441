"""Cached RTCs kept exact under edge updates, repaired where they live.

The paper's pipeline is batch: any change to ``G`` invalidates ``R_G``,
``G_R`` and the RTC.  This module keeps the cached RTC of a closure body
exact across labeled edge insertions *and* removals instead, looking only
at the automaton transitions that read an updated label -- the
streaming-RPQ approach of Pacaci et al. (the paper's ref. [29]).

What is maintained, and where
-----------------------------
One object per body: its entry in an :class:`~repro.core.cache.RTCCache`
-- the ``rtc`` engine's own cache, which every query and server worker
reads, or, for engines that keep none, a cache the session owns for its
watched bodies.  The entry is the immutable
:class:`~repro.core.rtc.ReducedTransitiveClosure`, which also carries
``G_R`` as id-space rows (``gr_rows``: the ``R_G`` that ``rtc_for``
evaluated anyway); the cache keeps each body's NFA and reversed NFA
(:class:`BodyAutomaton`, compiled on the first update that meets the
key, never per update).  :class:`RTCRepair` is the one repair pass, for
cache entries and watched bodies alike; :class:`IncrementalRTC` -- what
``GraphDB.watch`` returns -- is a handle that reads the current entry.

One update batch
----------------
1. *Start set.*  For every applied edge ``(u, l, v)`` and every entry
   the edge can touch (:func:`~repro.core.cache.update_touches`), collect
   ``S``: the vertices an accepted path can start from and run through
   the edge.  For every transition ``q -l-> q'`` whose ``(v, q')`` can
   still reach acceptance, that is a backward product BFS from
   ``(u, q)`` over the reverse adjacency rows and the reversed automaton
   (``u`` itself when ``q`` is a start state).  A nullable body also adds
   each vertex the edge created -- its identity pair is new.  The BFS
   runs on the graph that *contains* the edge: right after an insertion,
   right before a removal.
2. *Rows.*  After the batch, every row of ``G_R`` in ``S`` is recomputed
   by one forward product BFS on the final graph; all others are reused.
3. *Publish.*  If no row changed, the entry stays the same object,
   derived reach rows included.  Otherwise a new RTC is computed from
   the rows and published under the same key -- copy-on-write, so a
   reader still holding the old object keeps a consistent snapshot.
4. *Large S.*  Re-evaluating ``R_G`` runs at least one traversal per
   source row of ``G_R``, the repair one per vertex of ``S``.  When ``S``
   holds more vertices than ``G_R`` has source rows (or the entry carries
   no rows, e.g. a store reload of an older format), the entry is
   re-evaluated by the evaluator that built it.

Why a row outside ``S`` is unchanged
------------------------------------
Let ``G_0`` be the graph before the batch and ``G_1`` after it; a batch
applies its insertions, then its removals.  A row ``r`` of ``R_G`` can
change only if an accepted path from ``r`` in ``G_1`` uses an inserted
edge or one in ``G_0`` uses a removed edge: a path using neither is in
both graphs.  In the first case take the path's inserted edge that was
inserted last: right after that insertion every other edge of the path
is present (insertions before it are in, and no removal has run yet), so
step 1 finds ``r`` from that edge.  In the second take the path's removed
edge that was removed first: right before that removal every other edge
of the path is still present, and step 1 finds ``r`` again.  An edge
added and removed in one batch falls under the same two cases.  So every
row that changed is in ``S``, and recomputing exactly those rows on
``G_1`` yields ``G_1``'s ``R_G`` -- property-tested against
``Compute_RTC`` from scratch in ``tests/properties``.
"""

from __future__ import annotations

from functools import partial

from repro.bitset.interner import bit_indexes
from repro.bitset.kernel import bfs_mask, eval_rpq_bits
from repro.core.cache import RTCCache, body_footprint, update_touches
from repro.core.rtc import ReducedTransitiveClosure, _compute_rtc_from_rows, compute_rtc
from repro.graph.multigraph import LabeledMultigraph
from repro.obs import get_registry
from repro.regex.ast import RegexNode
from repro.regex.nfa import compile_nfa
from repro.regex.parser import parse

__all__ = ["BodyAutomaton", "IncrementalRTC", "RTCRepair", "build_rtc"]

_repairs_total = get_registry().counter(
    "repro_rtc_repairs_total",
    "Cached RTCs an update touched, by what the repair did with them.",
    labels=("outcome",),
)


def build_rtc(graph: LabeledMultigraph, body: str | RegexNode) -> ReducedTransitiveClosure:
    """``Compute_RTC`` of ``body`` over ``R_G`` from the automaton evaluator.

    The builder of the RTCs a session keeps for engines that cache none.
    """
    return compute_rtc(eval_rpq_bits(graph, compile_nfa(parse(body))))


class BodyAutomaton:
    """What the repair needs of one closure body, built once per cache key."""

    __slots__ = ("alphabet", "nullable", "nfa", "reverse", "reading")

    def __init__(self, body: RegexNode) -> None:
        self.alphabet, self.nullable = body_footprint(body)
        self.nfa = nfa = compile_nfa(body)
        #: ``state -> label -> predecessor states``
        self.reverse: dict[int, dict[str, set[int]]] = {state: {} for state in nfa.delta}
        #: ``label -> [(state, successor states)]``: the transitions reading it
        self.reading: dict[str, list[tuple[int, frozenset[int]]]] = {}
        for state, row in nfa.delta.items():
            for label, targets in row.items():
                self.reading.setdefault(label, []).append((state, targets))
                for target in targets:
                    self.reverse[target].setdefault(label, set()).add(state)

    def starts_through(self, graph: LabeledMultigraph, source, label: str, target) -> int:
        """Bitmap of the vertices an accepted path can start from and run
        through the edge ``(source, label, target)`` of ``graph``."""
        nfa = self.nfa
        interner = graph.interner
        source_bit = 1 << interner.id_of(source)
        target_bit = 1 << interner.id_of(target)
        accepting: dict[int, bool] = {}  # successor state -> reaches acceptance

        def finishes(state: int) -> bool:
            if state not in accepting:
                accepting[state] = state in nfa.accepts or bool(
                    bfs_mask(graph.bit_rows, nfa.delta, nfa.accepts, (state,), target_bit)
                )
            return accepting[state]

        starts = 0
        for state, targets in self.reading.get(label, ()):
            if not any(map(finishes, targets)):
                continue
            starts |= bfs_mask(graph.rev_bit_rows, self.reverse, nfa.start, (state,), source_bit)
            if state in nfa.start:
                starts |= source_bit
        return starts


class RTCRepair:
    """One update batch's repair of one :class:`RTCCache`.

    Feed it every applied edge -- :meth:`edge_added` right after an
    insertion, :meth:`edge_removing` right before a removal -- then call
    :meth:`finish` once on the final graph.  ``build(body)`` is the
    evaluator that built the cache's entries (``rtc_for``'s), used for
    re-evaluation.  See the module docstring for the rule and why it is
    exact.
    """

    def __init__(self, cache: RTCCache, graph: LabeledMultigraph, build) -> None:
        self.cache = cache
        self.graph = graph
        self.build = build
        self._entries = dict(cache.items())
        self._starts: dict[str, int] = {}  # touched key -> start bitmap S
        self._reevaluate: set[str] = set()
        self._dropped: set[str] = set()

    def edge_added(self, source, label: str, target, new_vertices=()) -> None:
        """Collect for an edge just inserted; ``new_vertices`` it created."""
        self._collect(source, label, target, self.graph.interner.mask_of(new_vertices))

    def edge_removing(self, source, label: str, target) -> None:
        """Collect for an edge about to be removed (an absent one changes nothing)."""
        if self.graph.has_edge(source, label, target):
            self._collect(source, label, target, 0)

    def _collect(self, source, label: str, target, fresh: int) -> None:
        for key, rtc in self._entries.items():
            if key in self._dropped or key in self._reevaluate:
                continue
            automaton = self._automaton(key)
            if automaton is None:
                self._dropped.add(key)
                continue
            if not update_touches(automaton.alphabet, automaton.nullable, (label,), bool(fresh)):
                continue
            starts = self._starts.get(key, 0)
            starts |= automaton.starts_through(self.graph, source, label, target)
            if automaton.nullable:
                starts |= fresh
            if rtc.gr_rows is None or starts.bit_count() > len(rtc.gr_rows):
                self._reevaluate.add(key)
                self._starts.pop(key, None)
            else:
                self._starts[key] = starts

    def _automaton(self, key: str) -> BodyAutomaton | None:
        automaton = self.cache.automata.get(key)
        if automaton is None:
            body = self.cache.body_of(key)
            if body is None:
                return None
            automaton = self.cache.automata[key] = BodyAutomaton(body)
        return automaton

    def finish(self) -> dict[str, str]:
        """Publish every touched entry; returns ``key -> outcome``.

        Outcomes: ``kept`` (no row changed: same object), ``republished``
        (rows repaired, new RTC), ``reevaluated`` (whole ``R_G``; the old
        object stays if nothing changed) and ``dropped`` (unnameable body).
        """
        cache = self.cache
        outcomes: dict[str, str] = {}
        for key in self._dropped:
            cache.discard(key)
            outcomes[key] = "dropped"
        for key, starts in self._starts.items():
            rows = self._repaired_rows(key, self._entries[key].gr_rows, starts)
            if rows is None:
                outcomes[key] = "kept"
            else:
                cache.store(key, _compute_rtc_from_rows(rows, self.graph.interner))
                outcomes[key] = "republished"
        # A re-evaluation reads nested closure bodies through the cache:
        # none may read a stale entry (in semantic mode a nested body can
        # share its enclosing body's key), and shorter bodies -- the
        # nested ones -- are rebuilt first.
        bodies = {key: cache.body_of(key) for key in self._reevaluate}
        for key in bodies:
            cache.discard(key)
        for key in sorted(bodies, key=lambda key: len(bodies[key].to_string())):
            old, rtc = self._entries[key], self.build(bodies[key])
            unchanged = rtc.gr_rows is not None and rtc.gr_rows == old.gr_rows
            cache.store(key, old if unchanged else rtc, body=bodies[key])
            outcomes[key] = "reevaluated"
        cache.record_repairs(outcomes.values())
        for outcome in outcomes.values():
            _repairs_total.inc(outcome=outcome)
        return outcomes

    def _repaired_rows(self, key: str, rows: dict[int, int], starts: int) -> dict | None:
        """``rows`` with the rows of ``starts`` recomputed; ``None`` if equal."""
        nfa = self.cache.automata[key].nfa
        rows_of = self.graph.bit_rows
        repaired = None
        for start in bit_indexes(starts):
            bit = 1 << start
            row = bfs_mask(rows_of, nfa.delta, nfa.accepts, nfa.start, bit)
            if nfa.nullable:
                row |= bit
            if row == rows.get(start, 0):
                continue
            if repaired is None:
                repaired = dict(rows)
            if row:
                repaired[start] = row
            else:
                del repaired[start]
        return repaired


class IncrementalRTC:
    """The maintained RTC of one closure body: a handle on its cache entry.

    ``GraphDB.watch`` returns one bound to the session's RTC cache, which
    the session repairs on every update.  Built standalone (no ``cache``)
    it owns a private cache, and :meth:`add_edge` / :meth:`remove_edge`
    run the same :class:`RTCRepair`.  Either way the handle holds no
    closure of its own: :meth:`snapshot` is the cache's current entry,
    rebuilt (one cache miss) if the entry was dropped.

    >>> from repro.graph import LabeledMultigraph
    >>> g = LabeledMultigraph.from_edges([(0, "a", 1)])
    >>> inc = IncrementalRTC(g, "a")
    >>> inc.reaches(0, 1)
    True
    >>> inc.add_edge(1, "a", 0)   # closes a cycle
    >>> inc.reaches(1, 1)
    True
    """

    def __init__(
        self,
        graph: LabeledMultigraph,
        body: str | RegexNode,
        cache: RTCCache | None = None,
        build=None,
    ) -> None:
        self.graph = graph
        self.body = parse(body)
        self._cache = RTCCache() if cache is None else cache
        self._build = partial(build_rtc, graph) if build is None else build
        #: the entry's key in the cache
        self.key = self._cache.key_for(self.body)
        #: updates that re-evaluated this body's whole ``R_G``
        self.full_rebuilds = 0
        #: updates that repaired this body's entry row by row
        self.incremental_updates = 0
        self.snapshot()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def snapshot(self) -> ReducedTransitiveClosure:
        """The current RTC -- immutable; an update publishes a new one."""
        rtc = self._cache.peek(self.key)
        if rtc is None:
            _key, rtc = self._cache.get_or_compute(
                self.body, lambda: self._build(self.body)
            )
        return rtc

    def reaches(self, source: object, target: object) -> bool:
        """Membership test ``(source, target) in (R+)_G``."""
        return self.snapshot().reaches(source, target)

    def plus_pairs(self) -> set[tuple[object, object]]:
        """Materialise ``(R+)_G`` (Theorem 1 expansion of the current RTC)."""
        return self.snapshot().expand()

    def record(self, outcome: str | None) -> None:
        """Count one update's repair outcome for this body (``None``: untouched)."""
        if outcome == "reevaluated":
            self.full_rebuilds += 1
        elif outcome in ("kept", "republished"):
            self.incremental_updates += 1

    # ------------------------------------------------------------------
    # standalone updates (a session applies them through GraphDB.update)
    # ------------------------------------------------------------------
    def add_edge(self, source: object, label: str, target: object) -> None:
        """Insert ``e(source, label, target)`` into ``G`` and repair."""
        new_vertices = [v for v in (source, target) if not self.graph.has_vertex(v)]
        repair = RTCRepair(self._cache, self.graph, self._build)
        self.graph.add_edge(source, label, target)
        repair.edge_added(source, label, target, new_vertices)
        self.record(repair.finish().get(self.key))

    def remove_edge(self, source: object, label: str, target: object) -> None:
        """Delete ``e(source, label, target)`` from ``G`` and repair."""
        repair = RTCRepair(self._cache, self.graph, self._build)
        repair.edge_removing(source, label, target)
        self.graph.remove_edge(source, label, target)
        self.record(repair.finish().get(self.key))
