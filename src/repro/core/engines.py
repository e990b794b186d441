"""The three multiple-RPQ evaluation engines the paper compares.

* :class:`RTCSharingEngine` -- Algorithms 1 + 2: DNF, batch units, the
  shared reduced transitive closure, and the useless/redundant-operation
  eliminations (the paper's contribution);
* :class:`FullSharingEngine` -- Abul-Basher [8]: shares the materialised
  closure ``R+_G`` between RPQs but joins it naively;
* :class:`NoSharingEngine` -- Yakovets-style [5] per-query automaton
  evaluation, sharing nothing.

All engines evaluate the same queries to the same result sets (cross-
checked by the test suite and asserted by the benchmark harness) and
expose the same metrics surface:

* ``timer``   -- per-phase wall-clock (:mod:`repro.core.timing`);
* ``counters``-- optional operation tallies (:mod:`repro.rpq.counters`);
* ``shared_data_size()`` -- pairs held in the shared structure (Fig. 12).

One engine run has one result type.  RTCSharing and NoSharing evaluate
in id space and return a :class:`~repro.bitset.PairBitmap` from every
clause; with counters attached they run the counted tuple-set reference
and return ``set``.  FullSharing, the baseline defined by its pair-by-
pair join, always returns ``set``.

Engines are bound to one graph; caches persist across ``evaluate`` calls,
which is what "sharing among multiple RPQs" means operationally.  A
:class:`~repro.db.GraphDB` session is the one place engine options are
given; the server builds its workers from the session's.
"""

from __future__ import annotations

import time
from collections import deque
from collections.abc import Iterable

from repro.bitset.interner import bit_indexes
from repro.bitset.kernel import eval_label_sequence_bits, eval_rpq_bits
from repro.bitset.pairbitmap import PairBitmap
from repro.core.batch_unit import (
    BatchUnitOptions,
    DEFAULT_OPTIONS,
    apply_post,
    apply_post_bits,
    join_pre_with_rtc,
    join_pre_with_rtc_bits,
)
from repro.core.cache import ClosureCache, RTCCache
from repro.core.explain import explain
from repro.core.plan import Plan, UnitPlan, plan_for
from repro.core.rtc import ReducedTransitiveClosure, compute_rtc
from repro.core.timing import (
    PHASE_PRE_JOIN,
    PHASE_REMAINDER,
    PHASE_SHARED_DATA,
    PhaseTimer,
)
from repro.graph.digraph import DiGraph
from repro.graph.multigraph import LabeledMultigraph
from repro.obs import get_registry
from repro.regex.ast import RegexNode
from repro.regex.nfa import compile_nfa
from repro.regex.parser import parse
from repro.rpq.counters import OpCounters
from repro.rpq.evaluate import eval_rpq
from repro.rpq.label_join import eval_label_sequence
from repro.rpq.restricted import as_label_sequence

__all__ = [
    "RPQEngine",
    "NoSharingEngine",
    "FullSharingEngine",
    "RTCSharingEngine",
    "evaluate_plan",
]

Pairs = set | PairBitmap  # one of the two per engine run, never mixed

_phase_seconds = get_registry().counter(
    "repro_phase_seconds_total",
    "Wall seconds spent per engine/storage phase.",
    labels=("phase",),
)


class RPQEngine:
    """Common surface of the three evaluation methods.

    Subclasses implement :meth:`_evaluate_node`; this base class provides
    planning (:func:`~repro.core.plan.plan_for`), total-time accounting,
    batch evaluation and metric reset.  Queries are evaluated as given;
    :func:`repro.regex.simplify.simplify` is the caller's to apply.
    """

    #: Short method name used by the benchmark tables ("No", "Full", "RTC").
    name = "base"

    def __init__(self, graph: LabeledMultigraph, collect_counters: bool = False) -> None:
        self.graph = graph
        self.timer = PhaseTimer()
        self.counters: OpCounters | None = OpCounters() if collect_counters else None
        self.total_time = 0.0
        self.queries_evaluated = 0

    # -- public API ----------------------------------------------------
    def evaluate(self, query: str | RegexNode | Plan) -> Pairs:
        """Evaluate one RPQ; returns its ``(start, end)`` pairs.

        A :class:`PairBitmap` (which iterates, compares and tests
        membership like the pair set) or a ``set`` -- see the module
        docstring for which; the type never varies within one run.
        """
        plan = plan_for(query)
        start = time.perf_counter()
        result = self._evaluate_plan(plan)
        self.total_time += time.perf_counter() - start
        self.queries_evaluated += 1
        return result

    def evaluate_many(self, queries) -> list[Pairs]:
        """Evaluate a multiple-RPQ set sequentially (shared caches persist)."""
        return [self.evaluate(query) for query in queries]

    def shared_data_size(self) -> int:
        """Pairs currently held in the shared structure (0 for NoSharing)."""
        return 0

    def reset_metrics(self) -> None:
        """Zero timers/counters (caches are kept; use ``reset_cache``)."""
        self.timer.reset()
        self.total_time = 0.0
        self.queries_evaluated = 0
        if self.counters is not None:
            self.counters = OpCounters()

    def reset_cache(self) -> None:
        """Drop shared data so the next query recomputes it."""

    def invalidate_cache(self, labels, vertex_added: bool = False) -> None:
        """Drop the shared data an applied graph update can have changed.

        ``labels`` are the labels of the edges added or removed,
        ``vertex_added`` whether the update created a vertex.  The
        default drops everything; FullSharing keeps what the update
        cannot have touched
        (:meth:`~repro.core.cache.SharedDataCache.invalidate`).  An
        engine with ``rtc_cache`` and ``build_rtc`` (RTCSharing) is not
        asked: the session repairs its RTCs instead
        (:mod:`repro.core.incremental`).
        """
        self.reset_cache()

    # -- to implement ----------------------------------------------------
    def _evaluate_node(self, node: RegexNode) -> Pairs:
        raise NotImplementedError

    def _evaluate_plan(self, plan: Plan) -> Pairs:
        """Evaluate a planned query; engines that plan nothing read its AST."""
        return self._evaluate_node(plan.node)

    # -- shared leaf -----------------------------------------------------
    @property
    def _packed(self) -> bool:
        """Bits unless counters are attached: results are PairBitmaps."""
        return self.counters is None

    def _eval_automaton(self, node: RegexNode) -> Pairs:
        """Product-automaton evaluation of a whole expression."""
        nfa = compile_nfa(node)
        if self._packed:
            return eval_rpq_bits(self.graph, nfa)
        return eval_rpq(self.graph, nfa, counters=self.counters)


class NoSharingEngine(RPQEngine):
    """Evaluate every RPQ independently with the automaton evaluator [5].

    The Kleene closure is part of the query automaton, so every query
    re-walks the closure -- the repeated work the sharing methods avoid.
    """

    name = "No"

    def _evaluate_node(self, node: RegexNode) -> Pairs:
        with self.timer.measure(PHASE_REMAINDER):
            return self._eval_automaton(node)


class _SharingEngine(RPQEngine):
    """Common machinery of the two sharing methods.

    Both convert the query to DNF, decompose clauses into batch units,
    evaluate ``Pre`` recursively, and differ only in (a) what shared
    structure they build for the closure body ``R`` and (b) how they join
    ``Pre_G`` with it.
    """

    # -- shared skeleton (Algorithm 1) -----------------------------------
    def _evaluate_node(self, node: RegexNode) -> Pairs:
        # R_G on an RTC miss: a closure body's plan, shared like any other.
        return self._evaluate_plan(plan_for(node))

    def _evaluate_plan(self, plan: Plan) -> Pairs:
        # Every clause of one run has the same type (all bitmaps over
        # the graph's interner, or all sets), so the union is one ``|=``;
        # a DNF has at least one clause.
        result: Pairs | None = None
        for step in plan.units():
            unit = step.unit
            if unit.type is None:
                part = self._eval_without_closure(unit.post)
            else:
                part = self._eval_batch_unit(step)
            if result is None:
                result = part
            else:
                result |= part
        return result

    def _eval_without_closure(self, post: RegexNode) -> Pairs:
        """``EvalRPQwithoutKC`` (Algorithm 1 line 6).

        A closure-free clause is a label sequence, joined label by label;
        only the epsilon clause (no labels) runs the automaton.
        """
        with self.timer.measure(PHASE_REMAINDER):
            sequence = as_label_sequence(post)
            if not sequence:
                return self._eval_automaton(post)
            if self._packed:
                # Stays a bitmap: Pre_G and R_G feed the id-space join
                # and Compute_RTC without becoming tuples.
                return eval_label_sequence_bits(self.graph, sequence)
            return eval_label_sequence(self.graph, sequence, counters=self.counters)

    def _eval_pre(self, step: UnitPlan) -> Pairs:
        """``Pre_G`` -- recursive engine call (Algorithm 1 line 8)."""
        if step.pre is None:
            with self.timer.measure(PHASE_REMAINDER):
                return self._identity_pre(step)
        return self._evaluate_plan(step.pre)

    def _identity_pre(self, step: UnitPlan) -> Pairs:
        """``Pre = epsilon``: the identity relation driving the closure.

        For ``R*`` the zero-repetition case makes *every* graph vertex a
        result start, so the identity spans ``V``.  For ``R+`` only
        vertices of ``V_R`` can start a satisfying path; the smaller
        identity is an engine-side useless-1 elimination that both
        sharing methods apply symmetrically.
        """
        interner = self.graph.interner
        if step.unit.type == "*":
            ids = map(interner.id_of, self.graph.vertices())
        else:
            ids = self._closure_ids(step)
        if self._packed:
            return PairBitmap.identity(ids, interner)
        return {(vertex, vertex) for vertex in map(interner.vertex_of, ids)}

    # -- to implement ----------------------------------------------------
    def _eval_batch_unit(self, step: UnitPlan) -> Pairs:
        raise NotImplementedError

    def _closure_ids(self, step: UnitPlan) -> Iterable[int]:
        """Graph ids of ``V_R`` (the edge-level reduced graph of the unit's ``R``)."""
        raise NotImplementedError


class RTCSharingEngine(_SharingEngine):
    """The paper's method: share the RTC, evaluate batch units optimised.

    Parameters
    ----------
    graph:
        The edge-labeled multigraph ``G``.
    cache_mode:
        ``"syntactic"`` (default) keys the RTC cache on the normalised
        query text; ``"semantic"`` keys on the minimal DFA so that
        language-equal closure bodies share one RTC (extension).
    options:
        :class:`BatchUnitOptions` ablation switches (all on by default).
    collect_counters:
        Tally operation counts into ``self.counters``.

    >>> from repro.graph import paper_figure1_graph
    >>> engine = RTCSharingEngine(paper_figure1_graph())
    >>> sorted(engine.evaluate("d.(b.c)+.c"))
    [(7, 3), (7, 5)]
    """

    name = "RTC"

    def __init__(
        self,
        graph: LabeledMultigraph,
        cache_mode: str = "syntactic",
        options: BatchUnitOptions = DEFAULT_OPTIONS,
        collect_counters: bool = False,
    ) -> None:
        super().__init__(graph, collect_counters)
        self.rtc_cache = RTCCache(mode=cache_mode)
        self.options = options

    def rtc_for(
        self, r: str | RegexNode, key: str | None = None
    ) -> ReducedTransitiveClosure:
        """The (cached) RTC of closure body ``R`` (Algorithm 1 lines 9-11).

        Goes through the cache's atomic
        :meth:`~repro.core.cache.SharedDataCache.get_or_compute`, so
        concurrent engines (the server's worker pool) missing on the same
        body build the RTC once and count one miss.  Graph updates repair
        the entry in place (:mod:`repro.core.incremental`).  ``key`` is
        the body's cache key when the caller already holds it (a plan's
        :meth:`~repro.core.plan.UnitPlan.body_key`).
        """
        node = parse(r)
        _key, rtc = self.rtc_cache.get_or_compute(
            node, lambda: self.build_rtc(node), key=key
        )
        return rtc

    def build_rtc(self, r: str | RegexNode) -> ReducedTransitiveClosure:
        """Lines 10-11 of Algorithm 1 for closure body ``R``, past the cache.

        What :meth:`rtc_for` caches, and what the update repair falls
        back to when re-evaluating ``R_G`` is cheaper than repairing it.
        The RTC keeps ``G_R``'s rows.
        """
        node = parse(r)
        # Line 10: R_G by recursive evaluation (time -> Remainder); a
        # PairBitmap unless counters are attached.
        rg = self._evaluate_node(node)
        # Line 11: Compute_RTC (time -> Shared_Data), reduced in id space.
        with self.timer.measure(PHASE_SHARED_DATA):
            if not isinstance(rg, PairBitmap):
                rg = PairBitmap.from_pairs(rg, self.graph.interner)
            return compute_rtc(rg)

    def explain(self, query: str | RegexNode):
        """Static evaluation plan of ``query`` against this engine's cache.

        Returns a :class:`~repro.core.explain.QueryPlan`; nothing is
        evaluated and the cache is not touched.
        """
        return explain(self.graph, query, self)

    def reaches(self, r: str | RegexNode, source: object, target: object) -> bool:
        """Extension: answer ``(source, target) in (R+)_G`` from the RTC.

        A reachability query on ``G_R`` (related work, Section VI), free
        once the RTC is cached.
        """
        return self.rtc_for(r).reaches(source, target)

    def _unit_rtc(self, step: UnitPlan) -> ReducedTransitiveClosure:
        return self.rtc_for(step.unit.r, step.body_key(self.rtc_cache.mode))

    def _closure_ids(self, step: UnitPlan) -> Iterable[int]:
        return bit_indexes(self._unit_rtc(step).rebased(self.graph.interner).vertex_mask)

    def _eval_batch_unit(self, step: UnitPlan) -> Pairs:
        unit = step.unit
        rtc = self._unit_rtc(step)
        pre_pairs = self._eval_pre(step)
        post = step.post
        if self._packed:
            # Bit-parallel pipeline: the waste eliminations are structural,
            # so ablation runs (counters attached) keep the set pipeline.
            with self.timer.measure(PHASE_PRE_JOIN):
                joined = join_pre_with_rtc_bits(pre_pairs, rtc)
            with self.timer.measure(PHASE_REMAINDER):
                seed = pre_pairs if unit.type == "*" else None
                return apply_post_bits(self.graph, joined, post, seed)
        seed = pre_pairs if unit.type == "*" else ()
        with self.timer.measure(PHASE_PRE_JOIN):
            joined_set = join_pre_with_rtc(
                pre_pairs,
                rtc,
                seed=seed,
                options=self.options,
                counters=self.counters,
            )
        with self.timer.measure(PHASE_REMAINDER):
            return apply_post(self.graph, joined_set, post, self.counters)

    def shared_data_size(self) -> int:
        return self.rtc_cache.total_shared_pairs()

    def reset_cache(self) -> None:
        self.rtc_cache.clear()


class FullSharingEngine(_SharingEngine):
    """Abul-Basher's method [8]: share the materialised ``R+_G``.

    The shared structure is the full vertex-pair closure, indexed by start
    vertex.  Batch units join ``Pre_G`` against it pair by pair with
    duplicate checks -- performing exactly the useless-1 (closure computed
    from *every* vertex of ``G_R``) and redundant-1/redundant-2 (repeated
    end-set enumeration per SCC) operations RTCSharing eliminates.
    """

    name = "Full"
    #: The method is defined by its pair-by-pair join: always tuple sets.
    _packed = False

    def __init__(
        self,
        graph: LabeledMultigraph,
        cache_mode: str = "syntactic",
        collect_counters: bool = False,
    ) -> None:
        super().__init__(graph, collect_counters)
        self.closure_cache = ClosureCache(mode=cache_mode)

    def closure_for(self, r: str | RegexNode, key: str | None = None) -> dict:
        """The (cached) materialised ``R+_G`` indexed by start vertex.

        Concurrent misses on one body materialise the closure once (the
        cache's per-key in-flight latch), mirroring ``rtc_for``.
        """
        node = parse(r)

        def build() -> dict:
            rg_pairs = self._evaluate_node(node)  # R_G: Remainder
            with self.timer.measure(PHASE_SHARED_DATA):
                return self._materialise_closure(rg_pairs)

        _key, entry = self.closure_cache.get_or_compute(node, build, key=key)
        return entry

    def _materialise_closure(self, rg_pairs: Pairs) -> dict:
        """``R+_G`` by per-vertex BFS over ``G_R`` -- O(|V_R| * |E_R|).

        Every vertex of ``G_R`` seeds a walk (the useless-1 work), and the
        result stores one end-set per vertex.
        """
        graph = DiGraph.from_pairs(rg_pairs)
        closure: dict[object, frozenset] = {}
        counters = self.counters
        for start in graph.vertices():
            if counters is not None:
                counters.closure_walk_starts += 1
            seen: set = set()
            queue: deque = deque(graph.successors(start))
            while queue:
                vertex = queue.popleft()
                if vertex in seen:
                    continue
                seen.add(vertex)
                for successor in graph.successors(vertex):
                    if counters is not None:
                        counters.edges_scanned += 1
                    if successor not in seen:
                        queue.append(successor)
            closure[start] = frozenset(seen)
        return closure

    def _unit_closure(self, step: UnitPlan) -> dict:
        return self.closure_for(step.unit.r, step.body_key(self.closure_cache.mode))

    def _closure_ids(self, step: UnitPlan) -> Iterable[int]:
        return map(self.graph.interner.id_of, self._unit_closure(step))

    def _eval_batch_unit(self, step: UnitPlan) -> Pairs:
        unit = step.unit
        entry = self._unit_closure(step)
        pre_pairs = self._eval_pre(step)
        post = step.post
        counters = self.counters
        with self.timer.measure(PHASE_PRE_JOIN):
            joined: Pairs = set(pre_pairs) if unit.type == "*" else set()
            for vi, vj in pre_pairs:
                if counters is not None:
                    counters.join_probes += 1
                ends = entry.get(vj)
                if not ends:
                    continue
                if counters is not None:
                    # Every insert performs a duplicate check; repeated for
                    # Pre pairs sharing a start vertex (redundant-1/2 work).
                    counters.dup_checks += len(ends)
                for vk in ends:
                    joined.add((vi, vk))
        with self.timer.measure(PHASE_REMAINDER):
            return apply_post(self.graph, joined, post, counters)

    def shared_data_size(self) -> int:
        return self.closure_cache.total_shared_pairs()

    def reset_cache(self) -> None:
        self.closure_cache.clear()

    def invalidate_cache(self, labels, vertex_added: bool = False) -> None:
        self.closure_cache.invalidate(labels, vertex_added)


def evaluate_plan(engine, plan: Plan) -> tuple[Pairs, float, dict[str, float]]:
    """``engine.evaluate`` on a plan, timed: ``(pairs, elapsed, phases)``.

    ``phases`` holds the engine-timer phases this evaluation moved; they
    and ``evaluate`` are added to the ``repro_phase_seconds_total``
    ledger here, for session and server reads alike.  An engine at the
    registry's duck-typed floor (``evaluate(query)`` only) gets the AST.
    """
    timer = getattr(engine, "timer", None)
    before = timer.snapshot() if timer is not None else {}
    started = time.perf_counter()
    if isinstance(engine, RPQEngine):
        pairs = engine.evaluate(plan)
    else:
        pairs = engine.evaluate(plan.node)
    elapsed = time.perf_counter() - started
    phases: dict[str, float] = {}
    if timer is not None:
        for phase, total in timer.snapshot().items():
            seconds = total - before.get(phase, 0.0)
            if seconds > 0:
                phases[phase] = seconds
    _phase_seconds.inc(elapsed, phase="evaluate")
    for phase, seconds in phases.items():
        _phase_seconds.inc(seconds, phase=phase)
    return pairs, elapsed, phases
