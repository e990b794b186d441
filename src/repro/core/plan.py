"""Query plans: what Algorithm 1 derives from a query's text, derived once.

Algorithm 1 turns an RPQ into DNF clauses (line 2) and every clause into
a batch unit ``(Pre, R, Type, Post)`` (line 4).  None of that depends on
the graph, so one :class:`Plan` per query serves every session, engine,
worker, replica and shard of the process: :func:`plan_for` hands it out
from one process-wide memo, keyed by the text for strings and by the
AST for nodes.

A miss only parses, on the caller's thread.  Everything else is computed
on first use and kept on the plan:

* :meth:`Plan.units` -- the batch units for one ``max_clauses`` bound,
  each a :class:`UnitPlan` with its ``Pre`` sub-plan, its ``Post``
  :class:`~repro.rpq.restricted.RestrictedEvaluator` and its closure
  body's cache key per mode (the engines and EXPLAIN);
* :meth:`Plan.bodies` -- a generator over the kept units: the cache key
  of every closure body evaluating the plan builds, nested ones
  included.  It is the one walker of a plan's units: the group key
  below is its distinct keys, and how often a query set would reuse
  each body is ``Counter(plan.bodies(mode))``;
* :meth:`Plan.group_key` -- the batching key of a cache mode, the sorted
  distinct :meth:`Plan.bodies` (the scheduler and replica affinity);
* :meth:`Plan.route` -- ``(labels, nullable, nfa)`` (the cluster router
  and the boundary-join summaries).

Sharing rule.  ASTs are immutable and a ``RestrictedEvaluator`` is
stateless after construction, so a plan is a pure function of its query:
safe to share across threads, never invalidated, never touched by a
graph update.  Each lazy value is published with one dict-item or
attribute store, so two threads racing on it -- or on a memo miss --
each build an equal value and the last store wins: the benign-race rule
of :mod:`repro.core.cache`.  Errors are never memoised: a syntax error
raises from every :func:`plan_for` call, a DNF past ``max_clauses`` from
every :meth:`Plan.units` call.

Admission.  A query's first plan is used and dropped; the memo keeps
the plan of a query it has seen before.  A kept plan is ~30 objects the
cyclic collector tracks, and CPython runs a full collection whenever its
oldest generation has grown by a quarter, so keeping every one-off text
made each of them pay more in collection time than its planning costs.
What remembers a first sighting is a set of hashes -- ints, which the
collector does not track; a collision only keeps a plan one read early.

The memo holds at most :data:`PLAN_MEMO_LIMIT` plans (and as many
hashes) and is dropped wholesale when full: serving workloads repeat a
small query set.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.core.cache import make_key_function
from repro.core.decompose import BatchUnit, decompose_clause
from repro.core.dnf import MAX_CLAUSES, Clause, to_dnf
from repro.errors import ReproError
from repro.regex.ast import Epsilon, RegexNode, contains_closure
from repro.regex.nfa import compile_nfa
from repro.regex.parser import parse
from repro.rpq.restricted import RestrictedEvaluator

__all__ = ["PLAN_MEMO_LIMIT", "Plan", "UnitPlan", "closure_group_key", "plan_for"]

#: Past this many distinct queries the plan memo is dropped wholesale.
PLAN_MEMO_LIMIT = 4096

_plans: dict[str | RegexNode, Plan] = {}
_seen_once: set[int] = set()


def plan_for(query: str | RegexNode | Plan) -> Plan:
    """The shared plan of ``query``; a miss parses on the calling thread."""
    if isinstance(query, Plan):
        return query
    plan = _plans.get(query)
    if plan is None:
        plan = Plan(parse(query))
        fingerprint = hash(query)
        if fingerprint in _seen_once:
            if len(_plans) >= PLAN_MEMO_LIMIT:
                _plans.clear()
            _plans[query] = plan
        else:
            if len(_seen_once) >= PLAN_MEMO_LIMIT:
                _seen_once.clear()
            _seen_once.add(fingerprint)
    return plan


def closure_group_key(
    node: RegexNode, key_function, max_clauses: int = MAX_CLAUSES
) -> str:
    """The batching key of a query: its sorted closure-body cache keys.

    The reference implementation of :meth:`Plan.group_key`, kept for the
    property tests to compare the plan's walk against: a fresh DNF +
    decomposition of the query, collecting the cache key of every
    closure body, nested ones included.  Queries with equal keys would
    populate/hit the same shared-cache entries, so they belong in one
    micro-batch.  Closure-free queries key to ``""``.  Queries whose
    decomposition fails (e.g. DNF blow-up past ``max_clauses``) also key
    to ``""``; the engine will raise the real error at evaluation time.
    """
    keys: set[str] = set()

    def visit(current: RegexNode) -> None:
        for clause in to_dnf(current, max_clauses):
            unit = decompose_clause(clause)
            if unit.r is None:
                continue
            keys.add(key_function(unit.r))
            if contains_closure(unit.pre):
                visit(unit.pre)
            if contains_closure(unit.r):
                visit(unit.r)

    try:
        visit(node)
    except ReproError:
        return ""
    return "|".join(sorted(keys))


class UnitPlan:
    """One DNF clause of a plan and what evaluating its batch unit reuses.

    ``pre`` is the sub-plan of ``Pre`` (``None`` when ``Pre`` is
    epsilon); ``post`` the ``Post`` evaluator of a closure unit (``None``
    when ``Post`` is epsilon or the clause has no closure).
    """

    __slots__ = ("clause", "unit", "pre", "post", "_body_keys")

    def __init__(self, clause: Clause) -> None:
        unit = decompose_clause(clause)
        self.clause = clause
        self.unit: BatchUnit = unit
        self.pre = None if isinstance(unit.pre, Epsilon) else Plan(unit.pre)
        self.post = (
            RestrictedEvaluator(unit.post)
            if unit.has_closure and unit.post_labels
            else None
        )
        self._body_keys: dict[str, str] = {}

    def body_key(self, mode: str) -> str:
        """The shared-data cache key of the closure body ``R`` in ``mode``."""
        key = self._body_keys.get(mode)
        if key is None:
            key = self._body_keys[mode] = make_key_function(mode)(self.unit.r)
        return key


class Plan:
    """The graph-independent plan of one query (see the module docstring)."""

    __slots__ = ("node", "_units", "_group_keys", "_route")

    def __init__(self, node: RegexNode) -> None:
        self.node = node
        self._units: dict[int, tuple[UnitPlan, ...]] = {}
        self._group_keys: dict[str, str] = {}
        self._route: tuple | None = None

    def units(self, max_clauses: int = MAX_CLAUSES) -> tuple[UnitPlan, ...]:
        """One :class:`UnitPlan` per DNF clause, in clause order."""
        units = self._units.get(max_clauses)
        if units is None:
            units = self._units[max_clauses] = tuple(
                map(UnitPlan, to_dnf(self.node, max_clauses))
            )
        return units

    def bodies(self, mode: str = "syntactic") -> Iterator[str]:
        """The cache key of every closure unit's body, duplicates kept.

        Recurses like evaluation does: into each ``Pre`` sub-plan, and
        into :func:`plan_for` ``(R)`` -- the plan ``build_rtc`` evaluates
        -- when ``R`` nests a closure.  Raises for a DNF past
        :data:`~repro.core.dnf.MAX_CLAUSES`.
        """
        for step in self.units():
            r = step.unit.r
            if r is None:
                continue
            yield step.body_key(mode)
            if step.pre is not None:
                yield from step.pre.bodies(mode)
            if contains_closure(r):
                yield from plan_for(r).bodies(mode)

    def group_key(self, mode: str = "syntactic") -> str:
        """The sorted distinct :meth:`bodies` of cache mode ``mode``.

        ``""`` for a closure-free query, and for one whose DNF is past
        :data:`~repro.core.dnf.MAX_CLAUSES` (evaluating it raises the real
        error).
        """
        key = self._group_keys.get(mode)
        if key is None:
            try:
                key = "|".join(sorted(set(self.bodies(mode))))
            except ReproError:
                key = ""
            self._group_keys[mode] = key
        return key

    def route(self) -> tuple:
        """``(labels, nullable, nfa)``: what the cluster routes and joins on.

        The automaton is compiled once per plan, so the router plans
        entry nodes in the same state numbering the shards summarise in.
        """
        route = self._route
        if route is None:
            nfa = compile_nfa(self.node)
            route = self._route = (frozenset(nfa.labels), nfa.nullable, nfa)
        return route

    def is_warm(self, mode: str, route: bool = False) -> bool:
        """Whether :meth:`group_key` (and :meth:`route`) are computed."""
        return mode in self._group_keys and (not route or self._route is not None)

    def __repr__(self) -> str:
        return f"Plan({self.node.to_string()!r})"
