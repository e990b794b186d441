"""Prepared queries: a session-bound handle on a query's shared plan.

``GraphDB.prepare(q)`` binds the query's :class:`~repro.core.plan.Plan`
-- the parsed AST, the DNF clauses (closures as literals, Algorithm 1
line 2) and each clause's ``(Pre, R, Type, Post)`` batch unit (line 4),
none of which depends on the graph -- to a session.  The plan comes from
the process-wide memo of :func:`~repro.core.plan.plan_for`, so preparing
a text any session has already run re-derives nothing.  The handle can
then be executed repeatedly -- each execution evaluates the plan on the
session engine's shared caches -- and can explain itself without running.
"""

from __future__ import annotations

from repro.core.decompose import BatchUnit
from repro.core.dnf import clause_to_regex
from repro.core.explain import QueryPlan, explain as build_plan
from repro.core.plan import Plan

__all__ = ["PreparedQuery"]


class PreparedQuery:
    """One RPQ's plan, bound to a :class:`GraphDB` session.

    Attributes
    ----------
    plan:
        The shared :class:`~repro.core.plan.Plan`.
    text:
        Normalised query text (``node.to_string()``).
    node:
        The parsed :class:`~repro.regex.ast.RegexNode` AST.
    clauses:
        The DNF clauses as normalised regex strings, in clause order.
    units:
        One :class:`~repro.core.decompose.BatchUnit` per clause.
    """

    def __init__(self, db, plan: Plan) -> None:
        self._db = db
        self.plan = plan
        self.node = plan.node
        self.text = plan.node.to_string()
        # Raises here, at prepare time, for a DNF past MAX_CLAUSES.
        self._steps = plan.units()
        self.units: tuple[BatchUnit, ...] = tuple(step.unit for step in self._steps)

    @property
    def clauses(self) -> tuple[str, ...]:
        return tuple(clause_to_regex(step.clause).to_string() for step in self._steps)

    @property
    def db(self):
        """The owning :class:`~repro.db.GraphDB` session."""
        return self._db

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)

    @property
    def batch_units(self) -> tuple[BatchUnit, ...]:
        """The genuine ``Pre.R{+,*}.Post`` units (closure-free clauses excluded)."""
        return tuple(unit for unit in self.units if unit.has_closure)

    def explain(self) -> QueryPlan:
        """Static evaluation plan against the session engine's cache state.

        Nothing is evaluated; repeated calls on an untouched session
        return equal plans (plan stability), and only the per-clause
        ``rtc_cached`` flags may change after executions warm the cache.
        """
        return build_plan(self._db.graph, self.plan, self._db.engine)

    def execute(self, *, lazy: bool = False):
        """Run this query through the session; returns a :class:`ResultSet`."""
        return self._db.execute(self, lazy=lazy)

    __call__ = execute

    def __repr__(self) -> str:
        return (
            f"PreparedQuery({self.text!r}, clauses={len(self.clauses)}, "
            f"batch_units={len(self.batch_units)})"
        )
