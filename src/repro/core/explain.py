"""``explain(query)`` -- show how RTCSharing will evaluate a query.

A textual evaluation plan in the spirit of SQL ``EXPLAIN``: the DNF
clauses, each clause's ``(Pre, R, Type, Post)`` decomposition, the RTC
cache key and its current hit/miss status, the chosen ``Post`` fast path,
and the relational-algebra expression of the batch unit (Eq. (6)-(10)).

It renders the query's shared :class:`~repro.core.plan.Plan` -- the same
units the engines evaluate -- and walks no DNF of its own.

Purely *static*: nothing is evaluated and no RTC is computed, so
explaining a query is always cheap and side-effect-free (cache stats are
not touched either).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.dnf import clause_to_regex
from repro.core.plan import Plan, UnitPlan, plan_for
from repro.graph.multigraph import LabeledMultigraph
from repro.regex.ast import Epsilon, RegexNode, contains_closure, iter_labels

__all__ = ["ClausePlan", "QueryPlan", "estimate_cost", "explain"]


@dataclass(frozen=True)
class ClausePlan:
    """The plan of one DNF clause."""

    clause: str
    pre: str | None
    r: str | None
    closure_type: str | None
    post: str | None
    post_strategy: str  # "epsilon" | "label-sequence"
    rtc_key: str | None
    rtc_cached: bool
    estimated_cost: float

    @property
    def is_batch_unit(self) -> bool:
        return self.closure_type is not None


@dataclass(frozen=True)
class QueryPlan:
    """The plan of a whole query: one entry per DNF clause."""

    query: str
    clauses: tuple[ClausePlan, ...]

    def describe(self) -> str:
        """Readable multi-line rendering (what the CLI prints)."""
        lines = [f"query: {self.query}", f"clauses: {len(self.clauses)}"]
        for index, plan in enumerate(self.clauses):
            lines.append(f"  clause {index}: {plan.clause}")
            if not plan.is_batch_unit:
                lines.append(
                    f"    EvalRPQwithoutKC via {plan.post_strategy} "
                    f"(est. cost {plan.estimated_cost:.0f})"
                )
                continue
            lines.append(f"    Pre  = {plan.pre}")
            lines.append(
                f"    R    = {plan.r}   [closure {plan.closure_type}, "
                f"RTC key {'HIT' if plan.rtc_cached else 'miss'}: {plan.rtc_key}]"
            )
            lines.append(f"    Post = {plan.post} via {plan.post_strategy}")
            lines.append(
                "    pipeline: Pre_G ⋈ SCC ⋈ R̄+_G ⋈ SCC ⋈ Post_G "
                f"(Eq. 6-10; est. cost {plan.estimated_cost:.0f})"
            )
        return "\n".join(lines)


def estimate_cost(graph: LabeledMultigraph, node: RegexNode) -> float:
    """A label-statistics cost proxy for evaluating ``node`` on ``graph``.

    The product of per-label edge counts approximates the worst-case
    intermediate size of the label joins; closures multiply by ``|V|`` to
    reflect the closure walk.  Only relative order matters.
    """
    cost = 1.0
    for label in iter_labels(node):
        cost *= max(1, graph.label_count(label))
    if contains_closure(node):
        cost *= max(1, graph.num_vertices)
    return cost


def explain(
    graph: LabeledMultigraph, query: str | RegexNode | Plan, engine=None
) -> QueryPlan:
    """Build the static evaluation plan of ``query``.

    With an ``engine``, the plan reports each batch unit's key and
    hit/miss status in its RTC cache (when it has one).
    """
    plan = plan_for(query)
    rtc_cache = getattr(engine, "rtc_cache", None)
    clause_plans = [_clause_plan(graph, step, rtc_cache) for step in plan.units()]
    return QueryPlan(query=plan.node.to_string(), clauses=tuple(clause_plans))


def _clause_plan(graph: LabeledMultigraph, step: UnitPlan, rtc_cache) -> ClausePlan:
    unit = step.unit
    closure = unit.type is not None
    strategy = "epsilon" if isinstance(unit.post, Epsilon) else "label-sequence"
    key = step.body_key(rtc_cache.mode) if closure and rtc_cache is not None else None
    return ClausePlan(
        clause=clause_to_regex(step.clause).to_string(),
        pre=unit.pre.to_string() if closure else None,
        r=unit.r.to_string() if closure else None,
        closure_type=unit.type,
        post=unit.post.to_string(),
        post_strategy=strategy,
        rtc_key=key,
        rtc_cached=key is not None and rtc_cache.peek(key) is not None,
        estimated_cost=estimate_cost(graph, unit.r if closure else unit.post),
    )
