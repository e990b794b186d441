"""Core of the reproduction: graph reduction, the RTC, and the engines.

Public surface:

* reductions: :func:`edge_level_reduce`, :func:`vertex_level_reduce`,
  :func:`reduce_graph`, :class:`ReductionResult`;
* the RTC: :class:`ReducedTransitiveClosure`, :func:`compute_rtc`;
* DNF machinery: :func:`to_dnf`, :class:`ClosureLiteral`,
  :func:`clause_to_regex`, :func:`decompose_clause`, :class:`BatchUnit`;
* query plans, derived once per query for the whole process:
  :class:`Plan`, :func:`plan_for` (``Plan.bodies`` is the closure
  bodies a query shares);
* Algorithm 2: :func:`eval_batch_unit`, :class:`BatchUnitOptions`;
* engines: :class:`RTCSharingEngine`, :class:`FullSharingEngine`,
  :class:`NoSharingEngine` (built by name through :mod:`repro.db`);
* :func:`explain`, the static rendering of a plan;
* caches (:class:`RTCCache`, :class:`ClosureCache`), phase timing and
  reduction statistics.
"""

from repro.core.batch_unit import (
    BatchUnitOptions,
    apply_post,
    eval_batch_unit,
    join_pre_with_rtc,
)
from repro.core.cache import CacheStats, ClosureCache, RTCCache, SharedDataCache
from repro.core.decompose import BatchUnit, decompose_clause
from repro.core.dnf import ClosureLiteral, clause_to_regex, dnf_to_regex, to_dnf
from repro.core.explain import ClausePlan, QueryPlan, explain
from repro.core.incremental import IncrementalRTC
from repro.core.engines import (
    FullSharingEngine,
    NoSharingEngine,
    RPQEngine,
    RTCSharingEngine,
)
from repro.core.plan import Plan, plan_for
from repro.core.reduction import (
    ReductionResult,
    edge_level_reduce,
    reduce_graph,
    vertex_level_reduce,
)
from repro.core.rtc import ReducedTransitiveClosure, compute_rtc
from repro.core.serialize import rtc_from_dict, rtc_to_dict
from repro.core.stats import ReductionStats, reduction_stats
from repro.core.timing import (
    ALL_PHASES,
    PHASE_PRE_JOIN,
    PHASE_REMAINDER,
    PHASE_SHARED_DATA,
    PhaseTimer,
)

__all__ = [
    "edge_level_reduce",
    "vertex_level_reduce",
    "reduce_graph",
    "ReductionResult",
    "ReducedTransitiveClosure",
    "compute_rtc",
    "to_dnf",
    "ClosureLiteral",
    "clause_to_regex",
    "dnf_to_regex",
    "decompose_clause",
    "BatchUnit",
    "Plan",
    "plan_for",
    "eval_batch_unit",
    "join_pre_with_rtc",
    "apply_post",
    "BatchUnitOptions",
    "RPQEngine",
    "NoSharingEngine",
    "FullSharingEngine",
    "RTCSharingEngine",
    "RTCCache",
    "ClosureCache",
    "SharedDataCache",
    "CacheStats",
    "PhaseTimer",
    "ALL_PHASES",
    "PHASE_SHARED_DATA",
    "PHASE_PRE_JOIN",
    "PHASE_REMAINDER",
    "ReductionStats",
    "reduction_stats",
    "rtc_to_dict",
    "rtc_from_dict",
    "IncrementalRTC",
    "explain",
    "QueryPlan",
    "ClausePlan",
]
