"""Measurement harness for the paper's multiple-RPQ experiments.

:func:`run_rpq_set` evaluates one multiple-RPQ set with each method
(``No`` / ``Full`` / ``RTC``), on a **fresh engine per method** (so each
measurement includes the one-time shared-data construction, like the
paper's "query response time ... includes the time taken to construct the
two-level reduced graph [and] to compute the shared data"), captures

* total response time -- what the caller waited for, so a packed
  result's decode into vertex tuples (:class:`~repro.db.ResultSet`'s
  ``materialise`` phase) counts just as the tuple building inside the
  other engines' ``evaluate`` does,
* the three-phase breakdown (Shared_Data, PreG ⋈ R+G, Remainder),
* the shared-data size (pairs in ``R+_G`` or ``TC(Ḡ_R)``),
* optional operation counters,

and **asserts all methods returned identical result sets** -- a
correctness gate built into every benchmark run.

:func:`run_workload` averages measurements over a list of multiple-RPQ
sets, which is how the paper reports every figure ("multiple RPQ sets'
average query response time").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence

from repro.core.timing import PHASE_PRE_JOIN, PHASE_REMAINDER, PHASE_SHARED_DATA
from repro.db import GraphDB
from repro.errors import EvaluationError
from repro.graph.multigraph import LabeledMultigraph

__all__ = ["MethodMeasurement", "SetMeasurement", "run_rpq_set", "run_workload", "METHODS"]

#: Method names in the paper's presentation order.
METHODS = ("No", "Full", "RTC")

_ENGINE_NAMES = {"No": "no", "Full": "full", "RTC": "rtc"}


@dataclass
class MethodMeasurement:
    """One method's measurements over one multiple-RPQ set."""

    method: str
    total_time: float
    shared_data_time: float
    pre_join_time: float
    remainder_time: float
    shared_pairs: int
    result_pairs: int
    counters: dict[str, int] = field(default_factory=dict)

    @property
    def phases(self) -> dict[str, float]:
        return {
            PHASE_SHARED_DATA: self.shared_data_time,
            PHASE_PRE_JOIN: self.pre_join_time,
            PHASE_REMAINDER: self.remainder_time,
        }


@dataclass
class SetMeasurement:
    """All methods' measurements over one multiple-RPQ set."""

    queries: tuple[str, ...]
    per_method: dict[str, MethodMeasurement]

    def ratio(self, numerator: str, denominator: str = "RTC") -> float:
        """Response-time ratio, e.g. ``ratio("Full")`` = Full / RTC."""
        denominator_time = self.per_method[denominator].total_time
        if denominator_time == 0.0:
            return float("inf")
        return self.per_method[numerator].total_time / denominator_time


def run_rpq_set(
    graph: LabeledMultigraph,
    queries: Sequence[str],
    methods: Sequence[str] = METHODS,
    engine_kwargs: dict | None = None,
    collect_counters: bool = False,
    check_equal: bool = True,
) -> SetMeasurement:
    """Evaluate one multiple-RPQ set with each method and measure it.

    Each method runs on a fresh :class:`~repro.db.GraphDB` session (so
    the measurement includes the one-time shared-data construction); the
    measurement rows are aggregated from the sessions' engines.
    """
    per_method: dict[str, MethodMeasurement] = {}
    reference_results: list[frozenset] | None = None
    for method in methods:
        kwargs = dict(engine_kwargs or {})
        if collect_counters:
            kwargs["collect_counters"] = True
        db = GraphDB.open(graph, engine=_ENGINE_NAMES[method], **kwargs)
        result_sets = db.execute_many(list(queries))
        results = [result.pairs for result in result_sets]
        if check_equal:
            if reference_results is None:
                reference_results = results
            elif results != reference_results:
                raise EvaluationError(
                    f"method {method} disagreed with {methods[0]} on "
                    f"queries {list(queries)}"
                )
        engine = db.engine
        per_method[method] = MethodMeasurement(
            method=method,
            total_time=sum(result.total_time for result in result_sets),
            shared_data_time=engine.timer.get(PHASE_SHARED_DATA),
            pre_join_time=engine.timer.get(PHASE_PRE_JOIN),
            remainder_time=engine.timer.get(PHASE_REMAINDER),
            shared_pairs=engine.shared_data_size(),
            result_pairs=sum(len(result) for result in results),
            counters=(
                engine.counters.as_dict() if engine.counters is not None else {}
            ),
        )
        # Only the reference answers outlive a method: the next one must
        # not be timed while this one's session and tuples fill the heap.
        del db, engine, result_sets, results
    return SetMeasurement(queries=tuple(queries), per_method=per_method)


@dataclass
class WorkloadMeasurement:
    """Averages over several multiple-RPQ sets (what the figures plot)."""

    num_sets: int
    num_rpqs: int
    mean_total: dict[str, float]
    mean_shared_data: dict[str, float]
    mean_pre_join: dict[str, float]
    mean_remainder: dict[str, float]
    mean_shared_pairs: dict[str, float]

    def ratio(self, numerator: str, denominator: str = "RTC") -> float:
        """Mean response-time ratio (e.g. Full over RTC)."""
        denominator_time = self.mean_total[denominator]
        if denominator_time == 0.0:
            return float("inf")
        return self.mean_total[numerator] / denominator_time


def run_workload(
    graph: LabeledMultigraph,
    query_sets: Sequence[Sequence[str]],
    methods: Sequence[str] = METHODS,
    engine_kwargs: dict | None = None,
    check_equal: bool = True,
) -> WorkloadMeasurement:
    """Run several multiple-RPQ sets and average per-method measurements."""
    if not query_sets:
        raise ValueError("query_sets must be non-empty")
    sums_total = {method: 0.0 for method in methods}
    sums_shared = dict(sums_total)
    sums_join = dict(sums_total)
    sums_remainder = dict(sums_total)
    sums_pairs = dict(sums_total)
    for queries in query_sets:
        measurement = run_rpq_set(
            graph,
            queries,
            methods=methods,
            engine_kwargs=engine_kwargs,
            check_equal=check_equal,
        )
        for method in methods:
            record = measurement.per_method[method]
            sums_total[method] += record.total_time
            sums_shared[method] += record.shared_data_time
            sums_join[method] += record.pre_join_time
            sums_remainder[method] += record.remainder_time
            sums_pairs[method] += record.shared_pairs
    count = len(query_sets)
    return WorkloadMeasurement(
        num_sets=count,
        num_rpqs=len(query_sets[0]),
        mean_total={m: sums_total[m] / count for m in methods},
        mean_shared_data={m: sums_shared[m] / count for m in methods},
        mean_pre_join={m: sums_join[m] / count for m in methods},
        mean_remainder={m: sums_remainder[m] / count for m in methods},
        mean_shared_pairs={m: sums_pairs[m] / count for m in methods},
    )
