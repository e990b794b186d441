"""Ablation -- batch-unit ordering (the paper's "future work").

Measures mean time-to-completion per query when a multiple-RPQ set is
evaluated in workload order vs in the planner's cheap-first order.  Total
work is identical (the RTC cache guarantees it); the scheduling win is in
*average latency*: cheap queries stop waiting behind expensive ones.
"""

import time

from bench_common import SEED, emit, record_rows
from repro.bench.formatting import format_seconds, format_table
from repro.core.engines import RTCSharingEngine
from repro.core.explain import estimate_cost
from repro.regex.parser import parse
from repro.workloads.generator import generate_workload


def _mean_completion(graph, queries) -> float:
    engine = RTCSharingEngine(graph)
    started = time.perf_counter()
    completions = []
    for query in queries:
        engine.evaluate(query)
        completions.append(time.perf_counter() - started)
    return sum(completions) / len(completions)


def _workload(graph):
    sets = generate_workload(graph, num_sets=2, max_rpqs=5, seed=SEED)
    queries = [query for rpq_set in sets for query in rpq_set.subset(5)]
    # Adversarial order: most expensive first (worst case for latency).
    queries.sort(key=lambda q: -estimate_cost(graph, parse(q)))
    return queries


def test_planner_cheap_first_latency(benchmark, rmat3_graph):
    queries = _workload(rmat3_graph)
    planned = sorted(
        queries, key=lambda q: estimate_cost(rmat3_graph, parse(q))
    )

    def run_both():
        return {
            "workload order": _mean_completion(rmat3_graph, queries),
            "planned (cheap first)": _mean_completion(rmat3_graph, planned),
        }

    latencies = benchmark.pedantic(run_both, rounds=1, iterations=1)
    record_rows("ablation_planner", [latencies])
    emit(
        "ablation_planner",
        "Ablation: planner ordering (mean per-query completion latency)\n"
        + format_table(
            ["schedule", "mean completion"],
            [[name, format_seconds(value)] for name, value in latencies.items()],
        ),
    )
    # Cheap-first must not be worse; usually strictly better.
    assert latencies["planned (cheap first)"] <= latencies["workload order"] * 1.1
