"""Ablation -- the four operation eliminations of Algorithm 2.

Runs the Experiment-1 workload on the median synthetic graph with each
optimisation of ``EvalBatchUnit`` disabled in turn, comparing operation
counts (deterministic, unlike wall-clock at this scale):

* redundant-1 off -> more closure-walk starts;
* redundant-2 off -> more Cartesian expansion work;
* useless-2 off   -> duplicate checks re-appear at Eq. (9).

Also verifies the result sets never change (the gate the paper's
correctness rests on), and reports FullSharing's counter profile for
contrast (it performs the useless-1 walks the RTC join never starts).
"""

from bench_common import NUM_RPQS, SEED, emit, record_rows
from repro.core.batch_unit import BatchUnitOptions
from repro.core.engines import FullSharingEngine, RTCSharingEngine
from repro.formatting import format_table
from repro.workloads.generator import generate_workload

VARIANTS = {
    "all-on (paper)": BatchUnitOptions(),
    "redundant1 off": BatchUnitOptions(eliminate_redundant1=False),
    "redundant2 off": BatchUnitOptions(eliminate_redundant2=False),
    "useless2 off": BatchUnitOptions(eliminate_useless2=False),
    "all off": BatchUnitOptions(
        eliminate_redundant1=False,
        eliminate_redundant2=False,
        eliminate_useless2=False,
    ),
}


def _run(graph, queries):
    rows = []
    reference = None
    for name, options in VARIANTS.items():
        engine = RTCSharingEngine(graph, options=options, collect_counters=True)
        results = engine.evaluate_many(queries)
        if reference is None:
            reference = results
        assert results == reference, name
        counters = engine.counters
        rows.append(
            {
                "variant": name,
                "closure_walks": counters.closure_walk_starts,
                "dup_checks": counters.dup_checks,
                "dup_hits": counters.dup_hits,
                "cartesian": counters.cartesian_outputs,
            }
        )
    full = FullSharingEngine(graph, collect_counters=True)
    assert full.evaluate_many(queries) == reference
    rows.append(
        {
            "variant": "FullSharing (contrast)",
            "closure_walks": full.counters.closure_walk_starts,
            "dup_checks": full.counters.dup_checks,
            "dup_hits": full.counters.dup_hits,
            "cartesian": full.counters.cartesian_outputs,
        }
    )
    return rows


def test_ablation_algorithm2_optimisations(benchmark, rmat3_graph):
    workload = generate_workload(
        rmat3_graph, num_sets=1, max_rpqs=NUM_RPQS, seed=SEED
    )
    queries = workload[0].subset(NUM_RPQS)
    rows = benchmark.pedantic(
        lambda: _run(rmat3_graph, queries), rounds=1, iterations=1
    )
    record_rows("ablation_optimizations", rows)
    headers = ["variant", "closure walks", "dup checks", "dup hits", "cartesian ops"]
    body = [
        [
            row["variant"],
            row["closure_walks"],
            row["dup_checks"],
            row["dup_hits"],
            row["cartesian"],
        ]
        for row in rows
    ]
    emit(
        "ablation_optimizations",
        "Ablation: Algorithm 2 operation eliminations (RMAT_3 workload)\n"
        + format_table(headers, body),
    )

    by_variant = {row["variant"]: row for row in rows}
    paper = by_variant["all-on (paper)"]
    assert by_variant["redundant1 off"]["closure_walks"] >= paper["closure_walks"]
    assert by_variant["redundant2 off"]["cartesian"] >= paper["cartesian"]
    assert by_variant["useless2 off"]["dup_checks"] > paper["dup_checks"]
    assert by_variant["all off"]["cartesian"] >= paper["cartesian"]
    # FullSharing's walks are full BFS traversals of G_R (one per vertex,
    # the useless-1 work); RTC's "walks" are O(1) closure lookups.  The
    # numbers are not directly comparable, but Full must have started one
    # walk per G_R vertex of each distinct R (> 0 here).
    assert by_variant["FullSharing (contrast)"]["closure_walks"] > 0
