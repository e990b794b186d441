"""Ablation -- what structure to share: RTC vs materialised closure.

Head-to-head on one graph and one workload, isolating the *shared
structure* decision from everything else (the engines share the DNF,
decomposition, Pre/Post machinery):

* build cost   (Shared_Data phase),
* stored pairs (the Fig. 12 quantity),
* join cost    (PreG ⋈ R+G phase).

Also measures the semantic-vs-syntactic cache-key extension: with
language-equal closure bodies spelled differently, the semantic key
computes one RTC where the syntactic key computes two.
"""

from bench_common import NUM_RPQS, SEED, emit, record_rows
from repro.bench.formatting import format_seconds, format_table
from repro.core.engines import FullSharingEngine, RTCSharingEngine
from repro.core.timing import PHASE_PRE_JOIN, PHASE_SHARED_DATA
from repro.workloads.generator import generate_workload


def test_shared_structure_head_to_head(benchmark, rmat3_graph):
    workload = generate_workload(
        rmat3_graph, num_sets=1, max_rpqs=NUM_RPQS, seed=SEED
    )
    queries = workload[0].subset(NUM_RPQS)

    def run():
        rows = []
        reference = None
        for engine in (
            FullSharingEngine(rmat3_graph),
            RTCSharingEngine(rmat3_graph),
        ):
            results = engine.evaluate_many(queries)
            if reference is None:
                reference = results
            assert results == reference
            rows.append(
                {
                    "structure": engine.name,
                    "build": engine.timer.get(PHASE_SHARED_DATA),
                    "join": engine.timer.get(PHASE_PRE_JOIN),
                    "pairs": engine.shared_data_size(),
                }
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    record_rows("ablation_shared_structure", rows)
    emit(
        "ablation_shared_structure",
        "Ablation: shared structure (RMAT_3 workload)\n"
        + format_table(
            ["structure", "build time", "join time", "stored pairs"],
            [
                [
                    row["structure"],
                    format_seconds(row["build"]),
                    format_seconds(row["join"]),
                    row["pairs"],
                ]
                for row in rows
            ],
        ),
    )
    full, rtc = rows
    assert rtc["pairs"] <= full["pairs"]
    assert rtc["build"] < full["build"]


def test_semantic_cache_key_extension(benchmark, rmat3_graph):
    # Two spellings of the same closure language.
    spellings = ["l0.(l1.l2|l1.l3)+", "l0.(l1.(l2|l3))+"]

    def run():
        syntactic = RTCSharingEngine(rmat3_graph)
        semantic = RTCSharingEngine(rmat3_graph, cache_mode="semantic")
        results = {}
        for name, engine in (("syntactic", syntactic), ("semantic", semantic)):
            answers = [engine.evaluate(query) for query in spellings]
            results[name] = {
                "answers": answers,
                "entries": engine.rtc_cache.stats.entries,
                "build": engine.timer.get(PHASE_SHARED_DATA),
            }
        assert results["syntactic"]["answers"] == results["semantic"]["answers"]
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "ablation_cache_keys",
        "Ablation: cache key mode on language-equal closure spellings\n"
        + format_table(
            ["mode", "RTC entries", "build time"],
            [
                [
                    name,
                    entry["entries"],
                    format_seconds(entry["build"]),
                ]
                for name, entry in results.items()
            ],
        ),
    )
    assert results["semantic"]["entries"] == 1
    assert results["syntactic"]["entries"] == 2
