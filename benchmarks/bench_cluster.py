"""Cluster benchmark: sharded vs single-node QPS.

Drives the :mod:`repro.cluster` stack (real TCP, real threads) with a
closure-sharing workload over a multi-component R-MAT graph.  The main
sweep puts a 1-shard deployment against an N-shard one at high client
concurrency, once read-only (expected: parity; component-disjoint
evaluation is work-conserving) and once with streaming updates
interleaved (expected: the sharded deployment wins, because an update
drains and cache-flushes only its owning shard instead of the whole
service).

Emits ``BENCH_cluster.json`` at the repository root (plus a table under
``benchmarks/results/``).  The headline gate: the sharded rtc
deployment's QPS beats the 1-shard deployment's under the mixed
workload.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_cluster.py

A second sweep covers the **edge-cut** strategy: a single-WCC R-MAT
graph (the shape component partitioning cannot spread) served 1-shard
vs N-shard edge-cut, every sharded answer going through the router's
boundary join, both verified against a single session.

A third sweep measures durable **restart**: a ``--data-dir``-backed
cluster is started cold, checkpointed, and restarted warm over the
same directory.  The recorded row compares startup and query times,
but the gate is cache behaviour: the warm replay must serve every
closure from the persisted RTC store (zero RTC constructions).

Every gate decision is recorded explicitly under ``"gates"`` in the
JSON.

Environment overrides: ``REPRO_BENCH_CLUSTER_BLOCKS`` (R-MAT blocks,
default 8), ``REPRO_BENCH_CLUSTER_SCALE`` (log2 vertices per block,
default 6), ``REPRO_BENCH_CLUSTER_SHARDS`` (comma list, default
``1,4``), ``REPRO_BENCH_CLUSTER_CLIENTS`` (default 32),
``REPRO_BENCH_CLUSTER_REQUESTS`` (requests per client, default 16),
``REPRO_BENCH_CLUSTER_UPDATE_EVERY`` (default 2),
``REPRO_BENCH_CLUSTER_EDGECUT_SHARDS`` (default 2; 0 skips the
edge-cut sweep), ``REPRO_BENCH_CLUSTER_EDGECUT_SCALE`` (log2 vertices
of the single-WCC graph, default 6),
``REPRO_BENCH_CLUSTER_RESTART_SHARDS`` (default 2; 0 skips the
cold-vs-warm restart sweep).

Not collected by pytest (no ``test_`` prefix); CI runs it as a script.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_DIR = Path(__file__).resolve().parent / "results"
OUTPUT_PATH = REPO_ROOT / "BENCH_cluster.json"

BLOCKS = int(os.environ.get("REPRO_BENCH_CLUSTER_BLOCKS", "8"))
SCALE = int(os.environ.get("REPRO_BENCH_CLUSTER_SCALE", "6"))
SHARD_COUNTS = tuple(
    int(value)
    for value in os.environ.get("REPRO_BENCH_CLUSTER_SHARDS", "1,4").split(",")
)
CLIENTS = int(os.environ.get("REPRO_BENCH_CLUSTER_CLIENTS", "32"))
REQUESTS_PER_CLIENT = int(os.environ.get("REPRO_BENCH_CLUSTER_REQUESTS", "16"))
UPDATE_EVERY = int(os.environ.get("REPRO_BENCH_CLUSTER_UPDATE_EVERY", "2"))
WORKERS = int(os.environ.get("REPRO_BENCH_CLUSTER_WORKERS", "2"))
SEED = int(os.environ.get("REPRO_BENCH_SEED", "0"))
EDGECUT_SHARDS = int(os.environ.get("REPRO_BENCH_CLUSTER_EDGECUT_SHARDS", "2"))
EDGECUT_SCALE = int(os.environ.get("REPRO_BENCH_CLUSTER_EDGECUT_SCALE", "6"))
RESTART_SHARDS = int(os.environ.get("REPRO_BENCH_CLUSTER_RESTART_SHARDS", "2"))


def build_workload():
    """A multi-component R-MAT graph plus closure-sharing queries."""
    from repro.datasets.rmat import rmat_component_graph
    from repro.workloads.generator import generate_workload

    graph = rmat_component_graph(
        components=BLOCKS, scale=SCALE, num_labels=3, seed=SEED
    )
    sets = generate_workload(
        graph,
        num_sets=2,
        lengths=(1, 2),
        max_rpqs=5,
        seed=SEED,
        require_nonempty=True,
    )
    queries = [query for rpq_set in sets for query in rpq_set.queries]
    return graph, queries


def build_edgecut_workload():
    """A single-WCC R-MAT graph (the edge-cut scenario) plus queries."""
    from repro.datasets.rmat import rmat_connected_graph
    from repro.workloads.generator import generate_workload

    graph = rmat_connected_graph(
        EDGECUT_SCALE, 6 * (1 << EDGECUT_SCALE), num_labels=3, seed=SEED
    )
    sets = generate_workload(
        graph,
        num_sets=1,
        lengths=(1, 2),
        max_rpqs=5,
        seed=SEED,
        require_nonempty=True,
    )
    queries = [query for rpq_set in sets for query in rpq_set.queries]
    return graph, queries


def wire_comparison_rows(graph, queries):
    """Packed-vs-list wire bytes on this workload's shard payloads.

    Measures the relations the router actually ships: per-query result
    pair sets (the ``query`` verb's payload).
    """
    from kernel_bench import run_wire_comparison
    from repro.rpq import eval_rpq

    subset = [query for query in queries if "+" in query or "*" in query][:4]
    return run_wire_comparison(
        {query: eval_rpq(graph, query) for query in subset}
    )


def main() -> int:
    from bench_common import environment_metadata
    from cluster_bench import (
        format_cluster_rows,
        format_restart_rows,
        run_cluster_benchmark,
        run_edge_cut_benchmark,
        run_restart_benchmark,
    )
    from kernel_bench import format_wire_rows

    environment = environment_metadata()
    cpu_count = environment["cpu_count"]
    graph, queries = build_workload()
    print(
        f"cluster benchmark: {BLOCKS} blocks x 2^{SCALE} vertices "
        f"({graph.num_edges} edges), {len(queries)} queries, "
        f"{CLIENTS} clients x {REQUESTS_PER_CLIENT} requests, "
        f"shards {SHARD_COUNTS}, "
        f"1 update per {UPDATE_EVERY} requests in the mixed workload, "
        f"{cpu_count} CPUs"
    )
    rows = run_cluster_benchmark(
        graph,
        queries,
        shard_counts=SHARD_COUNTS,
        num_clients=CLIENTS,
        requests_per_client=REQUESTS_PER_CLIENT,
        workers=WORKERS,
        update_every=UPDATE_EVERY,
    )

    edgecut_rows = []
    edgecut_queries = []
    if EDGECUT_SHARDS > 1:
        edgecut_graph, edgecut_queries = build_edgecut_workload()
        print(
            f"edge-cut scenario: single-WCC 2^{EDGECUT_SCALE} vertices "
            f"({edgecut_graph.num_edges} edges), "
            f"{len(edgecut_queries)} queries, 1 vs {EDGECUT_SHARDS} shards"
        )
        edgecut_rows = run_edge_cut_benchmark(
            edgecut_graph,
            edgecut_queries,
            shards=EDGECUT_SHARDS,
            workers=WORKERS,
        )

    restart_rows = []
    if RESTART_SHARDS > 1:
        import tempfile

        print(
            f"restart scenario: cold start vs checkpointed warm restart, "
            f"{RESTART_SHARDS} shards over a scratch data directory"
        )
        with tempfile.TemporaryDirectory(prefix="repro-bench-restart-") as scratch:
            restart_rows = run_restart_benchmark(
                graph,
                queries,
                data_dir=scratch,
                shards=RESTART_SHARDS,
                workers=WORKERS,
            )

    table = format_cluster_rows(rows + edgecut_rows)
    print(table)
    if restart_rows:
        table += "\n" + format_restart_rows(restart_rows)
        print(format_restart_rows(restart_rows))

    wire_rows = wire_comparison_rows(graph, queries)
    wire_table = format_wire_rows(wire_rows)
    print(wire_table)
    table += "\n" + wire_table

    def qps(shards: int, update_every: int) -> float:
        for row in rows:
            if row["shards"] == shards and row["update_every"] == update_every:
                return row["qps"]
        raise KeyError((shards, update_every))

    baseline = min(SHARD_COUNTS)
    comparisons = {}
    for shards in SHARD_COUNTS:
        if shards == baseline:
            continue
        comparisons[str(shards)] = {
            "mixed_qps": qps(shards, UPDATE_EVERY),
            "single_shard_mixed_qps": qps(baseline, UPDATE_EVERY),
            "mixed_speedup": qps(shards, UPDATE_EVERY)
            / qps(baseline, UPDATE_EVERY),
            "read_only_qps": qps(shards, 0),
            "single_shard_read_only_qps": qps(baseline, 0),
            "read_only_speedup": qps(shards, 0) / qps(baseline, 0),
        }

    edge_cut = None
    if edgecut_rows:
        by_strategy = {row["strategy"]: row for row in edgecut_rows}
        single = by_strategy.get("component", {})
        sharded = by_strategy.get("edge-cut", {})
        edge_cut = {
            "workload": "single-WCC R-MAT, read-only, verified vs session",
            "scale": EDGECUT_SCALE,
            "shards": EDGECUT_SHARDS,
            "queries": edgecut_queries,
            "cut_edges": sharded.get("cut_edges", 0),
            "rows": edgecut_rows,
        }
        if single.get("qps") and sharded.get("qps"):
            edge_cut["single_shard_qps"] = single["qps"]
            edge_cut["edge_cut_qps"] = sharded["qps"]
            edge_cut["edge_cut_speedup"] = sharded["qps"] / single["qps"]

    restart = None
    if restart_rows:
        by_phase = {row["phase"]: row for row in restart_rows}
        restart = {
            "workload": (
                "durable cluster: cold start vs checkpointed "
                "warm restart over the same data directory"
            ),
            "shards": RESTART_SHARDS,
            "cold_startup_seconds": by_phase["cold-start"]["startup_seconds"],
            "warm_startup_seconds": by_phase["warm-restart"]["startup_seconds"],
            "warm_entries": by_phase["warm-restart"]["warm_entries"],
            "warm_rtc_constructions": by_phase["warm-restart"]["rtc_constructions"],
            "rows": restart_rows,
        }

    document = {
        "benchmark": (
            "repro.cluster QPS: sharded vs single-shard "
            "(read-only and mixed-update workloads) and "
            "edge-cut boundary-join serving of a single-WCC graph"
        ),
        "environment": environment,
        "config": {
            "blocks": BLOCKS,
            "scale": SCALE,
            "edges": graph.num_edges,
            "labels": graph.num_labels,
            "queries": queries,
            "shard_counts": list(SHARD_COUNTS),
            "clients": CLIENTS,
            "requests_per_client": REQUESTS_PER_CLIENT,
            "update_every": UPDATE_EVERY,
            "workers_per_shard": WORKERS,
            "cpu_count": cpu_count,
            "seed": SEED,
            "edgecut_shards": EDGECUT_SHARDS,
            "edgecut_scale": EDGECUT_SCALE,
        },
        "rows": rows,
        "qps_comparison": comparisons,
        "edge_cut": edge_cut,
        "restart": restart,
        "wire_comparison": wire_rows,
    }

    status = 0
    gates = {}
    slower = [
        shards
        for shards, entry in comparisons.items()
        if entry["mixed_speedup"] < 1.0
    ]
    if slower:
        gates["sharded_mixed"] = (
            f"failed: below the {baseline}-shard QPS at "
            f"{', '.join(slower)} shards"
        )
        print(
            f"WARNING: sharded mixed-workload QPS below the {baseline}-shard "
            f"configuration at {', '.join(slower)} shards",
            file=sys.stderr,
        )
        status = 1
    elif comparisons:
        gates["sharded_mixed"] = "passed: sharded mixed QPS beats 1 shard"
    if edge_cut is not None:
        # measure_cluster_configuration verifies every cell against a
        # single session; reaching this line means identity held.
        gates["edge_cut_identity"] = (
            f"passed: 1 and {EDGECUT_SHARDS} shard answers match one "
            f"session over {edge_cut['cut_edges']} cut edges"
        )
    if restart is not None:
        # Gate on cache behaviour, not wall-clock: the warm replay must
        # construct nothing (timings are recorded as context only).
        entries = restart["warm_entries"]
        constructions = restart["warm_rtc_constructions"]
        if entries >= 1 and constructions == 0:
            gates["warm_restart"] = (
                f"passed: {entries} warm closures installed, "
                "0 RTC constructions on replay"
            )
        else:
            gates["warm_restart"] = (
                f"failed: {entries} warm closures, "
                f"{constructions} RTC constructions on replay"
            )
            print(
                "WARNING: warm restart recomputed closures "
                f"({entries} entries installed, {constructions} constructions)",
                file=sys.stderr,
            )
            status = 1
    document["gates"] = gates
    OUTPUT_PATH.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "bench_cluster.txt").write_text(table + "\n", encoding="utf-8")
    print(f"wrote {OUTPUT_PATH}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
