"""Server benchmark: QPS and p95 latency at 1/8/32 concurrent clients.

Drives the :mod:`repro.server` stack (real TCP, real threads) with a
closure-sharing R-MAT workload, once with the paper's ``rtc`` engine and
once with the ``no``-sharing baseline, and emits ``BENCH_server.json``
at the repository root (plus a table under ``benchmarks/results/``).
The headline check: the rtc engine's cached closures keep its QPS at or
above the no-sharing engine's at every concurrency level, with cache
hits >> constructions.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_server.py

Environment overrides: ``REPRO_BENCH_SERVER_SCALE`` (log2 vertices,
default 7), ``REPRO_BENCH_SERVER_REQUESTS`` (requests per client,
default 8), ``REPRO_BENCH_SERVER_CLIENTS`` (comma list, default
``1,8,32``), ``REPRO_BENCH_SERVER_WORKERS`` (default 4).

Not collected by pytest (no ``test_`` prefix); CI runs it as a script.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_DIR = Path(__file__).resolve().parent / "results"
OUTPUT_PATH = REPO_ROOT / "BENCH_server.json"

SCALE = int(os.environ.get("REPRO_BENCH_SERVER_SCALE", "7"))
REQUESTS_PER_CLIENT = int(os.environ.get("REPRO_BENCH_SERVER_REQUESTS", "8"))
CLIENT_COUNTS = tuple(
    int(value)
    for value in os.environ.get("REPRO_BENCH_SERVER_CLIENTS", "1,8,32").split(",")
)
WORKERS = int(os.environ.get("REPRO_BENCH_SERVER_WORKERS", "4"))
SEED = int(os.environ.get("REPRO_BENCH_SEED", "0"))


def build_workload():
    """An R-MAT graph plus a closure-sharing multiple-RPQ query list."""
    from repro.datasets.rmat import rmat_graph
    from repro.workloads.generator import generate_workload

    graph = rmat_graph(
        scale=SCALE, num_edges=6 * (1 << SCALE), num_labels=3, seed=SEED
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


def kernel_and_wire_rows(graph, queries):
    """PR-10 microbenches: kernel before/after + wire byte footprint.

    The kernel rows time a closure-heavy subset of the server workload
    under both eval kernels; the wire rows compare the list and packed
    encodings on the same queries' result relations -- the exact
    payloads the query verb ships when a client negotiates
    ``enc: "packed"``.
    """
    from kernel_bench import run_kernel_comparison, run_wire_comparison
    from repro.rpq import eval_rpq

    subset = [query for query in queries if "+" in query or "*" in query][:4]
    kernel_rows = run_kernel_comparison(graph, subset)
    relations = {query: eval_rpq(graph, query) for query in subset}
    wire_rows = run_wire_comparison(relations)
    return kernel_rows, wire_rows


def main() -> int:
    from bench_common import environment_metadata
    from kernel_bench import format_kernel_rows, format_wire_rows
    from server_bench import format_benchmark_rows, run_server_benchmark

    graph, queries = build_workload()
    print(
        f"server benchmark: 2^{SCALE} vertices, {graph.num_edges} edges, "
        f"{len(queries)} queries ({REQUESTS_PER_CLIENT} requests/client, "
        f"{WORKERS} workers)"
    )
    rows = run_server_benchmark(
        graph,
        queries,
        engines=("rtc", "no"),
        client_counts=CLIENT_COUNTS,
        requests_per_client=REQUESTS_PER_CLIENT,
        workers=WORKERS,
    )
    table = format_benchmark_rows(rows)
    print(table)

    kernel_rows, wire_rows = kernel_and_wire_rows(graph, queries)
    kernel_table = format_kernel_rows(kernel_rows)
    wire_table = format_wire_rows(wire_rows)
    print(kernel_table)
    print(wire_table)
    table += "\n" + kernel_table + "\n" + wire_table

    qps = {(row["engine"], row["clients"]): row["qps"] for row in rows}
    comparisons = {
        str(clients): {
            "rtc_qps": qps[("rtc", clients)],
            "no_qps": qps[("no", clients)],
            "speedup": qps[("rtc", clients)] / qps[("no", clients)],
        }
        for clients in CLIENT_COUNTS
    }
    document = {
        "benchmark": "repro.server QPS/latency, rtc vs no-sharing",
        "environment": environment_metadata(),
        "config": {
            "scale": SCALE,
            "edges": graph.num_edges,
            "labels": graph.num_labels,
            "queries": queries,
            "requests_per_client": REQUESTS_PER_CLIENT,
            "client_counts": list(CLIENT_COUNTS),
            "workers": WORKERS,
            "seed": SEED,
        },
        "rows": rows,
        "qps_comparison": comparisons,
        "kernel_comparison": kernel_rows,
        "wire_comparison": wire_rows,
    }
    OUTPUT_PATH.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "bench_server.txt").write_text(table + "\n", encoding="utf-8")
    print(f"wrote {OUTPUT_PATH}")

    slower = [
        clients
        for clients, entry in comparisons.items()
        if entry["speedup"] < 1.0
    ]
    if slower:
        print(
            f"WARNING: rtc QPS below no-sharing QPS at {', '.join(slower)} "
            "clients",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
