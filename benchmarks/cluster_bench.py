"""Throughput measurement of the :mod:`repro.cluster` serving layer.

:func:`run_cluster_benchmark` spins up a :class:`~repro.cluster.ClusterRouter`
per ``(shards, update mix)`` configuration -- real TCP, real client
threads, the exact ``repro serve --shards N`` path -- and replays a
closure-sharing workload, optionally interleaved with streaming edge
updates (every ``update_every``-th request per client toggles an edge).

The update mix is the scenario sharding is *for* on a single machine.
The mixed workload watches (:meth:`~repro.db.GraphDB.watch`) the
workload's closure bodies -- the paper's streaming extension -- and
every update then pays the maintenance bill: the session's cached RTCs
of the bodies it touches are repaired *over the whole session graph*,
and the scheduler drains.  On a 1-shard deployment that bill is priced on
the full graph and stalls the entire service; with N shards only the
owning shard pays, on 1/N of the data, while the other shards keep
serving from hot caches.  The benchmark's gate is therefore: sharded
QPS > 1-shard QPS at high client counts under the mixed workload.

``benchmarks/bench_cluster.py`` is the command-line driver emitting
``BENCH_cluster.json``.
"""

from __future__ import annotations

import threading
import time

from repro.cluster import ClusterConfig, ClusterRouter, GraphCluster
from repro.db import GraphDB
from repro.formatting import format_seconds, format_table
from repro.graph.multigraph import LabeledMultigraph
from repro.obs import phase_totals
from repro.server import Client, ServerConfig, ServerThread
from repro.server.metrics import percentile

__all__ = [
    "closure_bodies",
    "measure_cluster_configuration",
    "run_cluster_benchmark",
    "run_edge_cut_benchmark",
    "run_restart_benchmark",
    "format_cluster_rows",
    "format_restart_rows",
    "pick_update_targets",
]


def closure_bodies(queries: list[str]) -> list[str]:
    """The distinct Kleene-closure bodies of a query list (normalised).

    These are the bodies a streaming deployment watches; the benchmark
    attaches one watcher per body so updates pay the same maintenance
    cost they would in production.
    """
    from repro.core.decompose import decompose_clause
    from repro.core.dnf import to_dnf
    from repro.regex.parser import parse

    bodies: set[str] = set()
    for query in queries:
        for clause in to_dnf(parse(query), 4096):
            unit = decompose_clause(clause)
            if unit.r is not None:
                bodies.add(unit.r.to_string())
    return sorted(bodies)


def pick_update_targets(graph: LabeledMultigraph, count: int) -> list:
    """``count`` well-connected vertices, spread over the graph's hubs.

    Each benchmark client toggles a uniquely-labeled self-loop on "its"
    target vertex, so updates spread across components (and hence across
    shards) without ever colliding between clients.
    """
    by_degree = sorted(
        (vertex for vertex in graph.vertices() if graph.out_degree(vertex) > 0),
        key=lambda vertex: (-graph.out_degree(vertex), str(vertex)),
    )
    if not by_degree:
        raise ValueError("the benchmark graph has no edges to anchor updates")
    return [by_degree[index % len(by_degree)] for index in range(count)]


def measure_cluster_configuration(
    graph: LabeledMultigraph,
    queries: list[str],
    shards: int,
    num_clients: int,
    requests_per_client: int,
    workers: int = 2,
    batch_window: float = 0.002,
    update_every: int = 0,
    engine: str = "rtc",
    verify: bool = True,
    watch_bodies: list[str] | None = None,
    partition_strategy: str = "component",
) -> dict:
    """One benchmark cell: a ``shards``-shard cluster under load.

    When the workload mixes updates in (``update_every > 0``), the cell
    first attaches a watcher per entry of ``watch_bodies`` (default: the
    closure bodies of ``queries``), so every update carries realistic
    incremental-maintenance cost.  ``partition_strategy`` picks how the
    graph splits (``"edge-cut"`` engages the router's boundary join).
    """
    if watch_bodies is None:
        watch_bodies = closure_bodies(queries)
    cluster = GraphCluster.open(
        graph,
        engine=engine,
        config=ClusterConfig(
            shards=shards,
            workers=workers,
            max_queue=max(4096, num_clients * requests_per_client),
            batch_window=batch_window,
            partition_strategy=partition_strategy,
        ),
        start=False,
    )
    router = ClusterRouter(cluster, ServerConfig(default_timeout=None))
    update_targets = pick_update_targets(graph, num_clients)
    per_client_latencies: list[list[float]] = [[] for _ in range(num_clients)]
    update_counts = [0] * num_clients
    errors: list[BaseException] = []
    phases_before = phase_totals()

    with ServerThread(router) as handle:
        if verify:
            session = GraphDB.open(graph, engine=engine)
            with Client(*handle.address) as probe:
                for query in queries:
                    served = probe.query(query).pairs
                    expected = set(session.execute(query))
                    if served != expected:
                        raise AssertionError(
                            f"cluster answer differs from session for "
                            f"{query!r}: {len(served)} vs {len(expected)} pairs"
                        )
        if update_every:
            with Client(*handle.address) as probe:
                for body in watch_bodies:
                    probe.watch(body)

        barrier = threading.Barrier(num_clients + 1)

        graph_labels = sorted(graph.labels())

        def client_body(index: int) -> None:
            latencies = per_client_latencies[index]
            # Each client toggles its own edge: a real workload label (so
            # watcher maintenance does real work) from its hub vertex to
            # a private new vertex (so clients never collide, and the
            # edge routes to the hub's shard).
            hub = update_targets[index]
            label = graph_labels[index % len(graph_labels)]
            edge = (hub, label, f"bench-w{index}")
            present = False
            try:
                with Client(*handle.address) as client:
                    barrier.wait()
                    for request in range(requests_per_client):
                        if update_every and (request + 1) % update_every == 0:
                            if present:
                                client.update(remove=[edge])
                            else:
                                client.update(add=[edge])
                            present = not present
                            update_counts[index] += 1
                            continue
                        query = queries[request % len(queries)]
                        started = time.perf_counter()
                        client.query(query, pairs=False)
                        latencies.append(time.perf_counter() - started)
            except BaseException as error:  # noqa: BLE001  # repro: noqa[RPR701] -- bench worker thread: the failure is stashed and re-raised by the harness after join
                errors.append(error)
                barrier.abort()

        threads = [
            threading.Thread(target=client_body, args=(index,))
            for index in range(num_clients)
        ]
        for thread in threads:
            thread.start()
        try:
            barrier.wait()
        except threading.BrokenBarrierError:
            pass  # a client aborted during setup; its error is re-raised below
        started = time.perf_counter()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started
        if errors:
            raise errors[0]
        with Client(*handle.address) as probe:
            scheduler_stats = probe.stats()["scheduler"]

    latencies = [
        latency
        for client_latencies in per_client_latencies
        for latency in client_latencies
    ]
    total_queries = len(latencies)
    row = {
        "shards": shards,
        "clients": num_clients,
        "engine": engine,
        "strategy": partition_strategy,
        "cut_edges": len(cluster.partition.cut_relation()),
        "update_every": update_every,
        "queries": total_queries,
        "updates": sum(update_counts),
        "elapsed": elapsed,
        "qps": total_queries / elapsed if elapsed > 0 else 0.0,
        "latency_mean": sum(latencies) / len(latencies) if latencies else 0.0,
        "latency_p50": percentile(latencies, 0.50),
        "latency_p95": percentile(latencies, 0.95),
        "cache_hits": scheduler_stats.get("cache", {}).get("hits", 0),
        "cache_misses": scheduler_stats.get("cache", {}).get("misses", 0),
        "verified": verify,
    }
    # This cell's engine/storage phase breakdown (rtc vs evaluate vs
    # join vs wal ...) as a delta over the process's phase ledger.
    phases_after = phase_totals()
    row["phases"] = {
        phase: round(total - phases_before.get(phase, 0.0), 6)
        for phase, total in sorted(phases_after.items())
        if total - phases_before.get(phase, 0.0) > 0.0
    }
    return row


def run_cluster_benchmark(
    graph: LabeledMultigraph,
    queries: list[str],
    shard_counts=(1, 4),
    num_clients: int = 32,
    requests_per_client: int = 16,
    workers: int = 2,
    update_every: int = 4,
    engine: str = "rtc",
) -> list[dict]:
    """The sweep: each shard count, read-only and mixed-update workloads."""
    rows = []
    for shards in shard_counts:
        for mix in (0, update_every):
            rows.append(
                measure_cluster_configuration(
                    graph,
                    queries,
                    shards=shards,
                    num_clients=num_clients,
                    requests_per_client=requests_per_client,
                    workers=workers,
                    update_every=mix,
                    engine=engine,
                    verify=(mix == 0),
                )
            )
    return rows


def run_edge_cut_benchmark(
    graph: LabeledMultigraph,
    queries: list[str],
    shards: int = 2,
    num_clients: int = 8,
    requests_per_client: int = 8,
    workers: int = 2,
    engine: str = "rtc",
) -> list[dict]:
    """The giant-component scenario: one WCC, edge-cut sharded.

    ``graph`` must be a single weakly-connected component (e.g.
    :func:`repro.datasets.rmat.rmat_connected_graph`).  Component-disjoint
    partitioning can only put it on one shard; the sweep measures that
    1-shard deployment against an ``shards``-shard edge-cut deployment
    whose every answer goes through the router's boundary join.  Both
    cells verify against a single session, so the sweep doubles as a
    live identity gate for the join path.
    """
    cells = [
        dict(shards=1, partition_strategy="component"),
        dict(shards=shards, partition_strategy="edge-cut"),
    ]
    return [
        measure_cluster_configuration(
            graph,
            queries,
            num_clients=num_clients,
            requests_per_client=requests_per_client,
            workers=workers,
            update_every=0,
            engine=engine,
            verify=True,
            **cell,
        )
        for cell in cells
    ]


def run_restart_benchmark(
    graph: LabeledMultigraph,
    queries: list[str],
    data_dir,
    shards: int = 2,
    workers: int = 2,
    engine: str = "rtc",
) -> list[dict]:
    """Cold-vs-warm restart of a durable (``data_dir``-backed) cluster.

    The cold row is the first start over a fresh directory: every
    closure body is constructed from scratch.  The cluster is then
    checkpointed and stopped, and the warm row restarts it over the
    same directory -- the shards recover their graphs from snapshot +
    WAL and their closures from the RTC store.  Startup and query
    times are recorded as context, but the *gate* is cache behaviour,
    not wall-clock: the warm replay of the whole workload must add
    zero RTC constructions (``rtc_constructions == 0``).

    ``engine="rtc"`` only (the row counts the rtc
    engine's construction misses).
    """
    rows = []
    config = ClusterConfig(shards=shards, workers=workers, data_dir=data_dir)
    for phase in ("cold-start", "warm-restart"):
        started = time.perf_counter()
        cluster = GraphCluster.open(graph.copy(), engine=engine, config=config)
        startup = time.perf_counter() - started
        try:
            caches = [
                cluster.backend(shard).db.engine.rtc_cache.stats
                for shard in range(shards)
            ]
            base_misses = sum(cache.misses for cache in caches)
            first_started = time.perf_counter()
            cluster.submit(queries[0]).result(timeout=300)
            first_query = time.perf_counter() - first_started
            replay_started = time.perf_counter()
            for query in queries[1:]:
                cluster.submit(query).result(timeout=300)
            replay = time.perf_counter() - replay_started
            document = cluster.describe()
            storage_docs = [
                entry.get("storage", {}) for entry in document["per_shard"]
            ]
            rows.append(
                {
                    "phase": phase,
                    "shards": shards,
                    "queries": len(queries),
                    "startup_seconds": startup,
                    "first_query_seconds": first_query,
                    "replay_seconds": replay,
                    "recovered": all(
                        doc.get("recovered", False) for doc in storage_docs
                    ),
                    "warm_entries": sum(
                        doc.get("warm", {}).get("entries", 0)
                        for doc in storage_docs
                    ),
                    "rtc_constructions": sum(
                        cache.misses for cache in caches
                    ) - base_misses,
                }
            )
            cluster.checkpoint()
        finally:
            cluster.stop()
    return rows


def format_cluster_rows(rows: list[dict]) -> str:
    """The human-readable table of a cluster benchmark sweep."""
    return format_table(
        [
            "shards",
            "strategy",
            "clients",
            "workload",
            "queries",
            "updates",
            "QPS",
            "p50",
            "p95",
            "cache hit/miss",
        ],
        [
            [
                row["shards"],
                row.get("strategy", "component"),
                row["clients"],
                (
                    f"1 update / {row['update_every']} reqs"
                    if row["update_every"]
                    else "read-only"
                ),
                row["queries"],
                row["updates"],
                f"{row['qps']:.1f}",
                format_seconds(row["latency_p50"]),
                format_seconds(row["latency_p95"]),
                f"{row['cache_hits']}/{row['cache_misses']}",
            ]
            for row in rows
        ],
    )


def format_restart_rows(rows: list[dict]) -> str:
    """The human-readable table of a cold-vs-warm restart sweep."""
    return format_table(
        [
            "phase",
            "shards",
            "queries",
            "startup",
            "first query",
            "replay",
            "warm entries",
            "RTC constructions",
        ],
        [
            [
                row["phase"],
                row["shards"],
                row["queries"],
                format_seconds(row["startup_seconds"]),
                format_seconds(row["first_query_seconds"]),
                format_seconds(row["replay_seconds"]),
                row["warm_entries"],
                row["rtc_constructions"],
            ]
            for row in rows
        ],
    )
