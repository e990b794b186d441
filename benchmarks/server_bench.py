"""Throughput/latency measurement of the :mod:`repro.server` subsystem.

:func:`run_server_benchmark` spins up an in-process server
(:class:`~repro.server.ServerThread`) per ``(engine, client count)``
configuration and drives it with real TCP clients on real threads --
the measured path is exactly what ``repro serve`` serves, protocol
framing included.  All clients start behind a barrier, replay the same
closure-sharing query list (``pairs=False`` keeps the wire cost flat),
and record client-observed latency per request; the server's own
metrics contribute batch sizes and shared-cache hit counts.

``benchmarks/bench_server.py`` is the command-line driver that feeds an
R-MAT workload through this and emits ``BENCH_server.json``.
"""

from __future__ import annotations

import threading
import time

from repro.db import GraphDB
from repro.formatting import format_seconds, format_table
from repro.graph.multigraph import LabeledMultigraph
from repro.obs import phase_totals
from repro.server import Client, ServerConfig, ServerThread
from repro.server.metrics import percentile

__all__ = ["measure_configuration", "run_server_benchmark", "format_benchmark_rows"]


def measure_configuration(
    graph: LabeledMultigraph,
    queries: list[str],
    engine: str,
    num_clients: int,
    requests_per_client: int,
    workers: int = 4,
    batch_window: float = 0.002,
) -> dict:
    """One benchmark cell: ``num_clients`` concurrent clients, one engine."""
    db = GraphDB.open(graph, engine=engine)
    config = ServerConfig(
        workers=workers,
        batch_window=batch_window,
        max_queue=max(4096, num_clients * requests_per_client),
        default_timeout=None,
    )
    per_client_latencies: list[list[float]] = [[] for _ in range(num_clients)]
    errors: list[BaseException] = []
    phases_before = phase_totals()
    with ServerThread(db, config) as handle:
        barrier = threading.Barrier(num_clients + 1)

        def client_body(latencies: list[float]) -> None:
            try:
                with Client(*handle.address) as client:
                    barrier.wait()
                    for index in range(requests_per_client):
                        query = queries[index % len(queries)]
                        started = time.perf_counter()
                        client.query(query, pairs=False)
                        latencies.append(time.perf_counter() - started)
            except BaseException as error:  # noqa: BLE001  # repro: noqa[RPR701] -- bench worker thread: the failure is stashed and re-raised by the harness after join
                errors.append(error)
                barrier.abort()

        threads = [
            threading.Thread(target=client_body, args=(latencies,))
            for latencies in per_client_latencies
        ]
        for thread in threads:
            thread.start()
        barrier.wait()
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
    total_requests = num_clients * requests_per_client
    row = {
        "engine": engine,
        "clients": num_clients,
        "requests": total_requests,
        "elapsed": elapsed,
        "qps": total_requests / elapsed if elapsed > 0 else 0.0,
        "latency_mean": sum(latencies) / len(latencies) if latencies else 0.0,
        "latency_p50": percentile(latencies, 0.50),
        "latency_p95": percentile(latencies, 0.95),
        "batches": scheduler_stats["batches"],
        "mean_batch_size": scheduler_stats["mean_batch_size"],
        "max_batch_size": scheduler_stats["max_batch_size"],
    }
    cache = scheduler_stats.get("cache")
    row["cache_hits"] = cache["hits"] if cache else 0
    row["cache_misses"] = cache["misses"] if cache else 0
    # Where the engine's wall time went during this cell (the always-on
    # phase ledger: rtc construction vs evaluation vs join vs wal ...),
    # as this cell's delta over the process-wide counters.
    phases_after = phase_totals()
    row["phases"] = {
        phase: round(total - phases_before.get(phase, 0.0), 6)
        for phase, total in sorted(phases_after.items())
        if total - phases_before.get(phase, 0.0) > 0.0
    }
    return row


def run_server_benchmark(
    graph: LabeledMultigraph,
    queries: list[str],
    engines=("rtc", "no"),
    client_counts=(1, 8, 32),
    requests_per_client: int = 8,
    workers: int = 4,
    batch_window: float = 0.002,
) -> list[dict]:
    """The full sweep: every engine at every concurrency level."""
    rows = []
    for engine in engines:
        for num_clients in client_counts:
            rows.append(
                measure_configuration(
                    graph,
                    queries,
                    engine,
                    num_clients,
                    requests_per_client,
                    workers=workers,
                    batch_window=batch_window,
                )
            )
    return rows


def format_benchmark_rows(rows: list[dict]) -> str:
    """The human-readable table of a benchmark sweep."""
    return format_table(
        [
            "engine",
            "clients",
            "requests",
            "QPS",
            "p50",
            "p95",
            "mean batch",
            "cache hit/miss",
        ],
        [
            [
                row["engine"],
                row["clients"],
                row["requests"],
                f"{row['qps']:.1f}",
                format_seconds(row["latency_p50"]),
                format_seconds(row["latency_p95"]),
                f"{row['mean_batch_size']:.2f}",
                f"{row['cache_hits']}/{row['cache_misses']}",
            ]
            for row in rows
        ],
    )
