"""Cluster-wide observability: cross-process trace assembly through the
router, pooled latency percentiles, join-round tracing, and the worker
``metrics`` path."""

import json
import socket

import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterRouter,
    GraphCluster,
    partition_graph,
)
from repro.cluster.backends import aggregate_scheduler_stats
from repro.graph.multigraph import LabeledMultigraph
from repro.obs import build_tree, parse_prometheus
from repro.server import Client, ServerConfig, ServerThread
from repro.server.metrics import percentile


def _disjoint_chains(copies: int = 8) -> LabeledMultigraph:
    """``copies`` disjoint a->b->c chains; partitions cleanly across shards."""
    graph = LabeledMultigraph()
    for index in range(copies):
        graph.add_edge(f"a{index}", "b", f"c{index}")
        graph.add_edge(f"c{index}", "c", f"d{index}")
    return graph


@pytest.fixture(scope="module")
def process_router():
    """A 2-shard process-backend cluster behind a live ClusterRouter."""
    cluster = GraphCluster.open(
        _disjoint_chains(),
        config=ClusterConfig(shards=2, workers=1, backend="process"),
    )
    router = ClusterRouter(cluster, ServerConfig(batch_window=0.002))
    with ServerThread(router) as handle:
        with Client(*handle.address) as client:
            yield cluster, handle, client
    cluster.stop()


def _raw_roundtrip(address, payload: dict) -> bytes:
    with socket.create_connection(address, timeout=30) as sock:
        sock.sendall(json.dumps(payload).encode() + b"\n")
        data = b""
        while not data.endswith(b"\n"):
            chunk = sock.recv(65536)
            if not chunk:
                break
            data += chunk
    return data


class TestPooledPercentiles:
    """Cluster-wide latency quantiles must come from pooled reservoirs,
    not from averaging per-replica percentiles."""

    @staticmethod
    def _stats_doc(qps=1.0, batches=1, mean_batch=1.0):
        doc = {
            key: 0
            for key in (
                "admitted",
                "rejected",
                "expired",
                "failed",
                "cancelled",
                "completed",
                "updates",
                "in_flight",
                "batches",
                "queue_depth",
                "workers",
            )
        }
        doc.update(
            uptime=10.0,
            qps=qps,
            batches=batches,
            mean_batch_size=mean_batch,
            max_batch_size=2,
        )
        return doc

    def test_uneven_reservoirs_pool_correctly(self):
        # One replica saw 1 slow request, the other 99 fast ones.  An
        # average-of-percentiles would report ~0.5s at p50; the pooled
        # truth is the 50th value of the merged reservoir.
        slow = [1.0]
        fast = [0.001 * (i + 1) for i in range(99)]
        pooled = slow + fast
        aggregate = aggregate_scheduler_stats(
            [self._stats_doc(), self._stats_doc()], pooled
        )
        latency = aggregate["latency"]
        assert latency["window"] == 100
        for quantile, key in ((0.50, "p50"), (0.95, "p95"), (0.99, "p99")):
            assert latency[key] == percentile(pooled, quantile)
        assert latency["p50"] < 0.1  # the average-of-percentiles trap
        assert latency["mean"] == pytest.approx(sum(pooled) / 100)

    def test_permutation_invariance(self):
        # Pooling is order-free: shuffling which replica held which
        # values cannot move any quantile.
        lat_a = [0.002, 0.4, 0.009]
        lat_b = [0.001] * 10
        docs = [self._stats_doc(), self._stats_doc()]
        one = aggregate_scheduler_stats(docs, lat_a + lat_b)
        other = aggregate_scheduler_stats(docs, lat_b + lat_a)
        assert one["latency"] == other["latency"]

    def test_empty_cluster_reports_nulls(self):
        latency = aggregate_scheduler_stats([], [])["latency"]
        assert latency == {
            "window": 0,
            "mean": None,
            "p50": None,
            "p95": None,
            "p99": None,
        }


class TestTracePropagation:
    """Satellite 3 + the tentpole acceptance gate: one assembled trace
    tree spanning router and both process-backend workers."""

    def test_single_tree_across_processes(self, process_router):
        _, _, client = process_router
        result, trace = client.query_traced("b.c")
        assert result.count == 8
        spans = trace["spans"]
        # Parent ids are intact: every non-root parent resolves inside
        # the same trace, and the forest collapses to one root.
        ids = {span["id"] for span in spans}
        orphans = [
            span
            for span in spans
            if span.get("parent") and span["parent"] not in ids
        ]
        assert orphans == []
        roots = build_tree(trace)
        assert len(roots) == 1
        assert roots[0]["name"] == "request"
        # Three processes contributed spans: router + two shard workers
        # (span ids are pid-prefixed).
        pids = {span["id"].split("-")[0] for span in spans}
        assert len(pids) >= 3
        # At least five distinct phase span types, including the fan-out
        # and the workers' scheduler/engine phases.
        names = {span["name"] for span in spans}
        assert len(names) >= 5
        assert {"request", "shard", "evaluate"} <= names
        # Both shards appear in the fan-out.
        shard_attrs = {
            span["attrs"]["shard"]
            for span in spans
            if span["name"] == "shard"
        }
        assert shard_attrs == {0, 1}

    def test_worker_spans_nest_under_their_shard_span(self, process_router):
        _, _, client = process_router
        _, trace = client.query_traced("b.c")
        by_id = {span["id"]: span for span in trace["spans"]}
        router_pid = next(
            span["id"].split("-")[0]
            for span in trace["spans"]
            if span["name"] == "request"
        )
        worker_spans = [
            span
            for span in trace["spans"]
            if span["id"].split("-")[0] != router_pid
        ]
        assert worker_spans
        for span in worker_spans:
            # Walk up: every worker span reaches a router-side "shard"
            # span, which is how the tree stitches across the wire.
            node = span
            while node["id"].split("-")[0] != router_pid:
                node = by_id[node["parent"]]
            assert node["name"] == "shard"

    def test_untraced_response_is_trace_free_and_stable(self, process_router):
        _, handle, _ = process_router
        payload = {"id": 1, "op": "query", "queries": ["b.c"], "pairs": True}
        first = json.loads(_raw_roundtrip(handle.address, payload))
        second = json.loads(_raw_roundtrip(handle.address, payload))
        assert first["ok"] and "trace" not in first and "trace" not in second
        for response in (first, second):
            for entry in response["results"]:
                entry["time"] = 0.0
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )

    def test_traced_update_spans_both_shards(self, process_router):
        _, _, client = process_router
        # One new-vertex edge anchored in every chain, so the update
        # routes to both shards; the label stays out of every query.
        response = client.update(
            add=[(f"a{i}", "zz", f"n{i}") for i in range(8)], trace=True
        )
        spans = response["trace"]["spans"]
        names = {span["name"] for span in spans}
        assert "request" in names and "shard_update" in names
        assert "update_apply" in names or "update_drain" in names
        shard_attrs = {
            span["attrs"]["shard"]
            for span in spans
            if span["name"] == "shard_update"
        }
        assert shard_attrs == {0, 1}
        pids = {span["id"].split("-")[0] for span in spans}
        assert len(pids) >= 3  # router plus both shards' workers

    def test_metrics_verbs_router_and_worker(self, process_router):
        cluster, _, client = process_router
        client.query("b.c")
        client.query("b.c")
        # The router process serves its own registry: join/phase
        # counters are registered (exposition text is well-formed) even
        # when this disjoint cluster never runs a boundary join.
        text = client.metrics()
        assert "# TYPE repro_join_rounds_total counter" in text
        # The worker path: metrics_text() leases a wire client to the
        # shard worker process and returns ITS registry, where the
        # scheduler counters actually live.
        worker = parse_prometheus(cluster._backends[0].metrics_text())
        admitted = worker["repro_requests_total"][
            frozenset({("outcome", "admitted")})
        ]
        assert admitted >= 2


class TestJoinRoundTracing:
    def test_boundary_join_rounds_traced(self):
        """An edge-cut cluster's traced query carries the join's one
        shard round, the planned entry count attached as ``frontier``."""
        from test_crossshard import single_component_rmat

        graph = single_component_rmat()
        cluster = GraphCluster(
            partition_graph(graph.copy(), 2, strategy="edge-cut"),
            config=ClusterConfig(shards=2, workers=1),
        )
        try:
            assert cluster.partition.has_cuts
            router = ClusterRouter(cluster, ServerConfig(batch_window=0.002))
            with ServerThread(router) as handle:
                with Client(*handle.address) as client:
                    _, trace = client.query_traced("(l0.l1)+")
            rounds = [
                span
                for span in trace["spans"]
                if span["name"] == "join_round"
            ]
            assert rounds
            for span in rounds:
                assert "round" in span["attrs"]
                assert "frontier" in span["attrs"]
            assert [span["attrs"]["round"] for span in rounds] == [0]
            # The shard summaries it drove are in the same tree.
            names = {span["name"] for span in trace["spans"]}
            assert "partial" in names
        finally:
            cluster.stop()
