"""Shard backends: the thread/process identity gate and worker lifecycle.

The headline satellite test: the *same* multi-component workload -- with
a streaming update in the middle -- answered by (a) a process-backend
cluster, (b) an in-process (thread) cluster, and (c) a sequential
``execute_many`` over one session must produce identical pair-sets.
Transport must be invisible in the results.
"""

import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterRouter,
    GraphCluster,
    InProcessBackend,
    ProcessBackend,
)
from repro.db import GraphDB
from repro.errors import AdmissionError, ServerError
from repro.server import Client, ServerConfig, ServerThread

from test_cluster import QUERIES

#: The mid-workload update: a fresh edge inside component "1"'s shard.
MID_UPDATE = ("1:1", "b", "1:777")


def run_workload_with_update(answer, update):
    """First half of QUERIES, the update, second half; -> {query: pairs}.

    ``answer(query) -> set`` and ``update()`` abstract over the three
    deployments under test.
    """
    half = len(QUERIES) // 2
    results = {}
    for query in QUERIES[:half]:
        results[query] = answer(query)
    update()
    # Re-ask one early query too: the update must be visible everywhere.
    for query in QUERIES[half:] + QUERIES[:1]:
        results[f"post:{query}"] = answer(query)
    return results


def session_reference(graph):
    """The single-session ground truth for the same workload."""
    db = GraphDB.open(graph.copy())

    def answer(query):
        return set(db.execute(query))

    def update():
        db.update(add=[MID_UPDATE])

    return run_workload_with_update(answer, update)


def cluster_workload(graph, backend):
    cluster = GraphCluster.open(
        graph.copy(),
        config=ClusterConfig(
            shards=2, replicas=2, workers=1, backend=backend
        ),
        start=False,
    )
    router = ClusterRouter(cluster, ServerConfig(batch_window=0.002))
    with ServerThread(router) as handle:
        with Client(*handle.address) as client:

            def answer(query):
                return client.query(query).pairs

            def update():
                client.update(add=[MID_UPDATE])

            return run_workload_with_update(answer, update)


class TestBackendIdentity:
    def test_process_vs_thread_vs_session(self, multi_fig1):
        """The satellite gate: three deployments, one answer set."""
        expected = session_reference(multi_fig1)
        thread_results = cluster_workload(multi_fig1, "thread")
        process_results = cluster_workload(multi_fig1, "process")
        assert thread_results == expected
        assert process_results == expected

    def test_direct_backend_identity(self, multi_fig1):
        """InProcessBackend vs ProcessBackend over one whole-graph shard."""
        session = GraphDB.open(multi_fig1.copy())
        in_process = InProcessBackend(
            0, multi_fig1.copy(), replicas=2, workers=1, start=True
        )
        process = ProcessBackend(
            0, multi_fig1.copy(), replicas=2, workers=1, start=True
        )
        try:
            for query in QUERIES:
                expected = set(session.execute(query))
                thread_pairs, _ = in_process.query(query).result(timeout=30)
                process_pairs, _ = process.query(query).result(timeout=60)
                assert thread_pairs == expected, query
                assert process_pairs == expected, query
        finally:
            in_process.close()
            process.close()


class TestCountsOnlyFanOut:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_counts_match_pairs_across_shards(self, multi_fig1, backend):
        """pairs=False answers: per-shard counts sum to the union size."""
        cluster = GraphCluster.open(
            multi_fig1,
            config=ClusterConfig(
                shards=2, replicas=2, workers=1, backend=backend
            ),
            start=False,
        )
        with ServerThread(ClusterRouter(cluster)) as handle:
            with Client(*handle.address) as client:
                for query in QUERIES[:4] + ["(b.c)*"]:
                    full = client.query(query, pairs=True)
                    counted = client.query(query, pairs=False)
                    assert counted.pairs is None
                    assert counted.count == len(full.pairs), query

    def test_direct_counts_only_submit(self, multi_fig1):
        cluster = GraphCluster.open(
            multi_fig1, config=ClusterConfig(shards=2, workers=1)
        )
        try:
            pairs, _ = cluster.submit("b.c").result(timeout=30)
            count, _ = cluster.submit("b.c", want_pairs=False).result(timeout=30)
            assert count == len(pairs)
            assert isinstance(count, int)
        finally:
            cluster.stop()


class TestProcessBackendLifecycle:
    def test_worker_dies_cleanly_on_close(self, multi_fig1):
        backend = ProcessBackend(0, multi_fig1, workers=1, start=True)
        process = backend._process
        assert process.is_alive()
        backend.query("b.c").result(timeout=60)
        backend.drain()
        backend.close()
        # close() sends SIGTERM; the worker's graceful shutdown path
        # exits 0 -- a kill would show a negative exit code.
        assert process.exitcode == 0

    def test_stats_document_shape(self, multi_fig1):
        backend = ProcessBackend(0, multi_fig1, replicas=2, workers=1, start=True)
        try:
            backend.query("b.c").result(timeout=60)
            doc = backend.stats()
            assert doc["backend"] == "process"
            assert doc["worker"]["pid"] == backend.pid
            assert doc["graph"]["edges"] == multi_fig1.num_edges
            assert [r["replica"] for r in doc["replicas"]] == [0, 1]
            assert sum(
                r["scheduler"]["completed"] for r in doc["replicas"]
            ) == 1
            assert isinstance(doc["latency_values"], list)
        finally:
            backend.close()

    def test_local_admission_bound(self, multi_fig1):
        backend = ProcessBackend(0, multi_fig1, workers=1, start=False)
        backend._max_pending = 0  # force the local bound
        backend.start()
        backend.wait_ready()
        try:
            with pytest.raises(AdmissionError):
                backend.query("b.c")
        finally:
            backend.close()

    def test_update_converges_and_edge_estimate_tracks(self, multi_fig1):
        backend = ProcessBackend(0, multi_fig1, replicas=2, workers=1, start=True)
        try:
            before = backend.edge_count()
            backend.update(add=[("0:1", "b", "0:555")]).result(timeout=60)
            backend.drain()
            assert backend.edge_count() == before + 1
            pairs, _ = backend.query("b").result(timeout=60)
            assert ("0:1", "0:555") in pairs
        finally:
            backend.close()

    def test_closed_backend_refuses_queries(self, multi_fig1):
        backend = ProcessBackend(0, multi_fig1, workers=1, start=True)
        backend.close()
        with pytest.raises(ServerError) as excinfo:
            backend.query("b.c")
        assert excinfo.value.code == "closed"
        backend.close()  # idempotent


class TestGraphShipping:
    def test_int_lookalike_strings_stay_distinct(self):
        """"123" and 123 are two vertices on both sides of the handoff."""
        from repro.graph.multigraph import LabeledMultigraph

        graph = LabeledMultigraph.from_edges(
            [("123", "a", 123), (123, "a", "456"), ("456", "b", "123")]
        )
        session = GraphDB.open(graph.copy())
        backend = ProcessBackend(0, graph, workers=1, start=True)
        try:
            for query in ("a", "a.a", "a+.b", "(a|b)*"):
                pairs, _ = backend.query(query).result(timeout=60)
                assert pairs == set(session.execute(query)), query
            pairs, _ = backend.query("a").result(timeout=60)
            assert ("123", 123) in pairs and (123, "123") not in pairs
        finally:
            backend.close()

    def test_isolated_vertices_survive_the_dump(self):
        """Edge lists carry no degree-0 vertices; the spec ships them."""
        from repro.graph.multigraph import LabeledMultigraph

        graph = LabeledMultigraph.from_edges([("a", "x", "b")])
        graph.add_vertex("lonely")
        backend = ProcessBackend(0, graph, workers=1, start=True)
        try:
            # A nullable query contributes (v, v) for *every* vertex,
            # isolated ones included.
            pairs, _ = backend.query("x*").result(timeout=60)
            assert ("lonely", "lonely") in pairs
        finally:
            backend.close()


class TestWorkerLogging:
    def test_worker_logs_to_file(self, multi_fig1, tmp_path):
        cluster = GraphCluster.open(
            multi_fig1,
            config=ClusterConfig(
                shards=2,
                workers=1,
                backend="process",
                worker_log_dir=tmp_path / "logs",
            ),
        )
        try:
            pairs, _ = cluster.submit("b.c").result(timeout=60)
            assert pairs
        finally:
            cluster.stop()
        for shard in range(2):
            log = (tmp_path / "logs" / f"shard{shard}.log").read_text()
            assert f"serving shard {shard}" in log
            assert "shut down cleanly" in log

    def test_env_log_dir_fallback(self, multi_fig1, tmp_path, monkeypatch):
        """REPRO_CLUSTER_LOG_DIR captures workers without explicit config
        (the CI artifact hook)."""
        monkeypatch.setenv("REPRO_CLUSTER_LOG_DIR", str(tmp_path / "ci-logs"))
        backend = ProcessBackend(3, multi_fig1, workers=1, start=True)
        backend.close()
        logs = list((tmp_path / "ci-logs").glob("shard3-*.log"))
        assert len(logs) == 1
        assert "shut down cleanly" in logs[0].read_text()
