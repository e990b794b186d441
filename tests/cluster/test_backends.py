"""Shard backends: the cluster-vs-session identity gate.

The same multi-component workload -- with a streaming update in the
middle -- answered by (a) a cluster behind its router and (b) a
sequential ``execute_many`` over one session must produce identical
pair-sets.  Sharding must be invisible in the results.
"""

import time
from concurrent.futures import CancelledError, Future

import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterRouter,
    GraphCluster,
    Shard,
    partition_graph,
)
from repro.cluster.backends import merge_futures
from repro.db import GraphDB
from repro.errors import AdmissionError, ClusterError, ServerError
from repro.graph.multigraph import LabeledMultigraph
from repro.regex.nfa import compile_nfa
from repro.regex.parser import parse
from repro.rpq import summarise_shard
from repro.server import Client, ServerConfig, ServerThread

from test_cluster import QUERIES

#: The mid-workload update: a fresh edge inside component "1"'s shard.
MID_UPDATE = ("1:1", "b", "1:777")


def run_workload_with_update(answer, update):
    """First half of QUERIES, the update, second half; -> {query: pairs}.

    ``answer(query) -> set`` and ``update()`` abstract over the
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


def cluster_workload(graph):
    cluster = GraphCluster.open(
        graph.copy(),
        config=ClusterConfig(shards=2, workers=1),
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
    def test_thread_vs_session(self, multi_fig1):
        """A served cluster and one session, one answer set."""
        assert cluster_workload(multi_fig1) == session_reference(multi_fig1)

    def test_direct_backend_identity(self, multi_fig1):
        """One whole-graph Shard answers like the session."""
        session = GraphDB.open(multi_fig1.copy())
        backend = Shard(0, multi_fig1.copy(), workers=1, start=True)
        try:
            for query in QUERIES:
                pairs, _ = backend.query(query).result(timeout=30)
                assert pairs == set(session.execute(query)), query
        finally:
            backend.close()


class TestCountsOnlyFanOut:
    def test_counts_match_pairs_across_shards(self, multi_fig1):
        """pairs=False answers: per-shard counts sum to the union size."""
        cluster = GraphCluster.open(
            multi_fig1,
            config=ClusterConfig(shards=2, workers=1),
            start=False,
        )
        with ServerThread(ClusterRouter(cluster)) as handle:
            with Client(*handle.address) as client:
                for query in QUERIES[:4] + ["(b.c)*"]:
                    full = client.query(query, pairs=True)
                    counted = client.query(query, pairs=False)
                    assert counted.pairs is None
                    assert counted.count == len(full.pairs), query

    @pytest.mark.parametrize("enc", ["list", "packed"])
    def test_wire_counts_equal_the_answer(self, multi_fig1, enc):
        """A ``pairs: false`` count is the length of the ``pairs: true``
        answer, in either forced encoding; both read one merged bitmap."""
        cluster = GraphCluster.open(
            multi_fig1, config=ClusterConfig(shards=2, workers=1), start=False
        )
        session = GraphDB.open(multi_fig1.copy())
        with ServerThread(ClusterRouter(cluster)) as handle:
            with Client(*handle.address) as client:
                for query in ["b.c", "(b.c)*", "d.(b.c)+.c"]:
                    (full,), _ = client.query_call([query], enc=enc)
                    (counted,), _ = client.query_call(
                        [query], pairs=False, enc=enc
                    )
                    assert counted.pairs is None
                    assert counted.count == len(full.pairs), query
                    assert set(full.pairs) == set(session.execute(query)), query


class TestShardLifecycle:
    """One shard's own surface: lifecycle, admission, stats, updates."""

    def test_close_stops_the_scheduler_and_is_idempotent(self, multi_fig1):
        shard = Shard(0, multi_fig1, workers=1, start=True)
        assert repr(shard) == "Shard(shard=0, running)"
        dispatcher = shard.scheduler._dispatcher
        assert dispatcher.is_alive()
        shard.query("b.c").result(timeout=30)
        shard.drain()
        shard.close()
        assert not dispatcher.is_alive()
        assert repr(shard) == "Shard(shard=0, closed)"
        shard.close()  # idempotent
        shard.start()  # a closed shard stays closed
        assert repr(shard) == "Shard(shard=0, closed)"

    def test_stats_document_shape(self, multi_fig1):
        """One flat document: no replica list, no worker process."""
        shard = Shard(0, multi_fig1, workers=1, start=True)
        try:
            shard.query("b.c").result(timeout=30)
            shard.drain()
            doc = shard.stats()
            assert set(doc) == {
                "shard", "graph", "scheduler", "session", "latency_values",
            }
            assert doc["shard"] == 0
            assert doc["graph"]["edges"] == multi_fig1.num_edges
            assert doc["graph"]["vertices"] == multi_fig1.num_vertices
            assert doc["scheduler"]["completed"] == 1
            assert isinstance(doc["latency_values"], list)
            assert len(doc["latency_values"]) == 1
        finally:
            shard.close()

    def test_local_admission_bound(self, multi_fig1):
        """A full shard queue rejects a query before any work happens."""
        shard = Shard(0, multi_fig1, workers=1, max_queue=1, start=False)
        try:
            first = shard.query("b.c")
            with pytest.raises(AdmissionError):
                shard.query("b.c")
            assert shard.scheduler.stats()["rejected"] == 1
            shard.start()
            pairs, _ = first.result(timeout=30)
            assert pairs
        finally:
            shard.close()

    def test_update_is_applied_once_and_edge_count_tracks(self, multi_fig1):
        shard = Shard(0, multi_fig1, workers=1, start=True)
        try:
            before = shard.edge_count()
            shard.update(add=[("0:1", "b", "0:555")]).result(timeout=30)
            shard.drain()
            assert shard.edge_count() == before + 1
            assert shard.scheduler.stats()["updates"] == 1
            pairs, _ = shard.query("b").result(timeout=30)
            assert ("0:1", "0:555") in pairs
        finally:
            shard.close()

    def test_closed_shard_refuses_work(self, multi_fig1):
        shard = Shard(0, multi_fig1, workers=1, start=True)
        shard.close()
        for submit in (
            lambda: shard.query("b.c"),
            lambda: shard.update(add=[("0:1", "b", "0:2")]),
        ):
            with pytest.raises(ServerError) as excinfo:
                submit()
            assert excinfo.value.code == "closed"

    def test_closed_shard_fails_the_join(self):
        """The router summarises on its join thread; a closed shard
        fails the join with the ``closed`` error, not a session one."""
        graph = LabeledMultigraph.from_edges(
            [("x", "a", "y"), ("y", "a", "z"), ("z", "a", "x")]
        )
        cluster = GraphCluster(
            partition_graph(graph, 2, strategy="edge-cut"),
            config=ClusterConfig(shards=2, workers=1),
        )
        try:
            assert cluster.partition.has_cuts
            cluster.backend(0).close()
            with pytest.raises(ServerError) as excinfo:
                cluster.submit("(a)+").result(timeout=30)
            assert excinfo.value.code == "closed"
        finally:
            cluster.stop()

    def test_checkpoint_without_storage_is_unsupported(self, multi_fig1):
        shard = Shard(3, multi_fig1, workers=1)
        try:
            with pytest.raises(ClusterError) as excinfo:
                shard.checkpoint()
            assert excinfo.value.code == "cluster.unsupported"
            assert list(excinfo.value.shards) == [3]
        finally:
            shard.close()

    def test_needs_a_graph_or_recoverable_state(self, tmp_path):
        for storage_dir in (None, str(tmp_path / "empty")):
            with pytest.raises(ClusterError) as excinfo:
                Shard(1, None, workers=1, storage_dir=storage_dir)
            assert excinfo.value.code == "cluster.topology"

    def test_summary_matches_summarise_shard(self):
        """The summary the router reads off a shard's session is the
        pure function's."""
        graph = LabeledMultigraph.from_edges(
            [("x", "a", "y"), ("y", "a", "x"), ("y", "b", 7)]
        )
        nfa = compile_nfa(parse("(a)*.b"))
        entries = [("x", next(iter(nfa.start)))]
        shard = Shard(0, graph.copy(), workers=1, start=True)
        try:
            summary = shard.db.summarise(nfa, {"y"}, entries)
        finally:
            shard.close()
        assert summary == summarise_shard(graph, nfa, {"y"}, entries=entries)

    def test_watch_and_reaches_match_the_session(self, multi_fig1):
        session = GraphDB.open(multi_fig1.copy())
        shard = Shard(0, multi_fig1.copy(), workers=1, start=True)
        try:
            session.watch("b.c")
            shard.watch("b.c")
            vertices = sorted(multi_fig1.vertices(), key=str)[:12]
            for source in vertices:
                for target in vertices:
                    assert shard.reaches("b.c", source, target) == (
                        session.reaches("b.c", source, target)
                    ), (source, target)
        finally:
            shard.close()

    def test_drain_waits_for_admitted_work(self, multi_fig1):
        shard = Shard(0, multi_fig1, workers=1, start=True)
        try:
            futures = [shard.query(query) for query in QUERIES]
            shard.drain()
            assert all(future.done() for future in futures)
            assert shard.scheduler.stats()["in_flight"] == 0
        finally:
            shard.close()

    def test_durable_shard_checkpoints_and_reports_storage(
        self, multi_fig1, tmp_path
    ):
        shard = Shard(
            0, multi_fig1, workers=1, storage_dir=str(tmp_path), start=True
        )
        try:
            shard.update(add=[("0:1", "b", "0:555")]).result(timeout=30)
            shard.checkpoint()
            doc = shard.stats()
            assert "storage" in doc
            assert doc["storage"] == doc["session"]["storage"]
        finally:
            shard.close()


def restarted_shard(graph, storage_dir):
    """Checkpoint ``graph`` on a durable shard, close it, and reopen the
    directory without a seed graph: the shard serves what it recovered."""
    shard = Shard(0, graph, workers=1, storage_dir=storage_dir, start=True)
    shard.checkpoint()
    shard.close()
    return Shard(0, None, workers=1, storage_dir=storage_dir, start=True)


class TestDurableShardGraph:
    """The shard's graph leaves the process only through its snapshot:
    what comes back must be the same graph."""

    def test_int_lookalike_strings_stay_distinct(self, tmp_path):
        """"123" and 123 are two vertices on both sides of a restart."""
        graph = LabeledMultigraph.from_edges(
            [("123", "a", 123), (123, "a", "456"), ("456", "b", "123")]
        )
        session = GraphDB.open(graph.copy())
        shard = restarted_shard(graph, str(tmp_path))
        try:
            for query in ("a", "a.a", "a+.b", "(a|b)*"):
                pairs, _ = shard.query(query).result(timeout=30)
                assert pairs == set(session.execute(query)), query
            pairs, _ = shard.query("a").result(timeout=30)
            assert ("123", 123) in pairs and (123, "123") not in pairs
        finally:
            shard.close()

    def test_isolated_vertices_survive_the_restart(self, tmp_path):
        """Edge lists carry no degree-0 vertices; the snapshot keeps them."""
        graph = LabeledMultigraph.from_edges([("a", "x", "b")])
        graph.add_vertex("lonely")
        shard = restarted_shard(graph, str(tmp_path))
        try:
            # A nullable query contributes (v, v) for *every* vertex,
            # isolated ones included.
            pairs, _ = shard.query("x*").result(timeout=30)
            assert ("lonely", "lonely") in pairs
        finally:
            shard.close()


def resolved(result=None, error=None) -> Future:
    future: Future = Future()
    future.set_running_or_notify_cancel()
    if error is not None:
        future.set_exception(error)
    else:
        future.set_result(result)
    return future


class TestMergeFutures:
    """The router's fan-in of one update's per-shard futures."""

    def test_no_children_resolve_at_once(self):
        assert merge_futures([]).result(timeout=1) is None

    def test_resolves_only_after_every_child(self):
        children = [Future(), Future()]
        parent = merge_futures(children)
        children[0].set_result("ignored")
        assert not parent.done()
        children[1].set_result("ignored")
        assert parent.result(timeout=1) is None

    def test_first_error_waits_for_the_rest(self):
        children = [Future(), Future(), Future()]
        parent = merge_futures(children)
        first, second = ValueError("first"), KeyError("second")
        children[1].set_exception(first)
        children[0].set_exception(second)
        assert not parent.done()
        children[2].set_result(None)
        assert parent.exception(timeout=1) is first

    def test_cancelled_child_fails_the_merge(self):
        cancelled = Future()
        assert cancelled.cancel()
        parent = merge_futures([resolved(), cancelled])
        with pytest.raises(CancelledError):
            parent.result(timeout=1)

    def test_combine_reads_the_results_in_child_order(self):
        children = [Future(), Future()]
        parent = merge_futures(children, combine=lambda results: results)
        children[1].set_result("second")
        children[0].set_result("first")
        assert parent.result(timeout=1) == ["first", "second"]
        assert merge_futures([], combine=len).result(timeout=1) == 0

    def test_a_failing_combine_fails_the_merge(self):
        parent = merge_futures([resolved()], combine=lambda results: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            parent.result(timeout=1)


class TestShardInlineReads:
    def test_a_warm_component_read_is_evaluated_on_every_shard_inline(self, multi_fig1):
        """A read-only fan-out pays no scheduler round trip per shard."""
        cluster = GraphCluster.open(multi_fig1, config=ClusterConfig(shards=4, workers=1))
        try:
            shards = [cluster.backend(i).scheduler for i in range(4)]
            # The first read builds the RTCs; the second is timed warm.
            for _ in range(2):
                expected = set(cluster.submit("(b.c)+").result(timeout=10)[0])
                for scheduler in shards:
                    scheduler.drain()
                    while scheduler._inflight:  # the pool's batch leaving
                        time.sleep(0.001)
            batches = [scheduler.metrics.batches for scheduler in shards]
            future = cluster.submit("(b.c)+")
            assert future.done()  # every shard answered before submit returned
            assert set(future.result()[0]) == expected
            assert [scheduler.metrics.batches for scheduler in shards] == [
                count + 1 for count in batches
            ]
        finally:
            cluster.stop()
