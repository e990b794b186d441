"""Shard backends -- one scheduler over one session each -- and the
cluster-vs-session identity gate.

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


def one_shard(graph, **config) -> GraphCluster:
    """A one-shard cluster over ``graph`` (started unless
    ``start=False``): shard 0 is the whole graph, one session behind one
    scheduler."""
    start = config.pop("start", True)
    config.setdefault("workers", 1)
    return GraphCluster(
        partition_graph(graph, 1),
        config=ClusterConfig(shards=1, **config),
        start=start,
    )


class TestBackendIdentity:
    def test_thread_vs_session(self, multi_fig1):
        """A served cluster and one session, one answer set."""
        assert cluster_workload(multi_fig1) == session_reference(multi_fig1)

    def test_direct_backend_identity(self, multi_fig1):
        """One whole-graph shard answers like the session, read through
        the router and through the shard's scheduler."""
        session = GraphDB.open(multi_fig1.copy())
        cluster = one_shard(multi_fig1.copy())
        try:
            for query in QUERIES:
                expected = set(session.execute(query))
                pairs, _ = cluster.submit(query).result(timeout=30)
                assert set(pairs) == expected, query
                pairs, _ = cluster.backend(0).submit(query).result(timeout=30)
                assert pairs == expected, query
        finally:
            cluster.stop()


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
    """One shard's surface as the router drives it: lifecycle,
    admission, stats, updates."""

    def test_stop_stops_the_scheduler_and_is_idempotent(self, multi_fig1):
        cluster = one_shard(multi_fig1)
        assert repr(cluster).endswith("running)")
        scheduler = cluster.backend(0)
        dispatcher = scheduler._dispatcher
        assert dispatcher.is_alive()
        cluster.submit("b.c").result(timeout=30)
        scheduler.drain()
        cluster.stop()
        assert not dispatcher.is_alive()
        assert scheduler.db.closed
        assert repr(cluster).endswith("stopped)")
        cluster.stop()  # idempotent
        cluster.start()  # a stopped cluster stays stopped
        assert repr(cluster).endswith("stopped)")

    def test_stats_document_shape(self, multi_fig1):
        """One flat document per shard: no replica list, no worker
        process."""
        cluster = one_shard(multi_fig1)
        try:
            cluster.submit("b.c").result(timeout=30)
            cluster.backend(0).drain()
            (doc,) = cluster._shard_docs()
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
            cluster.stop()

    def test_local_admission_bound(self, multi_fig1):
        """A full shard queue rejects a query before any work happens."""
        cluster = one_shard(multi_fig1, max_queue=1, start=False)
        try:
            first = cluster.submit("b.c")
            with pytest.raises(AdmissionError):
                cluster.submit("b.c")
            assert cluster.backend(0).stats()["rejected"] == 1
            cluster.start()
            pairs, _ = first.result(timeout=30)
            assert pairs
        finally:
            cluster.stop()

    def test_update_is_applied_once(self, multi_fig1):
        cluster = one_shard(multi_fig1)
        try:
            scheduler = cluster.backend(0)
            before = scheduler.db.graph.num_edges
            cluster.submit_update(add=[("0:1", "b", "0:555")]).result(timeout=30)
            scheduler.drain()
            assert scheduler.db.graph.num_edges == before + 1
            assert scheduler.stats()["updates"] == 1
            pairs, _ = cluster.submit("b").result(timeout=30)
            assert ("0:1", "0:555") in pairs
        finally:
            cluster.stop()

    def test_stopped_shard_refuses_work(self, multi_fig1):
        cluster = one_shard(multi_fig1)
        scheduler = cluster.backend(0)
        cluster.stop()
        for submit in (
            lambda: cluster.submit("b.c"),
            lambda: cluster.submit_update(add=[("0:1", "b", "0:2")]),
            lambda: scheduler.submit("b.c"),
            lambda: scheduler.submit_update(add=[("0:1", "b", "0:2")]),
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
            cluster.backend(0).stop()
            cluster.backend(0).db.close()
            with pytest.raises(ServerError) as excinfo:
                cluster.submit("(a)+").result(timeout=30)
            assert excinfo.value.code == "closed"
        finally:
            cluster.stop()

    def test_checkpoint_without_storage_is_unsupported(self, multi_fig1):
        cluster = one_shard(multi_fig1)
        try:
            with pytest.raises(ClusterError) as excinfo:
                cluster.checkpoint()
            assert excinfo.value.code == "cluster.unsupported"
            assert list(excinfo.value.shards) == [0]
        finally:
            cluster.stop()

    def test_summary_matches_summarise_shard(self):
        """The summary the router reads off a shard's session is the
        pure function's."""
        graph = LabeledMultigraph.from_edges(
            [("x", "a", "y"), ("y", "a", "x"), ("y", "b", 7)]
        )
        nfa = compile_nfa(parse("(a)*.b"))
        entries = [("x", next(iter(nfa.start)))]
        cluster = one_shard(graph)
        try:
            summary = cluster.backend(0).db.summarise(nfa, {"y"}, entries)
            shard_graph = cluster.partition.shards[0]
        finally:
            cluster.stop()
        assert summary == summarise_shard(
            shard_graph, nfa, {"y"}, entries=entries
        )

    def test_watch_and_reaches_match_the_session(self, multi_fig1):
        session = GraphDB.open(multi_fig1.copy())
        cluster = one_shard(multi_fig1.copy())
        try:
            session.watch("b.c")
            cluster.watch("b.c")
            assert cluster.backend(0).db.stats()["watchers"] == ["b.c"]
            vertices = sorted(multi_fig1.vertices(), key=str)[:12]
            for source in vertices:
                for target in vertices:
                    assert cluster.reaches("b.c", source, target) == (
                        session.reaches("b.c", source, target)
                    ), (source, target)
        finally:
            cluster.stop()

    def test_drain_waits_for_admitted_work(self, multi_fig1):
        cluster = one_shard(multi_fig1)
        try:
            scheduler = cluster.backend(0)
            futures = [scheduler.submit(query) for query in QUERIES]
            scheduler.drain()
            assert all(future.done() for future in futures)
            assert scheduler.stats()["in_flight"] == 0
        finally:
            cluster.stop()

    def test_durable_shard_checkpoints_and_reports_storage(
        self, multi_fig1, tmp_path
    ):
        cluster = one_shard(multi_fig1, data_dir=tmp_path)
        try:
            cluster.submit_update(add=[("0:1", "b", "0:555")]).result(timeout=30)
            (result,) = cluster.checkpoint()
            assert result["lsn"] == 1
            (doc,) = cluster._shard_docs()
            assert "storage" in doc
            assert doc["storage"] == doc["session"]["storage"]
            (entry,) = cluster.describe()["per_shard"]
            assert entry["storage"] == doc["storage"]
        finally:
            cluster.stop()


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
            shards = [cluster.backend(i) for i in range(4)]
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
