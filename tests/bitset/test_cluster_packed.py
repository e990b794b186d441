"""Cluster identity over the packed wire: thread and process backends.

Packed rows are the wire's only production encoding, so these are
end-to-end identity gates for it: an edge-cut cluster
must answer the workload exactly like one session -- boundary-join
queries included -- and the cut-relevant ``reaches`` fast path must
agree with the single-session watcher, before and after updates.
"""

import random

import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterRouter,
    GraphCluster,
    partition_graph,
)
from repro.datasets.rmat import rmat_connected_graph
from repro.db import GraphDB
from repro.graph.multigraph import LabeledMultigraph
from repro.server import Client, ServerConfig, ServerThread

QUERIES = ["l0", "(l0)+", "l0.l1", "(l0|l1)+", "(l0.l1)+", "(l2)*"]


def build_graph():
    return rmat_connected_graph(5, 96, 3, seed=11)


@pytest.fixture(params=["thread", "process"])
def cluster(request):
    cluster = GraphCluster(
        partition_graph(build_graph(), 2, strategy="edge-cut"),
        config=ClusterConfig(shards=2, workers=1, backend=request.param),
    )
    assert cluster.partition.has_cuts
    yield cluster
    cluster.stop()


class TestPackedClusterIdentity:
    def test_workload_matches_single_session(self, cluster):
        db = GraphDB.open(build_graph())
        for query in QUERIES:
            pairs, _elapsed = cluster.submit(query).result(timeout=120)
            assert set(pairs) == set(db.execute(query)), query

    def test_reaches_matches_single_session(self, cluster):
        db = GraphDB.open(build_graph())
        rng = random.Random(11)
        vertices = sorted(build_graph().vertices(), key=str)
        for body in ["l0", "l0|l1"]:
            db.watch(body)
            cluster.watch(body)
            for source in rng.sample(vertices, 8):
                for target in rng.sample(vertices, 5):
                    assert cluster.reaches(body, source, target) == db.reaches(
                        body, source, target
                    ), (body, source, target)

    def test_identity_survives_a_cross_shard_update(self, cluster):
        db = GraphDB.open(build_graph())
        partition = cluster.partition
        vertices = sorted(build_graph().vertices(), key=str)
        edge = next(
            (source, "l1", target)
            for source in vertices
            for target in vertices
            if source != target
            and partition.shard_of(source) != partition.shard_of(target)
            and not build_graph().has_edge(source, "l1", target)
        )
        cluster.submit_update(add=[edge]).result(timeout=120)
        db.update(add=[edge])
        for query in ["(l1)+", "(l0|l1)+"]:
            pairs, _elapsed = cluster.submit(query).result(timeout=120)
            assert set(pairs) == set(db.execute(query)), query
        db.watch("l1")
        cluster.watch("l1")
        rng = random.Random(12)
        for source in rng.sample(vertices, 6):
            for target in rng.sample(vertices, 4):
                assert cluster.reaches("l1", source, target) == db.reaches(
                    "l1", source, target
                ), (source, target)


def two_component_graph() -> LabeledMultigraph:
    graph = LabeledMultigraph()
    for copy, seed in enumerate((3, 5)):
        for source, label, target in rmat_connected_graph(4, 40, 3, seed=seed).edges():
            graph.add_edge(f"{copy}:{source}", label, f"{copy}:{target}")
    return graph


class TestServedPairsIdentity:
    """``pairs=True`` reads through a router equal ``execute_many`` on
    one session -- whichever hop carried bitmaps instead of tuples."""

    @staticmethod
    def served_twice(cluster, queries):
        router = ClusterRouter(cluster, ServerConfig(batch_window=0.002))
        with ServerThread(router) as handle, Client(*handle.address) as client:
            # The second read of an edge-cut query is the join cache's
            # own bitmap again: it must have survived the first reply.
            return [
                [result.pairs for result in client.query_many(queries)]
                for _ in range(2)
            ]

    def test_edge_cut_read_matches_execute_many(self, cluster):
        expected = [set(r) for r in GraphDB.open(build_graph()).execute_many(QUERIES)]
        first, second = self.served_twice(cluster, QUERIES)
        assert first == expected
        assert second == expected

    def test_router_to_worker_read_matches_execute_many(self):
        graph = two_component_graph()
        expected = [set(r) for r in GraphDB.open(graph).execute_many(QUERIES)]
        cluster = GraphCluster.open(
            graph, config=ClusterConfig(shards=2, workers=1, backend="process")
        )
        assert not cluster.partition.has_cuts
        first, second = self.served_twice(cluster, QUERIES)
        assert first == expected
        assert second == expected
