"""Edge-cut identity gate: single-component R-MAT graphs across shards.

The tentpole's correctness oracle: a graph that is one weakly-connected
component -- the shape component-disjoint partitioning cannot shard at
all -- is edge-cut partitioned across 2 and 4 shards, on both the
thread and the process backend, and must answer the full query workload
*identically* to a single ``GraphDB`` session, including after a
cross-shard edge lands -- and later leaves -- mid-workload.  The
boundary join is the only path that can make this pass; any stitching
bug shows up as a pair-set diff against ground truth.  (The join's pure
half -- summaries and closure without a cluster -- is covered in
``test_boundary.py``.)
"""

import threading
import time
from concurrent.futures import Future

import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterRouter,
    GraphCluster,
    partition_graph,
    weakly_connected_components,
)
from repro.datasets.rmat import rmat_connected_graph
from repro.db import GraphDB
from repro.errors import DeadlineExpiredError
from repro.server import Client, ServerConfig, ServerThread

#: The full workload over the R-MAT alphabet (l0..l2): concatenations,
#: closures, alternation, a nullable query, single labels.
QUERIES = [
    "l0",
    "l0.l1",
    "(l0)+",
    "(l1)+.l2",
    "l2.(l0.l1)+",
    "(l0.l1)+",
    "(l0|l1)+",
    "(l2)*",
    "l0.(l2)+",
    "(l1|l2)+.l0",
]


def single_component_rmat(scale=5, num_edges=96, num_labels=3, seed=7):
    """An R-MAT graph deterministically stitched into one component."""
    graph = rmat_connected_graph(scale, num_edges, num_labels, seed=seed)
    assert len(weakly_connected_components(graph)) == 1
    return graph


def pick_cross_shard_edge(graph, partition, label="l1"):
    """The first (by string order) absent edge whose endpoints span shards."""
    vertices = sorted(graph.vertices(), key=str)
    for source in vertices:
        for target in vertices:
            if source == target:
                continue
            if partition.shard_of(source) == partition.shard_of(target):
                continue
            if not graph.has_edge(source, label, target):
                return (source, label, target)
    raise AssertionError("no cross-shard edge candidate found")


def run_workload(answer, add, remove):
    """Half the queries, the add, the rest plus a re-ask of the first,
    the remove, then the closures once more."""
    half = len(QUERIES) // 2
    results = {}
    for query in QUERIES[:half]:
        results[query] = answer(query)
    add()
    for query in QUERIES[half:] + QUERIES[:1]:
        results[f"post:{query}"] = answer(query)
    remove()
    for query in QUERIES[2:8]:
        results[f"removed:{query}"] = answer(query)
    return results


def session_reference(graph, update_edge):
    db = GraphDB.open(graph.copy())
    return run_workload(
        lambda query: set(db.execute(query)),
        lambda: db.update(add=[update_edge]),
        lambda: db.update(remove=[update_edge]),
    )


class TestEdgeCutIdentity:
    @pytest.mark.parametrize("shards", [2, 4])
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_matches_single_session_with_crossshard_update(
        self, shards, backend
    ):
        """The acceptance gate: edge-cut cluster == one session, mid-run
        cross-shard update included."""
        graph = single_component_rmat()
        cluster = GraphCluster(
            partition_graph(graph.copy(), shards, strategy="edge-cut"),
            config=ClusterConfig(
                shards=shards, workers=1, backend=backend
            ),
        )
        try:
            assert cluster.partition.has_cuts
            update_edge = pick_cross_shard_edge(graph, cluster.partition)
            expected = session_reference(graph, update_edge)

            def answer(query):
                pairs, _elapsed = cluster.submit(query).result(timeout=120)
                return pairs

            def add():
                cluster.submit_update(add=[update_edge]).result(timeout=120)
                assert cluster.partition.has_cut(*update_edge)

            def remove():
                cluster.submit_update(remove=[update_edge]).result(timeout=120)

            results = run_workload(answer, add, remove)
            for key in expected:
                assert results[key] == expected[key], key
            assert not cluster.partition.has_cut(*update_edge)
        finally:
            cluster.stop()

    def test_identity_over_the_wire(self):
        """Same gate end-to-end: ClusterRouter + JSON-lines Client."""
        graph = single_component_rmat()
        cluster = GraphCluster(
            partition_graph(graph.copy(), 2, strategy="edge-cut"),
            config=ClusterConfig(shards=2, workers=1, backend="process"),
            start=False,
        )
        update_edge = pick_cross_shard_edge(graph, cluster.partition)
        expected = session_reference(graph, update_edge)
        router = ClusterRouter(cluster, ServerConfig(batch_window=0.002))
        with ServerThread(router) as handle:
            with Client(*handle.address) as client:
                results = run_workload(
                    lambda query: client.query(query).pairs,
                    lambda: client.update(add=[list(update_edge)]),
                    lambda: client.update(remove=[list(update_edge)]),
                )
                # Counts-only answers go through the same join path.
                for query in QUERIES[5:8]:
                    counted = client.query(query, pairs=False)
                    assert counted.count == len(results[f"removed:{query}"])
        for key in expected:
            assert results[key] == expected[key], key

    def test_counts_only_never_double_counts(self):
        """Partial answers overlap across shards; counts must not sum them."""
        graph = single_component_rmat()
        cluster = GraphCluster(
            partition_graph(graph.copy(), 2, strategy="edge-cut"),
            config=ClusterConfig(shards=2, workers=1),
        )
        try:
            for query in QUERIES[:4]:
                pairs, _ = cluster.submit(query).result(timeout=120)
                count, _ = cluster.submit(query, want_pairs=False).result(
                    timeout=120
                )
                assert count == len(pairs), query
        finally:
            cluster.stop()

    def test_reaches_crosses_cuts(self):
        graph = single_component_rmat()
        cluster = GraphCluster(
            partition_graph(graph.copy(), 2, strategy="edge-cut"),
            config=ClusterConfig(shards=2, workers=1),
        )
        try:
            session = GraphDB.open(graph.copy())
            closure = set(session.execute("(l0)+"))
            crossing = [
                (source, target)
                for source, target in closure
                if cluster.partition.shard_of(source)
                != cluster.partition.shard_of(target)
            ]
            assert crossing, "test graph must have cross-shard reachability"
            for source, target in crossing[:5]:
                assert cluster.reaches("l0", source, target)
            assert not cluster.reaches("l0", "no-such-vertex", crossing[0][1])
        finally:
            cluster.stop()




    def test_expired_deadline_raises(self):
        graph = single_component_rmat()
        cluster = GraphCluster(
            partition_graph(graph.copy(), 2, strategy="edge-cut"),
            config=ClusterConfig(shards=2, workers=1),
        )
        try:
            with pytest.raises(DeadlineExpiredError):
                cluster.submit("(l0)+", timeout=1e-9).result(timeout=120)
            # The budget is per request: the next one is served.
            pairs, _ = cluster.submit("(l0)+", timeout=60).result(timeout=120)
            assert pairs == set(GraphDB.open(graph.copy()).execute("(l0)+"))
        finally:
            cluster.stop()


class TestJoinCacheFreshness:
    def test_join_overlapping_an_update_is_not_cached(self):
        """A read that overlaps an acked-later update must not pin its
        (possibly pre-update) answer under the post-update version."""
        graph = single_component_rmat()
        cluster = GraphCluster(
            partition_graph(graph.copy(), 2, strategy="edge-cut"),
            config=ClusterConfig(shards=2, workers=1),
        )
        try:
            partition = cluster.partition
            # An edge to a brand-new vertex: it is assigned to the
            # source's shard, so a shard applies it (the router's cut
            # relation is not involved) and the answer must grow.
            source = min(graph.vertices())
            edge = (source, "l0", max(graph.vertices()) + 1)
            reference = GraphDB.open(graph.copy())
            before = set(reference.execute("(l0)+"))
            reference.update(add=[edge])
            after = set(reference.execute("(l0)+"))
            assert before != after, "the injected edge must change the answer"

            # Hold the owning shard's apply back: the update is routed
            # (version bumped, cache cleared) but not yet on the shard.
            backend = cluster.backend(partition.shard_of(edge[0]))
            apply_now = threading.Event()
            real_update = backend.update

            def delayed_update(add=(), remove=(), trace=None):
                outcome: Future = Future()

                def run():
                    apply_now.wait(timeout=60)
                    try:
                        real_update(add=add, remove=remove, trace=trace).result(
                            timeout=60
                        )
                    except Exception as error:  # delivered through the future
                        outcome.set_exception(error)
                    else:
                        outcome.set_result(None)

                threading.Thread(target=run, daemon=True).start()
                return outcome

            backend.update = delayed_update
            acked = cluster.submit_update(add=[edge])
            in_window, _ = cluster.submit("(l0)+").result(timeout=120)
            assert in_window == before  # not acked yet: the old answer is legal
            apply_now.set()
            acked.result(timeout=120)

            served, _ = cluster.submit("(l0)+").result(timeout=120)
            assert served == after
            # With the cluster quiet again, results are cached as before.
            deadline = time.monotonic() + 5
            while cluster._updates_in_flight and time.monotonic() < deadline:
                time.sleep(0.01)
            cluster.submit("(l0)+").result(timeout=120)
            assert "(l0)+" in cluster._join_cache
        finally:
            cluster.stop()
