"""GraphCluster unit tests: fan-out, pruning, replicas, updates, stats."""

import pytest

from repro.cluster import ClusterConfig, GraphCluster, partition_graph
from repro.db import GraphDB
from repro.errors import AdmissionError, ClusterError, ServerError

QUERIES = [
    "a.(b.c)+",
    "d.(b.c)+.c",
    "(b.c)+.c",
    "(b.c)+",
    "a.(c.b)+",
    "(c.b)+.b",
    "d.(b)+",
    "(b)+.c",
    "b.c",
    "a|d.(b.c)+",
]


def cluster_answer(cluster: GraphCluster, query: str) -> set:
    pairs, _elapsed = cluster.submit(query).result(timeout=30)
    return set(pairs)  # a boundary join resolves to its (read-only) bitmap


class TestQueryFanOut:
    @pytest.mark.parametrize("shards,replicas", [(1, 1), (2, 2), (4, 2)])
    def test_matches_single_session(self, multi_fig1, shards, replicas):
        cluster = GraphCluster.open(
            multi_fig1,
            config=ClusterConfig(shards=shards, replicas=replicas, workers=1),
        )
        session = GraphDB.open(multi_fig1)
        try:
            for query in QUERIES:
                assert cluster_answer(cluster, query) == set(
                    session.execute(query)
                ), query
        finally:
            cluster.stop()

    def test_nullable_query_spans_all_shards(self, multi_fig1):
        cluster = GraphCluster.open(
            multi_fig1, config=ClusterConfig(shards=4, workers=1)
        )
        try:
            pairs = cluster_answer(cluster, "(b.c)*")
            reflexive = {pair for pair in pairs if pair[0] == pair[1]}
            assert len(reflexive) == multi_fig1.num_vertices
        finally:
            cluster.stop()

    def test_empty_shards_answer_empty(self, two_worlds):
        cluster = GraphCluster.open(
            two_worlds, config=ClusterConfig(shards=4, workers=1)
        )
        try:
            assert cluster_answer(cluster, "x.x") == set(
                GraphDB.open(two_worlds).execute("x.x")
            )
        finally:
            cluster.stop()

    def test_submit_after_stop_raises(self, two_worlds):
        cluster = GraphCluster.open(two_worlds, config=ClusterConfig(shards=2))
        cluster.stop()
        with pytest.raises(ServerError):
            cluster.submit("x.x")

    def test_admission_is_all_or_nothing(self, two_worlds):
        cluster = GraphCluster.open(
            two_worlds,
            config=ClusterConfig(shards=2, workers=1, max_queue=1),
            start=False,  # schedulers stopped: the queues fill deterministically
        )
        # Fill both shard queues to the brim, then one more fan-out must
        # reject without leaking a half-admitted query.
        cluster.submit("(x|p).(x|p)")
        with pytest.raises(AdmissionError):
            cluster.submit("(x|p).(x|p)")


class TestShardPruning:
    def test_label_disjoint_shards_are_skipped(self, two_worlds):
        cluster = GraphCluster.open(
            two_worlds, config=ClusterConfig(shards=2, workers=1)
        )
        try:
            session = GraphDB.open(two_worlds)
            assert cluster_answer(cluster, "x.x") == set(session.execute("x.x"))
            assert cluster_answer(cluster, "p.q") == set(session.execute("p.q"))
            # Only the x/y shard evaluated "x.x"; the p/q shard saw one
            # query ("p.q") and nothing else.
            completed = [
                cluster.replica(shard).scheduler.stats()["completed"]
                for shard in range(2)
            ]
            assert sorted(completed) == [1, 1]
        finally:
            cluster.stop()

    def test_pruning_stays_sound_after_label_adding_update(self, two_worlds):
        cluster = GraphCluster.open(
            two_worlds, config=ClusterConfig(shards=2, workers=1)
        )
        try:
            shard = cluster.partition.shard_of("b1")
            assert cluster_answer(cluster, "z") == set()
            cluster.submit_update(add=[("b1", "z", "b3")]).result(timeout=30)
            assert cluster_answer(cluster, "z") == {("b1", "b3")}
            assert shard == cluster.partition.shard_of("b1")
        finally:
            cluster.stop()


class TestReplicas:
    def test_body_affinity_pins_bodies_to_replicas(self, multi_fig1):
        cluster = GraphCluster.open(
            multi_fig1, config=ClusterConfig(shards=1, replicas=2, workers=1)
        )
        try:
            for _ in range(6):
                cluster_answer(cluster, "a.(b.c)+")
            constructions = [
                cluster.replica(0, replica)
                .scheduler.shared_cache.snapshot_stats()
                .misses
                for replica in range(2)
            ]
            # One replica owns the body and computed its RTC once; the
            # other never saw it.
            assert sorted(constructions) == [0, 1]
        finally:
            cluster.stop()

    def test_closure_free_queries_spread_by_load(self, multi_fig1):
        cluster = GraphCluster.open(
            multi_fig1, config=ClusterConfig(shards=1, replicas=2, workers=1)
        )
        try:
            for _ in range(8):
                cluster_answer(cluster, "b.c")
            served = [
                cluster.replica(0, replica).scheduler.stats()["completed"]
                for replica in range(2)
            ]
            assert sum(served) == 8
        finally:
            cluster.stop()

    def test_replicas_converge_after_update(self, multi_fig1):
        cluster = GraphCluster.open(
            multi_fig1, config=ClusterConfig(shards=2, replicas=2, workers=1)
        )
        try:
            cluster.submit_update(add=[("0:1", "b", "0:99")]).result(timeout=30)
            shard = cluster.partition.shard_of("0:1")
            for replica in range(2):
                graph = cluster.replica(shard, replica).db.graph
                assert graph.has_edge("0:1", "b", "0:99")
        finally:
            cluster.stop()


class TestUpdates:
    def test_update_routes_to_owning_shard_only(self, multi_fig1):
        cluster = GraphCluster.open(
            multi_fig1, config=ClusterConfig(shards=4, workers=1)
        )
        try:
            cluster.submit_update(add=[("2:1", "b", "2:99")]).result(timeout=30)
            updates = [
                cluster.replica(shard).scheduler.stats()["updates"]
                for shard in range(4)
            ]
            assert sorted(updates) == [0, 0, 0, 1]
        finally:
            cluster.stop()

    def test_cross_shard_add_records_a_cut(self, multi_fig1):
        """A cross-shard add lands in the cut relation and changes answers."""
        cluster = GraphCluster.open(
            multi_fig1, config=ClusterConfig(shards=4, workers=1)
        )
        try:
            before = cluster_answer(cluster, "(b)+")
            cluster.submit_update(add=[("0:1", "b", "1:1")]).result(timeout=30)
            assert cluster.partition.has_cut("0:1", "b", "1:1")
            after = cluster_answer(cluster, "(b)+")
            assert ("0:1", "1:1") in after
            assert after > before
            # Duplicate cross-shard adds keep the multigraph's contract.
            from repro.errors import GraphError

            with pytest.raises(GraphError, match="duplicate cross-shard"):
                cluster.submit_update(add=[("0:1", "b", "1:1")])
            # Removing the cut restores the disjoint answers.
            cluster.submit_update(remove=[("0:1", "b", "1:1")]).result(
                timeout=30
            )
            assert cluster_answer(cluster, "(b)+") == before
        finally:
            cluster.stop()

    def test_cross_shard_remove_of_unrecorded_edge_raises(self, multi_fig1):
        cluster = GraphCluster.open(
            multi_fig1, config=ClusterConfig(shards=4, workers=1)
        )
        try:
            with pytest.raises(ClusterError, match="not a recorded") as info:
                cluster.submit_update(remove=[("0:1", "b", "1:1")])
            assert info.value.code == "cluster.unknown_edge"
            assert info.value.detail == ["0:1", "b", "1:1"]
            assert len(info.value.shards) == 2
        finally:
            cluster.stop()

    def test_new_component_lands_on_smallest_shard(self, two_worlds):
        cluster = GraphCluster.open(
            two_worlds, config=ClusterConfig(shards=4, workers=1)
        )
        try:
            cluster.submit_update(add=[("new1", "x", "new2")]).result(timeout=30)
            shard = cluster.partition.shard_of("new1")
            assert cluster.replica(shard).db.graph.num_edges == 1  # was empty
            assert cluster.partition.shard_of("new2") == shard
            assert cluster_answer(cluster, "x") >= {("new1", "new2")}
        finally:
            cluster.stop()

    def test_rejected_batch_leaves_no_phantom_state(self, multi_fig1):
        """A request failing validation mutates nothing (two-phase routing)."""
        cluster = GraphCluster.open(
            multi_fig1, config=ClusterConfig(shards=4, workers=1)
        )
        try:
            with pytest.raises(ClusterError, match="neither endpoint"):
                cluster.submit_update(
                    add=[("brand-new-a", "b", "brand-new-b")],  # valid alone
                    # Unknown-edge remove: rejects the whole batch.
                    remove=[("ghost", "b", "phantom")],
                )
            assert cluster.partition.shard_of("brand-new-a") is None
            assert cluster.partition.shard_of("brand-new-b") is None
            for shard in range(4):
                assert not cluster.replica(shard).db.graph.has_vertex(
                    "brand-new-a"
                )
        finally:
            cluster.stop()

    def test_same_batch_new_vertices_route_consistently(self, two_worlds):
        """Edges chaining through a batch-new vertex land on one shard."""
        cluster = GraphCluster.open(
            two_worlds, config=ClusterConfig(shards=2, workers=1)
        )
        try:
            cluster.submit_update(
                add=[("a1", "x", "fresh"), ("fresh", "x", "fresher")]
            ).result(timeout=30)
            shard = cluster.partition.shard_of("a1")
            assert cluster.partition.shard_of("fresh") == shard
            assert cluster.partition.shard_of("fresher") == shard
            assert cluster_answer(cluster, "x.x") >= {("a1", "fresher")}
        finally:
            cluster.stop()

    def test_full_replica_queue_never_splits_an_update(self, multi_fig1):
        """Blocking admission: broadcasts apply on every replica copy."""
        cluster = GraphCluster.open(
            multi_fig1,
            config=ClusterConfig(shards=2, replicas=2, workers=1, max_queue=1),
        )
        try:
            futures = [
                cluster.submit_update(add=[("0:1", "f", f"0:{400 + i}")])
                for i in range(6)
            ]
            for future in futures:
                future.result(timeout=60)
            shard = cluster.partition.shard_of("0:1")
            for replica in range(2):
                graph = cluster.replica(shard, replica).db.graph
                for i in range(6):
                    assert graph.has_edge("0:1", "f", f"0:{400 + i}")
        finally:
            cluster.stop()

    def test_remove_unknown_edge_raises(self, two_worlds):
        cluster = GraphCluster.open(
            two_worlds, config=ClusterConfig(shards=2, workers=1)
        )
        try:
            with pytest.raises(ClusterError, match="neither endpoint"):
                cluster.submit_update(remove=[("ghost", "x", "phantom")])
        finally:
            cluster.stop()

    def test_query_after_update_sees_new_state(self, multi_fig1):
        cluster = GraphCluster.open(
            multi_fig1, config=ClusterConfig(shards=4, replicas=2, workers=1)
        )
        try:
            before = cluster_answer(cluster, "(b)+")
            cluster.submit_update(add=[("3:1", "b", "3:98")]).result(timeout=30)
            cluster.submit_update(
                add=[("3:98", "b", "3:97")], remove=[("3:1", "b", "3:98")]
            ).result(timeout=30)
            after = cluster_answer(cluster, "(b)+")
            expected_change = {("3:98", "3:97")}
            assert after == before | expected_change
        finally:
            cluster.stop()


class TestWatchAndReaches:
    def test_watch_broadcasts_and_reaches_routes(self, multi_fig1):
        cluster = GraphCluster.open(
            multi_fig1, config=ClusterConfig(shards=4, replicas=2, workers=1)
        )
        try:
            assert cluster.watch("b.c") == "b.c"
            session = GraphDB.open(multi_fig1)
            for source, target in set(session.execute("(b.c)+")):
                assert cluster.reaches("b.c", source, target)
            assert not cluster.reaches("b.c", "0:1", "1:1")
            assert not cluster.reaches("b.c", "ghost", "0:1")
        finally:
            cluster.stop()

    def test_reaches_tracks_updates(self, multi_fig1):
        cluster = GraphCluster.open(
            multi_fig1, config=ClusterConfig(shards=4, workers=1)
        )
        try:
            cluster.watch("e")
            assert not cluster.reaches("e", "0:1", "0:95")
            cluster.submit_update(add=[("0:1", "e", "0:95")]).result(timeout=30)
            assert cluster.reaches("e", "0:1", "0:95")
        finally:
            cluster.stop()


class TestShardPruningAccounting:
    def test_fully_pruned_queries_stay_on_the_books(self, two_worlds):
        """Router-answered queries still count as admitted + completed."""
        cluster = GraphCluster.open(
            two_worlds, config=ClusterConfig(shards=2, workers=1)
        )
        try:
            for _ in range(3):
                assert cluster_answer(cluster, "nosuchlabel") == set()
            stats = cluster.stats()
            assert stats["answered_without_fanout"] == 3
            assert stats["completed"] == 3
            assert stats["admitted"] == (
                stats["completed"]
                + stats["expired"]
                + stats["failed"]
                + stats["cancelled"]
                + stats["updates"]
            )
        finally:
            cluster.stop()


class TestStats:
    def test_aggregate_counters_and_sessions(self, multi_fig1):
        cluster = GraphCluster.open(
            multi_fig1, config=ClusterConfig(shards=4, replicas=2, workers=1)
        )
        try:
            for query in QUERIES:
                cluster_answer(cluster, query)
            cluster.submit_update(add=[("0:1", "b", "0:99")]).result(timeout=30)
            scheduler_stats = cluster.stats()
            assert scheduler_stats["completed"] >= len(QUERIES)
            assert scheduler_stats["updates"] == 2  # both replicas applied
            assert scheduler_stats["in_flight"] == 0
            assert scheduler_stats["latency"]["p95"] >= 0.0
            assert scheduler_stats["cache"]["hits"] >= 0

            session_stats = cluster.session_stats()
            assert session_stats["graph"]["edges"] == multi_fig1.num_edges + 1
            assert session_stats["graph"]["vertices"] == (
                multi_fig1.num_vertices + 1
            )

            topology = cluster.describe()
            assert topology["shards"] == 4
            assert topology["replicas"] == 2
            assert len(topology["per_shard"]) == 4
            assert all(
                len(shard["replicas"]) == 2 for shard in topology["per_shard"]
            )
        finally:
            cluster.stop()
