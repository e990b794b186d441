"""Crash durability gates: kill -9, restart from disk, answer identity.

The storage subsystem's cluster-level oracle: a process-backend cluster
whose workers are SIGKILLed *after* updates were acked must, restarted
over the same data directory, answer the full workload identically to a
single unbroken ``GraphDB`` session that applied the same updates.  A
checkpointed thread cluster must come back *warm* -- cached closures
served without recompute.
"""

import os
import re
import shutil
import signal
from pathlib import Path

import pytest

from repro.cluster import ClusterConfig, ClusterRouter, GraphCluster, partition_graph
from repro.db import GraphDB
from repro.errors import ClusterError
from repro.server import Client, ServerConfig, ServerThread
from test_crossshard import QUERIES, pick_cross_shard_edge, single_component_rmat

#: Fig. 1's Example 2 query -- a closure body the RTC store persists.
CLOSURE_QUERY = "d.(b.c)+.c"


@pytest.fixture
def data_dir(tmp_path, request):
    """A durable data directory; ``REPRO_DURABILITY_DATA_DIR`` redirects
    it so CI can upload the WAL/manifest state as an artifact when the
    gate fails."""
    root = os.environ.get("REPRO_DURABILITY_DATA_DIR")
    if not root:
        return tmp_path / "data"
    path = Path(root) / re.sub(r"[^A-Za-z0-9_.-]+", "-", request.node.name)
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


def pick_same_shard_edge(graph, partition, label="l2"):
    """The first (by string order) absent edge living inside one shard."""
    vertices = sorted(graph.vertices(), key=str)
    for source in vertices:
        for target in vertices:
            if source == target:
                continue
            if partition.shard_of(source) != partition.shard_of(target):
                continue
            if not graph.has_edge(source, label, target):
                return (source, label, target)
    raise AssertionError("no same-shard edge candidate found")


def reference_answers(graph, update_edges):
    """Ground truth: one unbroken session that applied the same updates."""
    db = GraphDB.open(graph.copy())
    for edge in update_edges:
        db.update(add=[edge])
    return {query: set(db.execute(query)) for query in QUERIES}


class TestKillNineRestart:
    def test_restart_matches_unbroken_session(self, data_dir):
        """The acceptance gate: SIGKILL both workers after acked updates,
        restart over the same data directory, identical answers."""
        graph = single_component_rmat()
        config = ClusterConfig(
            shards=2, workers=1, backend="process", data_dir=data_dir
        )
        cluster = GraphCluster(
            partition_graph(graph.copy(), 2, strategy="edge-cut"),
            config=config,
        )
        try:
            # One acked update of each routing kind: same-shard, a cut
            # edge crossing shards, and a brand-new vertex the router
            # must re-assign identically on replay.
            cut_edge = pick_cross_shard_edge(graph, cluster.partition)
            same_edge = pick_same_shard_edge(graph, cluster.partition)
            new_edge = ("fresh-vertex", "l0", sorted(graph.vertices(), key=str)[0])
            updates = [same_edge, cut_edge, new_edge]

            for query in QUERIES[:3]:  # mid-workload: traffic, then crash
                cluster.submit(query).result(timeout=120)
            for edge in updates:
                cluster.submit_update(add=[edge]).result(timeout=120)

            for shard in range(2):
                os.kill(cluster.backend(shard).pid, signal.SIGKILL)
        finally:
            cluster.stop()

        expected = reference_answers(graph, updates)
        restarted = GraphCluster(
            partition_graph(graph.copy(), 2, strategy="edge-cut"),
            config=config,
        )
        try:
            assert restarted.partition.has_cut(*cut_edge)
            for query in QUERIES:
                pairs, _elapsed = restarted.submit(query).result(timeout=120)
                assert pairs == expected[query], query
        finally:
            restarted.stop()


class TestWarmRestart:
    def test_checkpointed_cluster_comes_back_hot(self, multi_fig1, data_dir):
        """Restarted shards serve the checkpointed closure from the RTC
        store -- cache hits, no recompute."""
        config = ClusterConfig(shards=2, workers=1, data_dir=data_dir)
        cluster = GraphCluster(
            partition_graph(multi_fig1.copy(), 2), config=config
        )
        try:
            before, _ = cluster.submit(CLOSURE_QUERY).result(timeout=120)
            infos = cluster.checkpoint()
            assert len(infos) == 2
        finally:
            cluster.stop()

        restarted = GraphCluster(
            partition_graph(multi_fig1.copy(), 2), config=config
        )
        try:
            document = restarted.describe()
            storage_docs = [
                entry["storage"] for entry in document["per_shard"]
            ]
            assert all(doc["recovered"] for doc in storage_docs)
            assert sum(doc["warm"]["entries"] for doc in storage_docs) >= 2
            assert document["storage"]["data_dir"] == str(data_dir)

            caches = [
                restarted.backend(shard).replicas[0].db.engine.rtc_cache.stats
                for shard in range(2)
            ]
            misses = [cache.misses for cache in caches]
            hits = sum(cache.hits for cache in caches)
            after, _ = restarted.submit(CLOSURE_QUERY).result(timeout=120)
            assert after == before
            assert [cache.misses for cache in caches] == misses  # no recompute
            assert sum(cache.hits for cache in caches) > hits
        finally:
            restarted.stop()

    def test_restarted_replicas_repair_by_label(self, multi_fig1, data_dir):
        """Both replicas of a restarted shard see one update stream and
        repair the same store-installed closures in place: by label, on
        the owning shard only, with no cache miss anywhere -- and every
        answer equals one session's."""
        config = ClusterConfig(shards=2, replicas=2, workers=1, data_dir=data_dir)
        queries = [CLOSURE_QUERY, "a.(b.c)+", "(e.f)+.e"]
        cluster = GraphCluster(
            partition_graph(multi_fig1.copy(), 2), config=config
        )
        try:
            for query in queries:
                cluster.submit(query).result(timeout=120)
            cluster.checkpoint()
        finally:
            cluster.stop()

        restarted = GraphCluster(
            partition_graph(multi_fig1.copy(), 2), config=config
        )
        reference = GraphDB.open(multi_fig1.copy())
        try:
            sessions = {
                (shard, replica): restarted.replica(shard, replica).db
                for shard in range(2)
                for replica in range(2)
            }
            assert all(len(db.engine.rtc_cache) >= 2 for db in sessions.values())
            warm = {
                where: {body: db.engine.rtc_for(body) for body in ("b.c", "e.f")}
                for where, db in sessions.items()
            }

            def misses() -> set:
                return {db.engine.rtc_cache.stats.misses for db in sessions.values()}

            assert misses() == {0}  # all from the store

            def kept(where, body) -> bool:
                return sessions[where].engine.rtc_for(body) is warm[where][body]

            def check_answers() -> None:
                for query in queries * 2:  # round-robin reaches both replicas
                    pairs, _elapsed = restarted.submit(query).result(timeout=120)
                    assert set(pairs) == set(reference.execute(query)), query

            def apply(**batch) -> None:
                restarted.submit_update(**batch).result(timeout=120)
                reference.update(**batch)

            # A label neither body reads: nothing moves anywhere.
            apply(add=[("0:0", "d", "0:1")])
            assert all(kept(where, body) for where in sessions for body in ("b.c", "e.f"))
            check_answers()

            # ``f`` on a copy-0 vertex adds the e.f pair (8, 7): ``e.f`` is
            # republished on both replicas of the owning shard only.
            owner = restarted.partition.shard_of("0:9")
            apply(add=[("0:9", "f", "0:7")])
            for where in sessions:
                assert kept(where, "b.c")
                assert kept(where, "e.f") == (where[0] != owner)
            check_answers()

            # Removing ``b`` edge 2 -> 5 takes (2, 4) and (2, 6) out of b.c.
            apply(remove=[("0:2", "b", "0:5")])
            for where in sessions:
                assert kept(where, "b.c") == (where[0] != owner)
            check_answers()
            assert misses() == {0}  # repaired in place, never rebuilt
        finally:
            restarted.stop()

    def test_checkpoint_without_data_dir_is_unsupported(self, multi_fig1):
        cluster = GraphCluster(
            partition_graph(multi_fig1.copy(), 2),
            config=ClusterConfig(shards=2, workers=1),
        )
        try:
            with pytest.raises(ClusterError, match="no storage"):
                cluster.checkpoint()
        finally:
            cluster.stop()


class TestCheckpointVerb:
    def test_checkpoint_over_the_wire(self, multi_fig1, data_dir):
        """The router's ``checkpoint`` verb fans out and reports LSNs."""
        cluster = GraphCluster(
            partition_graph(multi_fig1.copy(), 2),
            config=ClusterConfig(shards=2, workers=1, data_dir=data_dir),
            start=False,
        )
        router = ClusterRouter(cluster, ServerConfig(batch_window=0.002))
        with ServerThread(router) as handle:
            with Client(*handle.address) as client:
                client.update(add=[["0:v7", "d", "0:v2"]])
                response = client.call("checkpoint")
                infos = response["checkpoint"]
                assert len(infos) == 2
                assert all("lsn" in info for info in infos)
                assert max(info["lsn"] for info in infos) >= 1
