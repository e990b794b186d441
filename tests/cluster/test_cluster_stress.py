"""Cluster stress: exactness under concurrency (the acceptance gate).

The headline criterion: a 4-shard cluster serves the same
closure-sharing stress workload as the single-node suite
(:mod:`tests.server.test_stress`) and every client's answers are
*identical* to a sequential ``execute_many`` on one session over the
unpartitioned graph -- sharding, routing, pruning and merging must be
invisible in the results.  A second gate interleaves writers and
readers and checks the final state of every shard.
"""

import threading

from repro.cluster import ClusterConfig, ClusterRouter, GraphCluster
from repro.db import GraphDB
from repro.server import Client, ServerConfig, ServerThread

from test_cluster import QUERIES


def run_clients(address, num_clients: int, queries_per_client):
    results: list[dict | None] = [None] * num_clients
    errors: list[BaseException] = []

    def worker(index: int) -> None:
        try:
            with Client(*address) as client:
                mine = {}
                for query in queries_per_client(index):
                    mine[query] = client.query(query).pairs
                results[index] = mine
        except BaseException as error:  # noqa: BLE001 -- re-raised below
            errors.append(error)

    threads = [
        threading.Thread(target=worker, args=(index,))
        for index in range(num_clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    if errors:
        raise errors[0]
    assert all(result is not None for result in results), "a client hung"
    return results


class TestClusterExactness:
    def test_4_shard_cluster_matches_execute_many(self, multi_fig1):
        """The acceptance gate: 4 shards == one session."""
        cluster = GraphCluster.open(
            multi_fig1,
            config=ClusterConfig(shards=4, workers=2),
            start=False,
        )
        router = ClusterRouter(cluster, ServerConfig(batch_window=0.002))
        with ServerThread(router) as handle:
            served = run_clients(handle.address, 8, lambda index: QUERIES)
        expected = {
            query: set(result)
            for query, result in zip(
                QUERIES, GraphDB.open(multi_fig1).execute_many(QUERIES)
            )
        }
        for client_results in served:
            assert client_results == expected

    def test_interleaved_disjoint_workloads(self, multi_fig1):
        cluster = GraphCluster.open(
            multi_fig1, config=ClusterConfig(shards=4, workers=1),
            start=False,
        )
        with ServerThread(ClusterRouter(cluster)) as handle:
            served = run_clients(
                handle.address, 6, lambda index: QUERIES[index % 3 :: 3]
            )
        session = GraphDB.open(multi_fig1)
        expected = {query: set(session.execute(query)) for query in QUERIES}
        for client_results in served:
            for query, pairs in client_results.items():
                assert pairs == expected[query], query


class TestClusterUnderWrites:
    def test_concurrent_updates_and_queries_converge(self, multi_fig1):
        cluster = GraphCluster.open(
            multi_fig1,
            config=ClusterConfig(shards=4, workers=2),
            start=False,
        )
        new_edges = [(f"{i % 4}:1", "b", f"{i % 4}:{200 + i}") for i in range(12)]
        with ServerThread(ClusterRouter(cluster)) as handle:
            reader_stop = threading.Event()
            reader_errors: list[BaseException] = []

            def reader() -> None:
                try:
                    with Client(*handle.address) as client:
                        while not reader_stop.is_set():
                            client.query("(b.c)+", pairs=False)
                except BaseException as error:  # noqa: BLE001
                    reader_errors.append(error)

            threads = [threading.Thread(target=reader) for _ in range(4)]
            for thread in threads:
                thread.start()
            with Client(*handle.address) as writer:
                for edge in new_edges:
                    writer.update(add=[edge])
            reader_stop.set()
            for thread in threads:
                thread.join(timeout=60)
            with Client(*handle.address) as client:
                final = client.query("(b.c)+").pairs

        assert not reader_errors
        # The shards together hold exactly the updated graph.
        merged_edges = set()
        for shard in range(4):
            merged_edges |= set(cluster.backend(shard).db.graph.edges())
        expected_graph = multi_fig1.copy()
        for source, label, target in new_edges:
            expected_graph.add_edge(source, label, target)
        assert merged_edges == set(expected_graph.edges())
        assert final == set(GraphDB.open(expected_graph).execute("(b.c)+"))

    def test_update_storm_leaves_books_balanced(self, multi_fig1):
        """After a mixed storm drains, the aggregate accounting closes."""
        cluster = GraphCluster.open(
            multi_fig1,
            config=ClusterConfig(shards=4, workers=1),
            start=False,
        )
        with ServerThread(ClusterRouter(cluster)) as handle:

            def mixed(index: int):
                if index % 2:
                    return QUERIES
                return QUERIES[:3]

            run_clients(handle.address, 8, mixed)
            with Client(*handle.address) as writer:
                for i in range(8):
                    writer.update(add=[(f"{i % 4}:1", "f", f"{i % 4}:{300 + i}")])
                stats = writer.stats()["scheduler"]
        assert stats["in_flight"] == 0
        assert stats["admitted"] == (
            stats["completed"]
            + stats["expired"]
            + stats["failed"]
            + stats["cancelled"]
            + stats["updates"]
        )
