"""Concurrency stress tests: correctness and sharing under load.

Two gates:

* served results are *identical* to a sequential ``execute_many`` on a
  fresh session, no matter how many client threads interleave;
* a 32-client workload of closure-sharing queries on the ``rtc`` engine
  performs measurably fewer RTC constructions than it serves queries
  (cache hits > 0) -- the server-level restatement of the paper's claim.
"""

import threading

import pytest

from repro.db import GraphDB
from repro.server import Client, ServerConfig, ServerThread

#: Closure-sharing workload over the Fig. 1 alphabet: three distinct
#: bodies, each used by several query shapes.
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


def run_clients(address, num_clients: int, queries_per_client):
    """Each thread opens its own client and evaluates its query list."""
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


class TestConcurrentCorrectness:
    @pytest.mark.parametrize("engine", ["rtc", "full", "no"])
    def test_threads_match_sequential_execute_many(self, fig1, engine):
        """N threads x M queries == sequential execute_many, per engine."""
        num_clients = 8
        db = GraphDB.open(fig1, engine=engine)
        config = ServerConfig(workers=4, batch_window=0.002)
        with ServerThread(db, config) as handle:
            served = run_clients(
                handle.address, num_clients, lambda index: QUERIES
            )
        expected = {
            query: set(result)
            for query, result in zip(
                QUERIES, GraphDB.open(fig1, engine=engine).execute_many(QUERIES)
            )
        }
        for client_results in served:
            assert client_results == expected

    def test_interleaved_disjoint_workloads(self, fig1):
        """Clients running different query subsets still get exact answers."""
        db = GraphDB.open(fig1)
        with ServerThread(db) as handle:
            served = run_clients(
                handle.address,
                6,
                lambda index: QUERIES[index % 3 :: 3],
            )
        session = GraphDB.open(fig1)
        expected = {
            query: set(session.execute(query)) for query in QUERIES
        }
        for client_results in served:
            for query, pairs in client_results.items():
                assert pairs == expected[query], query


class TestSharingUnderLoad:
    def test_32_clients_amortise_rtc_constructions(self, fig1):
        """Acceptance gate: constructions (misses) << queries, hits > 0."""
        num_clients = 32
        db = GraphDB.open(fig1, engine="rtc")
        config = ServerConfig(workers=4, batch_window=0.005, max_queue=2048)
        with ServerThread(db, config) as handle:
            run_clients(handle.address, num_clients, lambda index: QUERIES)
            with Client(*handle.address) as client:
                stats = client.stats()
        scheduler = stats["scheduler"]
        total_queries = num_clients * len(QUERIES)
        assert scheduler["completed"] == total_queries
        cache = scheduler["cache"]
        assert cache["hits"] > 0
        # Far fewer RTC constructions than closure queries served: the
        # workload has 4 distinct closure bodies; allow slack for the
        # benign concurrent-miss race on first contact.
        assert cache["misses"] < total_queries / 10
        assert cache["hits"] + cache["misses"] >= total_queries / 2

    def test_batches_actually_group(self, fig1):
        """Under simultaneous load some micro-batches exceed size 1."""
        db = GraphDB.open(fig1, engine="rtc")
        # One worker and a generous window forces queueing, so the
        # dispatcher has something to group.  Every text is new to the
        # scheduler (one per client, one closure body for all), so no
        # read is evaluated inline: they all take the pool.
        config = ServerConfig(workers=1, batch_window=0.05, max_queue=2048)
        with ServerThread(db, config) as handle:
            run_clients(
                handle.address,
                16,
                lambda index: [f"a.(b.c)+|x{index}", f"d.(b.c)+.c|x{index}"],
            )
            with Client(*handle.address) as client:
                scheduler = client.stats()["scheduler"]
        assert scheduler["completed"] == 32
        assert scheduler["max_batch_size"] > 1

    def test_concurrent_updates_and_queries_stay_consistent(self, fig1):
        """Writers and readers interleave; the final state is exact."""
        db = GraphDB.open(fig1)
        new_edges = [(100 + i, "b", 200 + i) for i in range(10)]
        with ServerThread(db) as handle:
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
        for source, _label, target in new_edges:
            assert db.graph.has_edge(source, "b", target)
        assert final == set(GraphDB.open(db.graph).execute("(b.c)+"))
