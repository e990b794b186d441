"""ClusterRouter end-to-end: the unchanged Client against a cluster.

Everything here goes over real TCP through the JSON-lines wire
protocol -- the point being that a :class:`~repro.server.Client` cannot
tell (except by reading ``stats``) whether it talks to one session or to
a 4-shard cluster.
"""

import json
import socket

import pytest

from repro.cluster import ClusterConfig, ClusterRouter, GraphCluster, partition_graph
from repro.db import GraphDB
from repro.errors import ProtocolError, RPQSyntaxError
from repro.graph.multigraph import LabeledMultigraph
from repro.regex.parser import MAX_NESTING
from repro.server import Client, ServerConfig, ServerThread

from test_cluster import QUERIES


@pytest.fixture
def served(multi_fig1):
    cluster = GraphCluster.open(
        multi_fig1,
        config=ClusterConfig(shards=4, workers=1),
        start=False,
    )
    router = ClusterRouter(cluster, ServerConfig(batch_window=0.002))
    with ServerThread(router) as handle:
        with Client(*handle.address) as client:
            yield client, multi_fig1


class TestProtocolOverCluster:
    def test_ping(self, served):
        client, _graph = served
        assert client.ping() >= 1

    def test_query_many_matches_session(self, served):
        client, graph = served
        session = GraphDB.open(graph)
        results = client.query_many(QUERIES)
        for query, result in zip(QUERIES, results):
            assert result.pairs == set(session.execute(query)), query

    def test_counts_only(self, served):
        client, graph = served
        result = client.query("(b.c)+", pairs=False)
        assert result.pairs is None
        assert result.count == len(set(GraphDB.open(graph).execute("(b.c)+")))

    @pytest.mark.parametrize("vertex", [b'["0:2"]', b'{"v": "0:2"}', b"false"])
    def test_reaches_with_a_non_scalar_vertex_is_a_bad_request(self, served, vertex):
        """The router inherits the server's check: refused, connection kept."""
        client, _graph = served
        with socket.create_connection((client.host, client.port), timeout=10) as sock:
            stream = sock.makefile("rwb")
            stream.write(
                b'{"op": "reaches", "id": 1, "body": "b.c", "source": '
                + vertex + b', "target": "0:6"}\n'
            )
            stream.flush()
            refused = json.loads(stream.readline())
            stream.write(b'{"op": "reaches", "id": 2, "body": "b.c", "source": "0:2", "target": "0:6"}\n')
            stream.flush()
            after = json.loads(stream.readline())
        assert refused["ok"] is False and refused["error"]["code"] == "bad_request"
        assert after["ok"] is True and after["reaches"] is True

    def test_syntax_error_comes_back_typed(self, served):
        client, _graph = served
        with pytest.raises(RPQSyntaxError):
            client.query("((")
        assert client.ping() >= 1  # well-framed error: client stays usable

    def test_a_query_nested_past_the_bound_is_a_syntax_error(self, served):
        """The router parses too: ``syntax``, not ``internal``, connection
        kept, and a query exactly at the bound answers like a session."""
        client, graph = served
        at_bound = "(" * (MAX_NESTING // 2) + "b" + ")+" * (MAX_NESTING // 2)
        texts = ("(" * 600 + "b" + ")" * 600, "b" + "+" * 1000, at_bound)
        with socket.create_connection((client.host, client.port), timeout=30) as sock:
            stream = sock.makefile("rwb")
            responses = []
            for index, text in enumerate(texts):
                request = {"op": "query", "id": index, "queries": [text], "pairs": False}
                stream.write(json.dumps(request).encode() + b"\n")
                stream.flush()
                responses.append(json.loads(stream.readline()))
        for refused in responses[:2]:
            assert refused["ok"] is False
            assert refused["error"]["code"] == "syntax"
        expected = len(set(GraphDB.open(graph, engine="no").execute(at_bound)))
        assert responses[2]["ok"] is True
        assert responses[2]["results"][0]["count"] == expected

    def test_a_repeated_routed_read_parses_and_walks_nothing(
        self, served, planning_calls
    ):
        client, graph = served
        query = "a.(b.c)+|routed_plan"
        expected = set(GraphDB.open(graph).execute(query))
        for _ in range(2):  # a plan is kept from a text's second sighting
            assert client.query(query).pairs == expected
        warm = dict(planning_calls)
        for _ in range(3):
            assert client.query(query).pairs == expected
        assert planning_calls == warm

    def test_update_watch_reaches(self, served):
        client, _graph = served
        assert client.watch("b.c") == "b.c"
        client.update(add=[("0:1", "e", "0:90")])
        assert client.reaches("e", "0:1", "0:90")
        assert not client.reaches("e", "0:90", "0:1")
        client.update(remove=[("0:1", "e", "0:90")])
        assert not client.reaches("e", "0:1", "0:90")

    def test_cross_shard_update_is_a_wire_error(self, served):
        """ClusterError survives the wire round trip, structured fields
        included (a cross-shard *add* now records a cut; removing an
        unrecorded cut is the error case)."""
        client, _graph = served
        from repro.errors import ClusterError

        with pytest.raises(ClusterError, match="not a recorded") as info:
            client.update(remove=[("0:1", "b", "1:1")])
        assert info.value.code == "cluster.unknown_edge"
        assert info.value.detail == ["0:1", "b", "1:1"]
        assert len(info.value.shards) == 2
        assert client.ping() >= 1

    def test_stats_document_shape(self, served):
        client, graph = served
        client.query_many(QUERIES)
        stats = client.stats()
        assert stats["server"]["version"] >= 1
        assert stats["scheduler"]["completed"] >= len(QUERIES)
        assert stats["scheduler"]["in_flight"] == 0
        assert "cache" in stats["scheduler"]
        assert stats["session"]["graph"]["edges"] == graph.num_edges
        cluster_doc = stats["cluster"]
        assert cluster_doc["shards"] == 4
        per_shard_completed = sum(
            shard["completed"] for shard in cluster_doc["per_shard"]
        )
        assert per_shard_completed == stats["scheduler"]["completed"]

    def test_scheduler_stats_carry_the_serving_counters(self, served):
        """The counters a served benchmark reads off ``stats()["scheduler"]``
        (``perf/workloads.py``'s ``Served.counters``) stay in place."""
        client, _graph = served
        client.query_many(QUERIES)
        client.query_many(QUERIES)
        scheduler = client.stats()["scheduler"]
        assert scheduler["batches"] >= 1
        assert scheduler["mean_batch_size"] >= 1.0
        assert scheduler["rejected"] == 0
        assert scheduler["cache"]["misses"] >= 1
        assert scheduler["cache"]["hits"] >= 1

    def test_propagated_trace_form_is_a_bad_request(self, served):
        """Nothing ships spans between processes any more: a request's
        ``trace`` is ``true`` or absent, never a remote parent."""
        client, _graph = served
        with pytest.raises(ProtocolError, match="'trace' must be true"):
            client.query_call(["b.c"], trace={"id": "t", "parent": "p"})
        assert client.ping() >= 1


#: The keys of one ``stats()["cluster"]["per_shard"]`` entry.
PER_SHARD_KEYS = {
    "shard", "vertices", "edges", "labels", "completed", "updates",
    "in_flight", "queue_depth", "cache_hits", "cache_misses",
}


@pytest.mark.parametrize("strategy", ["component", "edge-cut"])
def test_per_shard_entries_are_flat(strategy):
    """One session per shard: each entry is that shard's own counters,
    with no replica list and no worker process, on either partitioner."""
    from test_crossshard import single_component_rmat

    graph = single_component_rmat()
    if strategy == "component":
        # Two disjoint copies: one component per shard, no cut edge.
        graph = LabeledMultigraph.from_edges(
            (f"{copy}:{source}", label, f"{copy}:{target}")
            for copy in range(2)
            for source, label, target in graph.edges()
        )
    cluster = GraphCluster(
        partition_graph(graph.copy(), 2, strategy=strategy),
        config=ClusterConfig(shards=2, workers=1),
    )
    assert cluster.partition.has_cuts == (strategy == "edge-cut")
    router = ClusterRouter(cluster, ServerConfig(batch_window=0.002))
    with ServerThread(router) as handle, Client(*handle.address) as client:
        client.query_many(["(l0)+", "l0.l1"])
        client.update(add=[("fresh", "l2", sorted(graph.vertices(), key=str)[0])])
        stats = client.stats()
    per_shard = stats["cluster"]["per_shard"]
    assert [entry["shard"] for entry in per_shard] == [0, 1]
    for entry in per_shard:
        assert set(entry) == PER_SHARD_KEYS
    assert sum(entry["updates"] for entry in per_shard) == 1
    assert sum(entry["edges"] for entry in per_shard) + stats["cluster"][
        "cut_edges"
    ] == graph.num_edges + 1
