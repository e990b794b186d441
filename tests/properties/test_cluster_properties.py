"""The router's one answer shape, on random graphs and random partitions.

Every read a :class:`~repro.cluster.GraphCluster` serves is a
:class:`~repro.bitset.PairBitmap` equal to one session's answer: over a
component or an edge-cut partition, on one to three shards, on the
``rtc``, ``no`` and ``full`` engines (the last answers a shard read with
a tuple set, which the merge maps through the shard's interner).  A read
merged from shard answers is over the cluster id space -- shard 0's
vertices, then shard 1's, and so on -- and an update that interns a
vertex on shard 0 shifts every later base without changing what an
answer already handed out decodes to.

A ``reaches`` probe answers like one session's, whether the body's
labels touch no cut edge (the probe routes to the source's shard) or
one (the probe reads the closure the boundary join serves).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import labeled_graphs, regexes
from repro.bitset import PairBitmap
from repro.cluster import ClusterConfig, GraphCluster, partition_graph
from repro.core.plan import plan_for
from repro.db import GraphDB

#: A closure with a nullable body, ``R*`` and two plain queries; each
#: example adds one random query.
QUERIES = ["((b)*|a)+", "(a)*", "a.b", "(a|c)+.b"]


def shard_vertices(cluster: GraphCluster) -> list:
    """The cluster id space: shard interners end to end, in shard order."""
    return [
        vertex
        for shard in range(cluster.num_shards)
        for vertex in cluster.backend(shard).db.graph.interner.vertices()
    ]


def merged_read(cluster: GraphCluster, query: str) -> bool:
    """True when ``query`` takes the fan-out merge, not the boundary join."""
    labels = plan_for(query).route()[0]
    return not any(edge[1] in labels for edge in cluster.partition.cut_relation())


def read(cluster: GraphCluster, query: str) -> PairBitmap:
    pairs, _elapsed = cluster.submit(query).result(timeout=60)
    assert isinstance(pairs, PairBitmap)
    if merged_read(cluster, query):
        assert pairs.interner.vertices() == shard_vertices(cluster)
    return pairs


@settings(max_examples=60, deadline=None)
@given(
    graph=labeled_graphs(max_vertices=8, max_edges=16),
    extra=regexes(max_depth=2),
    strategy=st.sampled_from(["component", "edge-cut"]),
    shards=st.integers(1, 3),
    engine=st.sampled_from(["rtc", "no", "full"]),
)
def test_every_read_is_one_sessions_bitmap(graph, extra, strategy, shards, engine):
    session = GraphDB.open(graph.copy(), engine="no")
    cluster = GraphCluster(
        partition_graph(graph.copy(), shards, strategy=strategy),
        engine=engine,
        config=ClusterConfig(shards=shards, workers=1),
    )
    try:
        queries = QUERIES + [extra.to_string()]
        before = {}
        for query in queries:
            pairs = read(cluster, query)
            expected = set(session.execute(query))
            assert set(pairs) == expected, query
            assert pairs.count() == len(expected), query
            before[query] = (pairs, expected)

        # A new vertex on shard 0 grows its interner by one: every later
        # shard's base moves, and only reads after the update see it.
        space = shard_vertices(cluster)
        shard0 = len(cluster.backend(0).db.graph.interner)
        edge = (space[0], "a", "fresh")
        cluster.submit_update(add=[edge]).result(timeout=60)
        assert shard_vertices(cluster) == (
            space[:shard0] + ["fresh"] + space[shard0:]
        )
        session.update(add=[edge])
        for query in queries:
            old_pairs, old_expected = before[query]
            assert set(old_pairs) == old_expected, query
            assert set(read(cluster, query)) == set(session.execute(query)), query
    finally:
        cluster.stop()


#: A vertex no graph of :func:`labeled_graphs` holds (they are ints).
GHOST = "ghost"


def assert_reaches_agree(cluster: GraphCluster, session: GraphDB, body: str):
    vertices = list(session.graph.vertices()) + [GHOST]
    for source in vertices:
        for target in vertices:
            assert cluster.reaches(body, source, target) == session.reaches(
                body, source, target
            ), (body, source, target)


@settings(max_examples=60, deadline=None)
@given(
    graph=labeled_graphs(max_vertices=7, max_edges=14),
    body=regexes(max_depth=2),
    strategy=st.sampled_from(["component", "edge-cut"]),
    shards=st.integers(1, 3),
    data=st.data(),
)
def test_reaches_is_one_sessions_reaches(graph, body, strategy, shards, data):
    body = body.to_string()
    session = GraphDB.open(graph.copy())
    cluster = GraphCluster(
        partition_graph(graph.copy(), shards, strategy=strategy),
        config=ClusterConfig(shards=shards, workers=1),
    )
    try:
        assert_reaches_agree(cluster, session, body)

        # A new cut edge carrying one of the body's labels: from now on
        # a path may leave its shard through it.
        label = data.draw(
            st.sampled_from(sorted(plan_for(f"({body})+").route()[0]) or ["a"])
        )
        shard_of = cluster.partition.shard_of
        crossing = [
            (source, label, target)
            for source in graph.vertices()
            for target in graph.vertices()
            if shard_of(source) != shard_of(target)
            and not session.graph.has_edge(source, label, target)
        ]
        if crossing:
            edge = data.draw(st.sampled_from(crossing))
            cluster.submit_update(add=[edge]).result(timeout=60)
            session.update(add=[edge])
            assert cluster.partition.has_cut(*edge)
            assert_reaches_agree(cluster, session, body)
    finally:
        cluster.stop()
