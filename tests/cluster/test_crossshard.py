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
``test_boundary.py``.)  The router's memos close the file: one join plan
per query text and cut-relation version, and a bounded answer cache.
"""

import sys
import threading
import time
from concurrent.futures import Future

import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterRouter,
    GraphCluster,
    boundary,
    partition_graph,
    weakly_connected_components,
)
from repro.cluster import service as cluster_service
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


@pytest.fixture
def cut_cluster():
    """Two edge-cut thread shards of one R-MAT component, plus its graph."""
    graph = single_component_rmat()
    cluster = GraphCluster(
        partition_graph(graph.copy(), 2, strategy="edge-cut"),
        config=ClusterConfig(shards=2, workers=1),
    )
    try:
        cut_labels = {edge[1] for edge in cluster.partition.cut_relation()}
        assert cut_labels == {"l0", "l1", "l2"}  # every query takes the join
        yield cluster, graph
    finally:
        cluster.stop()


@pytest.fixture
def plan_calls(monkeypatch):
    """Every ``boundary.plan`` call, as the query labels it planned for."""
    calls = []
    real_plan = boundary.plan

    def counted(nfa, cuts, shard_of):
        calls.append(nfa.labels)
        return real_plan(nfa, cuts, shard_of)

    monkeypatch.setattr(boundary, "plan", counted)
    return calls


def cluster_answer(cluster, query):
    pairs, _elapsed = cluster.submit(query).result(timeout=60)
    return set(pairs)


def live_states(nfa):
    """The states of ``nfa`` from which an accepting state is reachable."""
    backward: dict = {}
    for state, row in nfa.delta.items():
        for targets in row.values():
            for target in targets:
                backward.setdefault(target, set()).add(state)
    live = set(nfa.accepts)
    stack = list(live)
    while stack:
        for state in backward.get(stack.pop(), ()):
            if state not in live:
                live.add(state)
                stack.append(state)
    return live


def fresh_local_edge(graph, cluster, label="l0"):
    """An edge from a cut source to a brand-new vertex: the new vertex
    joins its neighbour's shard, so no cut edge changes."""
    cut = next(iter(cluster.partition.cut_relation()))
    return (cut[0], label, max(graph.vertices()) + 1)


class TestJoinPlanMemo:
    def test_plans_once_per_cut_change(self, cut_cluster, plan_calls):
        """Past its first sighting, a text is planned once per cut-relation
        version -- an update inside one shard drops the cached answer but
        keeps the plan -- and each answer is the one-session answer of
        the moment."""
        cluster, graph = cut_cluster
        query = "(l0|l1)+"
        cut = pick_cross_shard_edge(graph, cluster.partition)
        local = fresh_local_edge(graph, cluster)
        session = GraphDB.open(graph.copy())

        def update(**change):
            cluster.submit_update(**change).result(timeout=60)
            session.update(**change)

        steps = [
            (lambda: None, 1),  # first sighting: planned, not kept
            (lambda: update(add=[cut]), 2),
            (lambda: update(add=[local]), 2),
            (lambda: update(remove=[cut]), 3),
        ]
        for step, planned in steps:
            step()
            expected = set(session.execute(query))
            for _ in range(3):
                assert cluster_answer(cluster, query) == expected
            assert len(plan_calls) == planned
        assert cluster.partition.cut_state()[0] == 2

    def test_texts_are_planned_twice_across_in_shard_updates(
        self, cut_cluster, plan_calls
    ):
        """Each in-shard update drops every cached answer, so every pass
        runs the join; a text is planned on its first sighting (not
        kept) and on its second (kept), never again."""
        cluster, graph = cut_cluster
        session = GraphDB.open(graph.copy())
        versions = {cluster.partition.cut_state()[0]}
        for _ in range(3):
            for query in QUERIES:
                assert cluster_answer(cluster, query) == set(session.execute(query))
            local = fresh_local_edge(graph, cluster)
            graph.add_edge(*local)
            cluster.submit_update(add=[local]).result(timeout=60)
            session.update(add=[local])
            versions.add(cluster.partition.cut_state()[0])
        assert versions == {0}
        assert len(plan_calls) == 2 * len(QUERIES)
        assert set(cluster._join_plans) == set(QUERIES)

    def test_one_off_texts_keep_no_plan(self, cut_cluster, plan_calls):
        cluster, graph = cut_cluster
        session = GraphDB.open(graph.copy())
        for query in QUERIES:
            assert cluster_answer(cluster, query) == set(session.execute(query))
        assert len(plan_calls) == len(QUERIES)
        assert cluster._join_plans == {}

    def test_every_entry_sits_on_a_live_state(self, cut_cluster):
        cluster, graph = cut_cluster
        for query in QUERIES:
            cluster_answer(cluster, query)
        local = fresh_local_edge(graph, cluster)
        cluster.submit_update(add=[local]).result(timeout=60)
        for query in QUERIES:
            cluster_answer(cluster, query)
        assert set(cluster._join_plans) == set(QUERIES)
        for _version, join_plan in cluster._join_plans.values():
            assert len(join_plan.entries) > 0
            live = live_states(join_plan.nfa)
            assert all(state in live for _vertex, state in join_plan.entries)

    def test_reads_racing_cut_changes_stay_exact(self, cut_cluster):
        """Reads on other threads overlap every cut add and remove; each
        answer read after an update is acked is that update's answer."""
        cluster, graph = cut_cluster
        edge = pick_cross_shard_edge(graph, cluster.partition)
        session = GraphDB.open(graph.copy())
        queries = ["(l0|l1)+", "l0.l1", "(l1)+"]
        without = {query: set(session.execute(query)) for query in queries}
        session.update(add=[edge])
        with_edge = {query: set(session.execute(query)) for query in queries}
        assert without != with_edge, "the cut edge must change an answer"

        stop = threading.Event()
        errors = []

        def reader(offset):
            index = offset
            while not stop.is_set():
                query = queries[index % len(queries)]
                index += 1
                try:
                    pairs = cluster_answer(cluster, query)
                except Exception as error:  # reported by the main thread
                    errors.append(error)
                    return
                # Overlapping an update, either side is a legal answer.
                if pairs not in (without[query], with_edge[query]):
                    errors.append(AssertionError(f"{query}: neither answer"))
                    return

        readers = [
            threading.Thread(target=reader, args=(offset,), daemon=True)
            for offset in range(2)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in readers:
                thread.start()
            for round_ in range(12):
                present = round_ % 2 == 0
                if present:
                    cluster.submit_update(add=[edge]).result(timeout=60)
                else:
                    cluster.submit_update(remove=[edge]).result(timeout=60)
                expected = with_edge if present else without
                for query in queries:
                    assert cluster_answer(cluster, query) == expected[query], (
                        round_,
                        query,
                    )
        finally:
            sys.setswitchinterval(interval)
            stop.set()
            for thread in readers:
                thread.join(timeout=60)
        assert not errors, errors


class TestJoinCacheBound:
    def test_unique_texts_never_outgrow_the_limit(
        self, cut_cluster, monkeypatch
    ):
        """Read-only traffic of ever new texts keeps at most
        ``PLAN_MEMO_LIMIT`` answers (and plans) at the router."""
        monkeypatch.setattr(cluster_service, "PLAN_MEMO_LIMIT", 4)
        cluster, graph = cut_cluster
        session = GraphDB.open(graph.copy())
        for query in QUERIES:
            assert cluster_answer(cluster, query) == set(session.execute(query))
            assert query in cluster._join_cache
            assert len(cluster._join_cache) <= 4
            assert len(cluster._join_plans_seen) <= 4
