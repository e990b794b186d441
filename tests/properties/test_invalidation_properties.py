"""Differential tests for label-aware invalidation (`GraphDB.update`).

An update drops only the cached closures, and notifies only the
watchers, whose body reads a label it carried -- or is nullable, when it
created a vertex.  Two halves:

* *answers*: under random interleavings of add / remove / query (new
  vertices, nullable and nested bodies included) every sharing engine in
  every cache mode keeps answering like a fresh ``engine="no"`` session
  over the same graph, and every watcher keeps equalling ``compute_rtc``
  from scratch;
* *identity*: across an update that cannot touch a body, the cached
  shared data is the same object, no miss is recorded and the watcher
  does no rebuild -- and across one that can, it is gone.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from strategies import LABELS, labeled_graphs, regexes
from repro.core.rtc import compute_rtc
from repro.db import GraphDB
from repro.regex.ast import Label, Plus, Star, concat, iter_labels
from repro.regex.parser import parse
from repro.regex.simplify import is_nullable_ast
from repro.rpq import eval_rpq

CONFIGS = [
    (engine, mode)
    for engine in ("rtc", "full")
    for mode in ("syntactic", "semantic")
]

#: Bodies every run carries beside the drawn ones: nullable, nested,
#: one label each, so foreign-label updates always exist.
FIXED_BODIES = ["a", "b.c", "(a?)+", "a.(b)+", "(a*)+|c"]

operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("add"),
            st.integers(0, 10),  # ids past the graph's create vertices
            st.sampled_from(LABELS),
            st.integers(0, 10),
        ),
        st.tuples(st.just("remove"), st.integers(0, 1000)),
    ),
    min_size=1,
    max_size=6,
)


def queries_over(bodies) -> list:
    out = []
    for body in bodies:
        out.append(Plus(body))
        out.append(concat(Label("c"), Star(body), Label("a")))
    return out


def scc_partition(rtc) -> set:
    return {frozenset(members) for members in rtc.condensation.members.values()}


def same_closure(watcher, graph, body) -> bool:
    """Watcher state == Compute_RTC from scratch, up to SCC numbering."""
    snapshot = watcher.snapshot()
    scratch = compute_rtc(eval_rpq(graph, body))
    return (
        snapshot.expand() == scratch.expand()
        and scc_partition(snapshot) == scc_partition(scratch)
    )


def apply(db, operation) -> bool:
    """Apply one drawn operation; False when it is a no-op on this graph."""
    if operation[0] == "add":
        _kind, source, label, target = operation
        if db.graph.has_edge(source, label, target):
            return False
        db.update(add=[(source, label, target)])
        return True
    edges = sorted(db.graph.edges(), key=repr)
    if not edges:
        return False
    db.update(remove=[edges[operation[1] % len(edges)]])
    return True


@settings(max_examples=25, deadline=None)
@given(
    labeled_graphs(max_vertices=5, max_edges=10),
    st.lists(regexes(), min_size=1, max_size=2),
    operations,
)
def test_interleaved_updates_answer_like_a_fresh_session(graph, drawn, ops):
    bodies = [parse(text) for text in FIXED_BODIES] + drawn
    queries = queries_over(bodies)
    for engine, mode in CONFIGS:
        db = GraphDB.open(graph.copy(), engine=engine, cache_mode=mode)
        watchers = {body: db.watch(body) for body in bodies[::2]}
        db.execute_many(queries)  # warm: what follows must invalidate it
        for operation in ops:
            if not apply(db, operation):
                continue
            fresh = GraphDB.open(db.graph.copy(), engine="no")
            for query in queries:
                assert db.execute(query) == fresh.execute(query), (
                    engine,
                    mode,
                    query.to_string(),
                )
            for body, watcher in watchers.items():
                assert same_closure(watcher, db.graph, body), body.to_string()


@settings(max_examples=60, deadline=None)
@given(
    labeled_graphs(max_vertices=5, max_edges=10),
    regexes(),
    st.sampled_from(LABELS + ("z",)),
    st.integers(0, 4),
    st.integers(0, 4),
    st.sampled_from(CONFIGS),
)
def test_foreign_label_update_keeps_the_object(graph, body, label, source, target, config):
    assume(label not in set(iter_labels(body)))
    source %= graph.num_vertices
    target %= graph.num_vertices
    assume(not graph.has_edge(source, label, target))
    engine, mode = config
    db = GraphDB.open(graph, engine=engine, cache_mode=mode)
    shared_data = db.engine.rtc_for if engine == "rtc" else db.engine.closure_for
    cache = db.engine.rtc_cache if engine == "rtc" else db.engine.closure_cache
    entry = shared_data(body)
    watcher = db.watch(body)
    misses = cache.stats.misses

    db.update(add=[(source, label, target)])
    db.update(remove=[(source, label, target)])

    assert shared_data(body) is entry
    assert cache.stats.misses == misses
    assert (watcher.full_rebuilds, watcher.incremental_updates) == (0, 0)


@settings(max_examples=60, deadline=None)
@given(
    labeled_graphs(max_vertices=5, max_edges=10),
    regexes(),
    st.sampled_from(CONFIGS),
)
def test_new_vertex_under_a_foreign_label_drops_exactly_the_nullable(graph, body, config):
    engine, mode = config
    db = GraphDB.open(graph, engine=engine, cache_mode=mode)
    shared_data = db.engine.rtc_for if engine == "rtc" else db.engine.closure_for
    entry = shared_data(body)
    watcher = db.watch(body)

    db.update(add=[(0, "z", "new")])

    assert (shared_data(body) is entry) == (not is_nullable_ast(body))
    assert watcher.reaches("new", "new") == is_nullable_ast(body)
    assert watcher.full_rebuilds == 0
    assert db.execute(Plus(body)) == GraphDB.open(db.graph, engine="no").execute(Plus(body))
