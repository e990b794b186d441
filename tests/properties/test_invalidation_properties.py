"""Differential tests for the in-place RTC repair (`GraphDB.update`).

An update repairs the cached RTCs, and hence the watch handles, whose
body reads a label it carried -- or is nullable, when it created a
vertex -- and leaves every other entry alone.  Two halves:

* *answers*: under random mixed batches of insertions and removals (new
  vertices, nullable and nested bodies, an edge added and removed in one
  batch included) and after every batch, every query of every engine in
  every cache mode equals a fresh ``engine="no"`` session's answer, every
  cache entry equals ``rtc_for`` of a fresh session -- ``G_R``, SCC
  partition and closure -- and every watch handle equals ``compute_rtc``
  from scratch;
* *identity*: across an update that cannot touch a body, the cached
  shared data is the same object, no miss is recorded and the handle
  records no repair -- and across one that can, it moves.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from strategies import LABELS, labeled_graphs, regexes
from repro.bitset.interner import bit_indexes
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

#: One update batch: insertions (ids past the graph's create vertices),
#: then removals picked from the edges present -- this batch's included.
batches = st.lists(
    st.tuples(
        st.lists(
            st.tuples(st.integers(0, 10), st.sampled_from(LABELS), st.integers(0, 10)),
            max_size=3,
        ),
        st.lists(st.integers(0, 1000), max_size=3),
    ),
    min_size=1,
    max_size=5,
)


def queries_over(bodies) -> list:
    out = []
    for body in bodies:
        out.append(Plus(body))
        out.append(concat(Label("c"), Star(body), Label("a")))
    return out


def scc_partition(rtc) -> set:
    return {frozenset(members) for members in rtc.condensation.members.values()}


def closure_pairs(rtc) -> set:
    """``TC(Ḡ_R)`` with every SCC named by its members, not its id."""
    members = rtc.condensation.members
    return {(frozenset(members[s]), frozenset(members[t])) for s, t in rtc.pairs()}


def gr_pairs(rtc, graph) -> set:
    """The entry's ``G_R`` rows as vertex pairs."""
    vertex_of = graph.interner.vertex_of
    return {
        (vertex_of(source), vertex_of(target))
        for source, mask in rtc.gr_rows.items()
        for target in bit_indexes(mask)
    }


def same_rtc(mine, mine_graph, theirs, their_graph) -> bool:
    return (
        gr_pairs(mine, mine_graph) == gr_pairs(theirs, their_graph)
        and scc_partition(mine) == scc_partition(theirs)
        and closure_pairs(mine) == closure_pairs(theirs)
    )


def same_closure(watcher, graph, body) -> bool:
    """Handle state == Compute_RTC from scratch, up to SCC numbering."""
    snapshot = watcher.snapshot()
    scratch = compute_rtc(eval_rpq(graph, body))
    return (
        snapshot.expand() == scratch.expand()
        and scc_partition(snapshot) == scc_partition(scratch)
        and closure_pairs(snapshot) == closure_pairs(scratch)
    )


def batch_for(graph, batch) -> tuple[list, list]:
    """The drawn batch made valid for ``graph`` (possibly empty)."""
    drawn_adds, picks = batch
    add = []
    for edge in drawn_adds:
        if not graph.has_edge(*edge) and edge not in add:
            add.append(edge)
    pool = sorted({*graph.edges(), *add}, key=repr)
    remove = [pool.pop(pick % len(pool)) for pick in picks if pool]
    return add, remove


@settings(max_examples=30, deadline=None)
@given(
    labeled_graphs(max_vertices=5, max_edges=10),
    st.lists(regexes(), min_size=1, max_size=2),
    batches,
)
def test_mixed_batches_answer_like_a_fresh_session(graph, drawn, drawn_batches):
    bodies = [parse(text) for text in FIXED_BODIES] + drawn
    queries = queries_over(bodies)
    for engine, mode in CONFIGS:
        db = GraphDB.open(graph.copy(), engine=engine, cache_mode=mode)
        watchers = {body: db.watch(body) for body in bodies[::2]}
        db.execute_many(queries)  # warm: what follows must repair it
        for batch in drawn_batches:
            add, remove = batch_for(db.graph, batch)
            if not add and not remove:
                continue
            db.update(add=add, remove=remove)
            fresh = GraphDB.open(db.graph.copy(), engine="no")
            for query in queries:
                assert db.execute(query) == fresh.execute(query), (
                    engine,
                    mode,
                    query.to_string(),
                )
            rebuilt = GraphDB.open(db.graph.copy(), engine="rtc", cache_mode=mode)
            for key, rtc in db.rtc_cache.items():
                body = db.rtc_cache.body_of(key)
                expected = rebuilt.engine.rtc_for(body)
                assert same_rtc(rtc, db.graph, expected, rebuilt.graph), (
                    engine,
                    mode,
                    body.to_string(),
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
    assert not db.rtc_cache.stats.repairs


@settings(max_examples=60, deadline=None)
@given(
    labeled_graphs(max_vertices=5, max_edges=10),
    regexes(),
    st.sampled_from(CONFIGS),
)
def test_new_vertex_under_a_foreign_label_moves_exactly_the_nullable(graph, body, config):
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
