"""The boundary join as pure functions: summaries -> closure -> answer.

Nothing here starts a cluster, a thread or a socket: a partition is
hand-built from edges and a ``vertex -> shard`` map, each shard is
summarised with :func:`repro.rpq.partial.summarise_shard`, and
:func:`repro.cluster.boundary.close` must reproduce the single-session
answer.  The named cases pin the path shapes the router has to get
right without a shard's help; the seeded differential covers the rest.
"""

import random

import pytest

from repro.cluster import boundary
from repro.cluster.partition import GraphPartition, partition_graph
from repro.db import GraphDB
from repro.graph.multigraph import LabeledMultigraph
from repro.regex.nfa import compile_nfa
from repro.regex.parser import parse
from repro.rpq import eval_rpq, summarise_shard


def hand_partition(edges, shard_of, num_shards=2):
    """Shard subgraphs + cut relation of ``edges`` under ``shard_of``."""
    shards = [LabeledMultigraph() for _ in range(num_shards)]
    for vertex, shard in shard_of.items():
        shards[shard].add_vertex(vertex)
    cuts = []
    for source, label, target in edges:
        if shard_of[source] == shard_of[target]:
            shards[shard_of[source]].add_edge(source, label, target)
        else:
            cuts.append((source, label, target))
    return GraphPartition(shards, shard_of, cuts)


def boundary_answer(partition, text):
    """The boundary join of ``text`` over ``partition``, router rules included.

    Mirrors ``GraphCluster._run_boundary_join``: only cut edges of the
    query alphabet are planned, and a shard sharing no label with a
    non-nullable query is not summarised at all.
    """
    nfa = compile_nfa(parse(text))
    cuts = [edge for edge in partition.cut_relation() if edge[1] in nfa.labels]
    join_plan = boundary.plan(nfa, cuts, partition.shard_of)
    summaries = {}
    for shard, graph in enumerate(partition.shards):
        if not nfa.nullable and nfa.labels.isdisjoint(graph.labels()):
            continue
        summaries[shard] = summarise_shard(
            graph,
            nfa,
            join_plan.boundary_of.get(shard, ()),
            join_plan.shard_entries(shard),
        )
    return boundary.close(join_plan, summaries)


def check(edges, shard_of, text, num_shards=2):
    whole = LabeledMultigraph.from_edges(edges)
    for vertex in shard_of:
        whole.add_vertex(vertex)
    got = boundary_answer(hand_partition(edges, shard_of, num_shards), text)
    expected = eval_rpq(whole, text)
    assert got.pairs == expected, text
    assert got.count() == len(expected), text
    return expected


class TestPathShapes:
    def test_cut_cut_chain(self):
        """``w`` is itself a cut source: 1 -> 2 -> 3 never runs a local edge."""
        edges = [(1, "a", 2), (2, "a", 3)]
        expected = check(edges, {1: 0, 2: 1, 3: 0}, "a.a")
        assert expected == {(1, 3)}
        check(edges, {1: 0, 2: 1, 3: 0}, "a+")

    def test_start_is_a_cut_source_without_local_out_edge(self):
        """Shard 0 holds no ``a`` edge at all, yet 1 starts a match."""
        edges = [(1, "a", 2), (2, "b", 3), (0, "c", 1)]
        expected = check(edges, {0: 0, 1: 0, 2: 1, 3: 1}, "a.b")
        assert expected == {(1, 3)}

    def test_entry_lands_in_an_accepting_state(self):
        """The cut edge is the last edge of the path."""
        edges = [(0, "a", 1), (1, "b", 2)]
        expected = check(edges, {0: 0, 1: 0, 2: 1}, "a.b")
        assert expected == {(0, 2)}

    def test_entry_on_a_shard_without_any_query_label(self):
        """Shard 1 only has ``z`` edges, so it is never summarised; the
        path passes through it on cut edges alone."""
        edges = [(0, "a", 1), (1, "a", 2), (1, "z", 5), (2, "a", 3)]
        shard_of = {0: 0, 1: 1, 5: 1, 2: 0, 3: 0}
        expected = check(edges, shard_of, "a+")
        assert (0, 3) in expected and (0, 1) in expected

    def test_cycle_crossing_the_cut_twice(self):
        edges = [(0, "a", 1), (1, "a", 2), (2, "a", 3), (3, "a", 0), (3, "b", 4)]
        shard_of = {0: 0, 1: 1, 2: 1, 3: 0, 4: 0}
        expected = check(edges, shard_of, "a+")
        assert {(v, v) for v in range(4)} <= expected
        check(edges, shard_of, "(a.a)+.b")

    @pytest.mark.parametrize("text", ["a*", "(a.b)*", "(a|b)*.c"])
    def test_nullable_and_star_queries(self, text):
        edges = [(0, "a", 1), (1, "b", 2), (2, "a", 3), (3, "b", 0), (3, "c", 4)]
        shard_of = {0: 0, 1: 1, 2: 0, 3: 1, 4: 0, 9: 1}  # 9 is isolated
        expected = check(edges, shard_of, text)
        if compile_nfa(parse(text)).nullable:
            assert (9, 9) in expected

    @pytest.mark.parametrize("text", ["a|b", "(a|b)+", "a.b|b.a", "(a+.b)+"])
    def test_unions(self, text):
        edges = [(0, "a", 1), (1, "b", 2), (2, "b", 0), (2, "a", 1), (1, "a", 3)]
        check(edges, {0: 0, 1: 1, 2: 2, 3: 0}, text, num_shards=3)

    def test_no_cut_edge_of_the_alphabet_is_a_plain_union(self):
        edges = [(0, "a", 1), (1, "z", 2), (2, "a", 3)]
        expected = check(edges, {0: 0, 1: 0, 2: 1, 3: 1}, "a+")
        assert expected == {(0, 1), (2, 3)}


class TestPlan:
    def test_entries_are_fixed_by_cuts_and_automaton_alone(self):
        nfa = compile_nfa(parse("a.b"))
        join_plan = boundary.plan(
            nfa, [(1, "a", 2), (3, "b", 4), (5, "z", 6)], {1: 0, 2: 1, 3: 1, 4: 0}.get
        )
        targets = {vertex for vertex, _state in join_plan.entries}
        assert targets == {2, 4}  # the ``z`` edge enters no state
        assert join_plan.boundary_of == {0: {1}, 1: {3}}
        for shard in (0, 1):
            owned = join_plan.shard_entries(shard)
            assert owned and all(
                join_plan.nfa.delta.get(state) is not None for _v, state in owned
            )
        # Only the start state steps over ``a``; every other exit is a dead end.
        assert [join_plan.hop(1, state) != 0 for state in nfa.start] == [True] * len(nfa.start)
        assert join_plan.hop(2, next(iter(nfa.start))) == 0


class TestShardSummary:
    def test_one_shard_without_boundary_is_a_full_evaluation(self):
        graph = LabeledMultigraph.from_edges(
            [(0, "a", 1), (1, "b", 2), (2, "a", 0), (2, "b", 3)]
        )
        for text in ["a", "(a)+", "(a.b)+", "(b)*"]:
            nfa = compile_nfa(parse(text))
            summary = summarise_shard(graph, nfa, frozenset())
            assert summary.exits == {}
            answer = boundary.close(
                boundary.plan(nfa, [], lambda _vertex: 0), {0: summary}
            )
            assert answer.pairs == eval_rpq(graph, text), text

    def test_exits_are_reported_only_on_the_boundary(self):
        graph = LabeledMultigraph.from_edges([(0, "a", 1), (1, "a", 2)])
        nfa = compile_nfa(parse("a+"))
        summary = summarise_shard(graph, nfa, {1})
        assert {vertex for vertex, _state in summary.exits} == {1}
        tag_of = {vertex: 1 << tag for tag, vertex in enumerate(summary.starts)}
        # Start 0 reaches 1 after one edge; start 1 sits on it already.
        touched = 0
        for tags in summary.exits.values():
            touched |= tags
        assert touched == tag_of[0] | tag_of[1]

    def test_entry_tags_follow_the_starts_and_unknown_vertices_reach_nothing(self):
        graph = LabeledMultigraph.from_edges([(0, "a", 1)])
        nfa = compile_nfa(parse("a+"))
        loop = next(state for state in nfa.start if nfa.delta[state].get("a"))
        accept = next(iter(nfa.accepts))
        summary = summarise_shard(
            graph,
            nfa,
            frozenset(),
            entries=[("elsewhere", loop), (0, loop), (1, accept)],
        )
        n_real = len(summary.starts)
        assert set(summary.ends) == {1}
        # Entry 1 accepts vertex 1 after one edge, entry 2 in zero steps;
        # entry 0 names a vertex this shard does not hold.
        assert summary.ends[1] >> n_real == 0b110


REGEXES = [
    "a", "a.b", "a+", "a*", "(a.b)*", "(a.b)+", "(a|b)*.c", "(a+.b)+",
    "a.(b|c)+", "(a|b)+", "c.(a.b)+.c", "(a|b|c)*",
]


class TestDifferential:
    def test_random_graphs_match_a_no_sharing_session(self):
        """30 graphs x 12 regexes x {2, 3} shards = 360 seeded cases, pairs
        and counts."""
        cases = 0
        for seed in range(30):
            rng = random.Random(seed)
            num_vertices = rng.randint(4, 14)
            graph = LabeledMultigraph()
            for vertex in range(num_vertices):
                graph.add_vertex(vertex)
            for _ in range(rng.randint(3, 3 * num_vertices)):
                graph.add_edge_if_absent(
                    rng.randrange(num_vertices),
                    rng.choice("abc"),
                    rng.randrange(num_vertices),
                )
            reference = GraphDB.open(graph.copy(), engine="no")
            for text in REGEXES:
                shards = rng.choice([2, 3])
                partition = partition_graph(graph.copy(), shards, strategy="edge-cut")
                got = boundary_answer(partition, text)
                expected = reference.execute(text)
                assert got.pairs == set(expected), (seed, text, shards)
                assert got.count() == len(expected), (seed, text, shards)
                cases += 1
        assert cases >= 300
