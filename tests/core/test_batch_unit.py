"""Tests for EvalBatchUnit (Algorithm 2) and its optimisation toggles."""

import itertools

import pytest

from repro.bitset import PairBitmap
from repro.core.batch_unit import (
    BatchUnitOptions,
    apply_post,
    apply_post_bits,
    eval_batch_unit,
    join_pre_with_rtc,
    join_pre_with_rtc_bits,
)
from repro.core.rtc import compute_rtc
from repro.datasets.rmat import rmat_graph
from repro.rpq.counters import OpCounters
from repro.rpq.evaluate import eval_rpq
from repro.rpq.restricted import RestrictedEvaluator

ALL_OPTION_COMBOS = [
    BatchUnitOptions(
        eliminate_redundant1=r1, eliminate_redundant2=r2, eliminate_useless2=u2
    )
    for r1, r2, u2 in itertools.product([True, False], repeat=3)
]


@pytest.fixture
def bc_rtc(fig1):
    return compute_rtc(eval_rpq(fig1, "b.c"))


class TestJoinPreWithRtc:
    def test_paper_batch_unit(self, fig1, bc_rtc):
        pre = eval_rpq(fig1, "d")  # {(7, 4)}
        joined = join_pre_with_rtc(pre, bc_rtc)
        # (d.(b.c)+)_G = {(7, 2), (7, 4), (7, 6)}.
        assert joined == {(7, 2), (7, 4), (7, 6)}

    def test_pre_end_outside_vr_contributes_nothing(self, fig1, bc_rtc):
        joined = join_pre_with_rtc({(0, 8)}, bc_rtc)
        assert joined == set()

    def test_seed_for_star(self, fig1, bc_rtc):
        pre = {(7, 4), (0, 8)}
        joined = join_pre_with_rtc(pre, bc_rtc, seed=pre)
        assert (0, 8) in joined  # zero-iteration survives
        assert (7, 4) in joined
        assert (7, 2) in joined

    @pytest.mark.parametrize("options", ALL_OPTION_COMBOS)
    def test_options_never_change_results(self, fig1, bc_rtc, options):
        pre = eval_rpq(fig1, "d") | eval_rpq(fig1, "c")
        reference = join_pre_with_rtc(pre, bc_rtc)
        assert join_pre_with_rtc(pre, bc_rtc, options=options) == reference

    def test_redundant1_elimination_reduces_walks(self, fig1, bc_rtc):
        # Two Pre pairs with same start whose ends are in the same SCC.
        pre = {(100, 2), (100, 4)}  # 2 and 4 share an SCC
        optimised = OpCounters()
        naive = OpCounters()
        join_pre_with_rtc(pre, bc_rtc, counters=optimised)
        join_pre_with_rtc(
            pre,
            bc_rtc,
            options=BatchUnitOptions(eliminate_redundant1=False),
            counters=naive,
        )
        assert optimised.closure_walk_starts == 1
        assert naive.closure_walk_starts == 2
        fully_naive = OpCounters()
        join_pre_with_rtc(
            pre,
            bc_rtc,
            options=BatchUnitOptions(
                eliminate_redundant1=False, eliminate_redundant2=False
            ),
            counters=fully_naive,
        )
        assert fully_naive.cartesian_outputs > optimised.cartesian_outputs

    def test_redundant2_elimination(self, fig1):
        # Build an RTC where two different source SCCs reach one SCC.
        rtc = compute_rtc({(0, 2), (1, 2), (2, 2)})
        pre = {(100, 0), (100, 1)}
        optimised = OpCounters()
        naive = OpCounters()
        join_pre_with_rtc(pre, rtc, counters=optimised)
        join_pre_with_rtc(
            pre,
            rtc,
            options=BatchUnitOptions(eliminate_redundant2=False),
            counters=naive,
        )
        assert naive.cartesian_outputs > optimised.cartesian_outputs

    def test_useless2_off_counts_dup_checks(self, fig1, bc_rtc):
        pre = eval_rpq(fig1, "d")
        with_checks = OpCounters()
        without_checks = OpCounters()
        join_pre_with_rtc(
            pre,
            bc_rtc,
            options=BatchUnitOptions(eliminate_useless2=False),
            counters=with_checks,
        )
        join_pre_with_rtc(pre, bc_rtc, counters=without_checks)
        assert with_checks.dup_checks > without_checks.dup_checks


class TestApplyPost:
    def test_epsilon_post_is_identity(self, fig1):
        pairs = {(1, 2), (3, 4)}
        assert apply_post(fig1, pairs, None) == pairs
        assert apply_post(fig1, pairs, RestrictedEvaluator("()")) == pairs

    def test_post_join(self, fig1):
        # (d.(b.c)+)_G joined with c: Example 2's final result.
        pairs = {(7, 2), (7, 4), (7, 6)}
        post = RestrictedEvaluator("c")
        assert apply_post(fig1, pairs, post) == {(7, 5), (7, 3)}

    def test_post_memoisation_single_eval_per_vertex(self, fig1):
        counters = OpCounters()
        pairs = {(1, 2), (9, 2), (5, 2)}  # same middle vertex three times
        apply_post(fig1, pairs, RestrictedEvaluator("c"), counters)
        assert counters.traversal_starts == 1


class TestEvalBatchUnit:
    def test_plus_full_pipeline(self, fig1, bc_rtc):
        pre = eval_rpq(fig1, "d")
        result = eval_batch_unit(
            fig1, pre, bc_rtc, "+", RestrictedEvaluator("c")
        )
        assert result == eval_rpq(fig1, "d.(b.c)+.c") == {(7, 5), (7, 3)}

    def test_star_full_pipeline(self, fig1, bc_rtc):
        pre = eval_rpq(fig1, "d")
        result = eval_batch_unit(
            fig1, pre, bc_rtc, "*", RestrictedEvaluator("c")
        )
        assert result == eval_rpq(fig1, "d.(b.c)*.c")

    def test_invalid_type(self, fig1, bc_rtc):
        with pytest.raises(ValueError):
            eval_batch_unit(fig1, set(), bc_rtc, "?", None)

    @pytest.mark.parametrize("options", ALL_OPTION_COMBOS)
    def test_all_option_combos_agree(self, fig1, bc_rtc, options):
        pre = eval_rpq(fig1, "d") | eval_rpq(fig1, "a")
        reference = eval_batch_unit(
            fig1, pre, bc_rtc, "+", RestrictedEvaluator("c")
        )
        assert (
            eval_batch_unit(
                fig1, pre, bc_rtc, "+", RestrictedEvaluator("c"), options=options
            )
            == reference
        )


def identity_pairs(graph):
    return {(vertex, vertex) for vertex in graph.vertices()}


class TestBitsPipelineMatchesSetKernel:
    """The id-space Algorithm 2 against the counter-instrumented set one.

    ``Post`` is applied to whole closure rows on the bits path and per
    middle vertex on the set path; over random graphs every combination
    of Post shape, closure type and Pre must give the same relation.
    """

    POSTS = {
        "none": None,
        "epsilon": "()",
        "single-label": "l1",
        "label-sequence": "l1.l2.l0",
        "union": "l0.(l1|l2)",
        "nullable-union": "(l1|())",
    }

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("post_name", sorted(POSTS))
    @pytest.mark.parametrize("closure_type", ["+", "*"])
    @pytest.mark.parametrize("pre_query", [None, "l2", "l1.l0"])
    def test_random_graphs(self, seed, post_name, closure_type, pre_query):
        graph = rmat_graph(5, 110, 3, seed=seed)
        rtc_pairs = eval_rpq(
            graph, "l0.l1" if seed % 2 else "l0", counters=OpCounters()
        )
        if pre_query is None:
            pre = identity_pairs(graph)
        else:
            pre = eval_rpq(graph, pre_query, counters=OpCounters())
        post_text = self.POSTS[post_name]
        post = None if post_text is None else RestrictedEvaluator(post_text)
        seed_pairs = pre if closure_type == "*" else ()
        expected = apply_post(
            graph,
            join_pre_with_rtc(pre, compute_rtc(rtc_pairs), seed=seed_pairs),
            post,
        )

        # The engine's shapes: Pre_G a bitmap, the RTC built from bitmap rows.
        interner = graph.interner
        rtc = compute_rtc(PairBitmap.from_pairs(rtc_pairs, interner))
        pre_bitmap = PairBitmap.from_pairs(pre, interner)
        joined = join_pre_with_rtc_bits(pre_bitmap, rtc)
        star_seed = pre_bitmap if closure_type == "*" else None
        assert apply_post_bits(graph, joined, post, star_seed).to_pairs() == expected
        # ...and the public Algorithm-2 entry point, bits and counted.
        for counters in (None, OpCounters()):
            assert (
                eval_batch_unit(
                    graph, pre, rtc, closure_type, post, counters=counters
                )
                == expected
            )

    def test_epsilon_post_passes_the_bitmap_through(self, fig1, bc_rtc):
        joined = join_pre_with_rtc_bits(
            PairBitmap.from_pairs({(7, 4)}, fig1.interner), bc_rtc
        )
        assert apply_post_bits(fig1, joined, None) is joined
        assert apply_post_bits(fig1, joined, RestrictedEvaluator("()")) is joined
        assert joined.to_pairs() == {(7, 2), (7, 4), (7, 6)}

    def test_pre_end_outside_vr_and_star_seed(self, fig1, bc_rtc):
        pre = PairBitmap.from_pairs({(7, 4), (0, 8)}, fig1.interner)
        assert join_pre_with_rtc_bits(pre, bc_rtc).to_pairs() == {
            (7, 2), (7, 4), (7, 6)
        }
        joined = join_pre_with_rtc_bits(pre, bc_rtc)
        seeded = apply_post_bits(fig1, joined, None, seed=pre)
        assert seeded.to_pairs() == {(7, 2), (7, 4), (7, 6), (7, 4), (0, 8)}
        assert joined.to_pairs() == {(7, 2), (7, 4), (7, 6)}  # input not mutated

    def test_post_image_once_per_distinct_row(self, fig1, bc_rtc):
        # Starts 7 and 100 both end in the SCC {2, 4}: they join the same
        # closure row, so Post runs from that row once, not once per start
        # (and not once per (start, middle) pair as the old bits loop did).
        calls = []

        class CountingPost(RestrictedEvaluator):
            def ends_mask(self, graph, starts):
                calls.append(starts)
                return super().ends_mask(graph, starts)

        pre = PairBitmap.from_pairs({(7, 4), (100, 2), (100, 4)}, fig1.interner)
        joined = join_pre_with_rtc_bits(pre, bc_rtc)
        result = apply_post_bits(fig1, joined, CountingPost("c"))
        assert len(calls) == 1
        assert result.to_pairs() == {(7, 3), (7, 5), (100, 3), (100, 5)}
        # R*: the seed rows ({4} and {2, 4}) differ per start; they go
        # through Post on their own, so the shared closure row is still
        # imaged once instead of once per start.
        calls.clear()
        starred = apply_post_bits(fig1, joined, CountingPost("c"), seed=pre)
        assert len(calls) == 3
        assert starred.to_pairs() == apply_post(
            fig1,
            join_pre_with_rtc(set(pre), bc_rtc, seed=set(pre)),
            RestrictedEvaluator("c"),
        )
