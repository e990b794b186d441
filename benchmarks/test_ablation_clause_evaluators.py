"""Ablation -- closure-free clause evaluation: automaton vs label join.

``EvalRPQwithoutKC`` can run either the product-BFS automaton or the
rare-label-anchored join (Koschmieder-style [10]).  Both are timed on the
same closure-free label-sequence workload; results are asserted equal.
"""

import pytest

from bench_common import SCALE, SEED, emit
from repro.datasets.rmat import rmat_n
from repro.formatting import format_table
from repro.rpq.evaluate import eval_rpq
from repro.rpq.label_join import eval_label_sequence

SEQUENCES = [
    ["l0", "l1"],
    ["l1", "l2", "l3"],
    ["l0", "l0", "l1"],
]


@pytest.fixture(scope="module")
def graph():
    return rmat_n(3, scale=SCALE, seed=SEED + 3)


def _automaton(graph):
    return [eval_rpq(graph, ".".join(seq)) for seq in SEQUENCES]


def _label_join(graph, order):
    return [eval_label_sequence(graph, seq, order=order) for seq in SEQUENCES]


def test_automaton_evaluator(benchmark, graph):
    results = benchmark.pedantic(lambda: _automaton(graph), rounds=3, iterations=1)
    assert results == _label_join(graph, "rare-first")


@pytest.mark.parametrize("order", ["left-right", "rare-first"])
def test_label_join_evaluator(benchmark, graph, order):
    results = benchmark.pedantic(
        lambda: _label_join(graph, order), rounds=3, iterations=1
    )
    assert results == _automaton(graph)
    emit(
        f"ablation_clause_{order}",
        format_table(
            ["order", "sequences", "total pairs"],
            [[order, len(SEQUENCES), sum(len(r) for r in results)]],
        ),
    )
