"""Ablation -- NFA vs DFA product traversal for RPQ evaluation.

The NoSharing baseline simulates an NFA (the paper's Fig. 3 / Example 2);
determinising first bounds the product frontier to one DFA state per
subset at the price of subset construction.  Both evaluators run the same
closure-heavy workload; results are asserted identical and the expanded
product-pair counts are recorded.
"""

import pytest

from bench_common import NUM_RPQS, SEED, emit, record_rows
from dfa_eval import eval_rpq_dfa
from repro.formatting import format_table
from repro.rpq.counters import OpCounters
from repro.rpq.evaluate import eval_rpq
from repro.workloads.generator import generate_workload


@pytest.fixture(scope="module")
def workload_queries(request):
    return None  # replaced below; kept for API symmetry


def _queries(graph):
    workload = generate_workload(graph, num_sets=1, max_rpqs=NUM_RPQS, seed=SEED)
    return workload[0].subset(NUM_RPQS)


def test_nfa_traversal(benchmark, rmat3_graph):
    queries = _queries(rmat3_graph)
    counters = OpCounters()
    results = benchmark.pedantic(
        lambda: [eval_rpq(rmat3_graph, q, counters=counters) for q in queries],
        rounds=1,
        iterations=1,
    )
    record_rows(
        "ablation_automata_nfa",
        [{"states_expanded": counters.states_expanded}],
    )
    assert results == [eval_rpq_dfa(rmat3_graph, q) for q in queries]


def test_dfa_traversal(benchmark, rmat3_graph):
    queries = _queries(rmat3_graph)
    nfa_counters = OpCounters()
    dfa_counters = OpCounters()
    for query in queries:
        eval_rpq(rmat3_graph, query, counters=nfa_counters)

    results = benchmark.pedantic(
        lambda: [
            eval_rpq_dfa(rmat3_graph, q, counters=dfa_counters) for q in queries
        ],
        rounds=1,
        iterations=1,
    )
    assert results == [eval_rpq(rmat3_graph, q) for q in queries]
    emit(
        "ablation_automata",
        "Ablation: automaton representation (product pairs expanded)\n"
        + format_table(
            ["automaton", "states expanded"],
            [
                ["NFA (paper baseline)", nfa_counters.states_expanded],
                ["DFA (determinised)", dfa_counters.states_expanded],
            ],
        ),
    )
    # Determinisation can only shrink the per-start frontier.
    assert dfa_counters.states_expanded <= nfa_counters.states_expanded
