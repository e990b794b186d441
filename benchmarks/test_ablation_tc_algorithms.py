"""Ablation -- transitive-closure algorithm choice on ``G_R``.

The paper builds on Purdom/Nuutila-style SCC closures [12], [13].  This
benchmark times all four implemented algorithms on the edge-level reduced
graph of a cyclic (high-degree) RMAT graph, where the SCC-based methods
shine, using pytest-benchmark's proper statistics (several rounds: these
units are small).
"""

import pytest

from bench_common import SCALE, SEED, emit
from repro.core.reduction import edge_level_reduce
from repro.datasets.rmat import rmat_n
from repro.formatting import format_table
from repro.graph.transitive_closure import tc_bfs, tc_nuutila, tc_purdom

ALGORITHMS = {
    "bfs (FullSharing)": tc_bfs,
    "purdom [12]": tc_purdom,
    "nuutila [13]": tc_nuutila,
}


@pytest.fixture(scope="module")
def reduced_graph():
    graph = rmat_n(4, scale=SCALE, seed=SEED + 4)  # degree 4: cyclic G_R
    return edge_level_reduce(graph, "l0")


@pytest.mark.parametrize("name", list(ALGORITHMS))
def test_tc_algorithm(benchmark, reduced_graph, name):
    algorithm = ALGORITHMS[name]
    result = benchmark.pedantic(
        lambda: algorithm(reduced_graph), rounds=3, iterations=1
    )
    # All algorithms agree; record size for the log.
    assert result == tc_bfs(reduced_graph)
    emit(
        f"ablation_tc_{name.split()[0]}",
        format_table(
            ["algorithm", "|V_R|", "|E_R|", "closure pairs"],
            [[name, reduced_graph.num_vertices, reduced_graph.num_edges, len(result)]],
        ),
    )
