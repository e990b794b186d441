"""Table III -- complexity of computing/storing ``R+_G`` vs the RTC.

Table III is analytic (O(|V_R| x |E_R|) vs O(|V̄_R| x |Ē_R|), space
O(|V_R|^2) vs O(|V̄_R|^2)); this benchmark measures the quantities the
bounds are built from along the degree sweep plus the *actual* wall-clock
of both closure computations on the same ``G_R``.

Shapes asserted: the work product |V̄_R| x |Ē_R| never exceeds
|V_R| x |E_R|, and the measured RTC computation is faster wherever the
degree is high.
"""

import time

from bench_common import MAX_N, SCALE, SEED, emit, record_rows
from repro.core.reduction import edge_level_reduce
from repro.core.rtc import compute_rtc
from repro.datasets.rmat import rmat_n
from repro.formatting import format_seconds, format_table
from repro.graph.transitive_closure import tc_bfs


def _collect():
    rows = []
    for n in range(0, MAX_N + 1):
        graph = rmat_n(n, scale=SCALE, seed=SEED + n)
        gr = edge_level_reduce(graph, "l0")
        started = time.perf_counter()
        full = tc_bfs(gr)
        full_time = time.perf_counter() - started
        started = time.perf_counter()
        rtc = compute_rtc(gr)
        rtc_time = time.perf_counter() - started
        rows.append(
            {
                "dataset": f"RMAT_{n}",
                "degree": graph.average_degree_per_label(),
                "vr": gr.num_vertices,
                "er": gr.num_edges,
                "vbar": rtc.num_sccs,
                "ebar": rtc.condensation.dag.num_edges,
                "full_pairs": len(full),
                "rtc_pairs": rtc.num_pairs,
                "full_time": full_time,
                "rtc_time": rtc_time,
            }
        )
    return rows


def test_table3_complexity_terms(benchmark):
    rows = benchmark.pedantic(_collect, rounds=1, iterations=1)
    record_rows("table3", rows)
    headers = [
        "dataset",
        "|V_R|x|E_R|",
        "|V̄_R|x|Ē_R|",
        "R+_G pairs",
        "RTC pairs",
        "t(R+_G)",
        "t(RTC)",
    ]
    body = [
        [
            row["dataset"],
            row["vr"] * row["er"],
            row["vbar"] * row["ebar"],
            row["full_pairs"],
            row["rtc_pairs"],
            format_seconds(row["full_time"]),
            format_seconds(row["rtc_time"]),
        ]
        for row in rows
    ]
    emit(
        "table3",
        "Table III (measured): closure complexity terms along the sweep\n"
        + format_table(headers, body),
    )

    for row in rows:
        assert row["vbar"] * row["ebar"] <= max(row["vr"] * row["er"], 1)
        assert row["rtc_pairs"] <= max(row["full_pairs"], 1)
    top = rows[-1]
    assert top["rtc_time"] < top["full_time"]
