"""Fig. 11 -- three-part computation-time split of Full vs RTC.

The paper divides response time into ``Shared_Data`` (building the shared
closure structure), ``PreG ⋈ R+G`` (the closure join) and ``Remainder``
(identical work in both methods: ``Pre_G``, ``R_G``, the Post join).

Shapes asserted:

* RTC's Shared_Data is cheaper than Full's wherever the degree is >= 1
  (paper: 7.78x - 9013x);
* the Shared_Data advantage grows along the synthetic degree sweep.
"""

import time

from bench_common import SCALE, SEED, emit, record_rows
from repro.bench.formatting import format_ratio, format_seconds, format_table
from repro.bitset.kernel import label_rows_bitmap
from repro.core.batch_unit import join_pre_with_rtc, join_pre_with_rtc_bits
from repro.core.engines import FullSharingEngine, RTCSharingEngine, evaluate_plan
from repro.core.plan import plan_for
from repro.core.rtc import compute_rtc
from repro.core.timing import PHASE_SHARED_DATA
from repro.datasets.rmat import rmat_n


def _phase_table(rows, title):
    headers = [
        "dataset",
        "degree",
        "Shared_Data Full",
        "Shared_Data RTC",
        "PreG⋈R+G Full",
        "PreG⋈R+G RTC",
        "Remainder Full",
        "Remainder RTC",
    ]
    body = []
    for row in rows:
        body.append(
            [
                row["dataset"],
                f"{row['degree']:.2f}",
                format_seconds(row["shared_data_Full"]),
                format_seconds(row["shared_data_RTC"]),
                format_seconds(row["pre_join_Full"]),
                format_seconds(row["pre_join_RTC"]),
                format_seconds(row["remainder_Full"]),
                format_seconds(row["remainder_RTC"]),
            ]
        )
    return f"{title}\n" + format_table(headers, body)


def test_fig11a_synthetic_phases(benchmark, exp1_synthetic_rows, rmat3_graph):
    rows = exp1_synthetic_rows
    record_rows("fig11a", rows)
    emit("fig11a", _phase_table(rows, "Fig. 11(a): phase split (synthetic)"))

    # Benchmark one Shared_Data computation on the median graph: the
    # quantity this figure is about.
    def shared_data_once():
        engine = RTCSharingEngine(rmat3_graph)
        _pairs, _elapsed, phases = evaluate_plan(engine, plan_for("l0.(l1)+.l2"))
        return phases[PHASE_SHARED_DATA]

    benchmark.pedantic(shared_data_once, rounds=1, iterations=1)

    top = rows[-1]
    assert top["shared_data_RTC"] < top["shared_data_Full"]
    low = rows[0]
    low_ratio = low["shared_data_Full"] / max(low["shared_data_RTC"], 1e-12)
    top_ratio = top["shared_data_Full"] / max(top["shared_data_RTC"], 1e-12)
    assert top_ratio > low_ratio


def test_fig11b_real_phases(benchmark, exp1_real_rows, advogato_graph):
    rows = exp1_real_rows
    record_rows("fig11b", rows)
    emit("fig11b", _phase_table(rows, "Fig. 11(b): phase split (real stand-ins)"))

    def full_shared_data_once():
        engine = FullSharingEngine(advogato_graph)
        _pairs, _elapsed, phases = evaluate_plan(engine, plan_for("l0.(l1)+.l2"))
        return phases[PHASE_SHARED_DATA]

    benchmark.pedantic(full_shared_data_once, rounds=1, iterations=1)

    by_name = {row["dataset"]: row for row in rows}
    # Dense real datasets: RTC computes the shared data faster.
    for name in ("advogato", "youtube"):
        assert by_name[name]["shared_data_RTC"] < by_name[name]["shared_data_Full"]


def test_fig11c_closure_join_kernel(benchmark):
    """PR-10 before/after on the ``PreG ⋈ R+G`` phase in isolation.

    Times the set closure join against the bitmap row-OR join on the
    top-degree synthetic graph, with ``Pre_G = l1``-edges and the RTC of
    the ``l0``-subgraph -- the exact shapes the RTC engine feeds the
    phase.  Identity is asserted; the timing rows are recorded as the
    fig11 kernel cell (the response-time gate itself lives in fig10c).
    """
    graph = rmat_n(6, scale=SCALE, seed=SEED + 6)
    rtc = compute_rtc(graph.edges_with_label("l0"))
    pre_pairs = set(graph.edges_with_label("l1"))
    # Each kernel gets Pre_G in its native form, as the engine hands it over.
    pre_bitmap = label_rows_bitmap(graph, "l1")

    def best_of(measure, repeats=3):
        best, value = float("inf"), None
        for _ in range(repeats):
            started = time.perf_counter()
            value = measure()
            best = min(best, time.perf_counter() - started)
        return best, value

    sets_seconds, sets_joined = best_of(
        lambda: join_pre_with_rtc(pre_pairs, rtc)
    )
    bits_seconds, bits_joined = best_of(
        lambda: join_pre_with_rtc_bits(pre_bitmap, rtc)
    )
    assert bits_joined.pairs == sets_joined

    row = {
        "dataset": "RMAT_6",
        "phase": "pre_join",
        "pairs": len(sets_joined),
        "sets_seconds": sets_seconds,
        "bits_seconds": bits_seconds,
        "speedup": sets_seconds / max(bits_seconds, 1e-12),
    }
    record_rows("fig11c_kernel", [row])
    emit(
        "fig11c_kernel",
        "Fig. 11(c): PreG ⋈ R+G before/after (set join vs bitmap join)\n"
        + format_table(
            ["dataset", "pairs", "sets", "bits", "speedup"],
            [[
                row["dataset"],
                str(row["pairs"]),
                format_seconds(row["sets_seconds"]),
                format_seconds(row["bits_seconds"]),
                format_ratio(row["speedup"]),
            ]],
        ),
    )
    benchmark.pedantic(
        lambda: join_pre_with_rtc_bits(pre_bitmap, rtc),
        rounds=1,
        iterations=1,
    )
