"""Ablation -- how the method gap scales with graph size at fixed degree.

EXPERIMENTS.md notes that our measured ratios are compressed relative to
the paper because the default graphs are 16x smaller than the paper's
2^13 vertices.  This bench makes that claim measurable: RMAT_3 (degree 2)
at increasing scales, same workload recipe, No/Full/RTC response times.
Expected shape: the Full/RTC and No/RTC ratios grow (or at least do not
shrink) with scale -- extrapolating toward the paper's magnitudes.
"""

import statistics

from bench_common import NUM_RPQS, SEED, emit, format_ratio, record_rows
from harness import run_workload
from repro.datasets.rmat import rmat_n
from repro.formatting import format_seconds, format_table
from repro.workloads.generator import generate_workload

SCALES = (7, 8, 9)
_TOTALS = ("total_No", "total_Full", "total_RTC")

# One source of truth for the ratio gates: the de-flaking retry loop and
# the final assertions must agree, or the loop stops re-measuring on
# samples the assertions then fail.
NO_RTC_FLOOR = 1.5
FULL_RTC_FLOOR = 0.9
CROSS_SCALE_FACTOR = 0.5


def _collect():
    rows = []
    for scale in SCALES:
        graph = rmat_n(3, scale=scale, seed=SEED + scale)
        workload = generate_workload(
            graph, num_sets=3, max_rpqs=NUM_RPQS, seed=SEED
        )
        measurement = run_workload(
            graph, [rpq_set.subset(NUM_RPQS) for rpq_set in workload]
        )
        rows.append(
            {
                "scale": scale,
                "vertices": graph.num_vertices,
                "edges": graph.num_edges,
                "total_No": measurement.mean_total["No"],
                "total_Full": measurement.mean_total["Full"],
                "total_RTC": measurement.mean_total["RTC"],
            }
        )
    return rows


def _ratios_hold(rows) -> bool:
    """The sharing-advantage assertions, as a predicate (see below)."""
    for row in rows:
        rtc = max(row["total_RTC"], 1e-12)
        if (
            row["total_No"] / rtc <= NO_RTC_FLOOR
            or row["total_Full"] / rtc <= FULL_RTC_FLOOR
        ):
            return False
    first, last = rows[0], rows[-1]
    first_no = first["total_No"] / max(first["total_RTC"], 1e-12)
    last_no = last["total_No"] / max(last["total_RTC"], 1e-12)
    return last_no >= first_no * CROSS_SCALE_FACTOR


def _median_rows(samples):
    """Per-scale medians of the timing totals across repeated collects."""
    merged = []
    for index in range(len(samples[0])):
        entry = dict(samples[0][index])
        for key in _TOTALS:
            entry[key] = statistics.median(
                sample[index][key] for sample in samples
            )
        merged.append(entry)
    return merged


def test_gap_grows_with_scale(benchmark):
    rows = benchmark.pedantic(_collect, rounds=1, iterations=1)
    # Timing ratios flake under concurrent machine load: a single noisy
    # sample must not fail the tier-1 gate.  Only when the first sample
    # violates the ratios, re-measure and assert on per-scale medians of
    # three runs -- deterministic for real regressions, robust to one
    # scheduler hiccup.
    samples = [rows]
    while not _ratios_hold(_median_rows(samples)) and len(samples) < 3:
        samples.append(_collect())
    rows = _median_rows(samples)
    record_rows("ablation_scaling", rows)
    body = []
    for row in rows:
        rtc = row["total_RTC"] or 1e-12
        body.append(
            [
                f"2^{row['scale']}",
                row["vertices"],
                row["edges"],
                format_seconds(row["total_No"]),
                format_seconds(row["total_Full"]),
                format_seconds(row["total_RTC"]),
                format_ratio(row["total_Full"] / rtc),
                format_ratio(row["total_No"] / rtc),
            ]
        )
    emit(
        "ablation_scaling",
        "Ablation: method gap vs graph scale (RMAT_3, degree 2)\n"
        + format_table(
            ["scale", "|V|", "|E|", "No", "Full", "RTC", "Full/RTC", "No/RTC"],
            body,
        ),
    )
    # The sharing advantage holds at every scale and does not collapse
    # as graphs grow (workload draws make per-scale ratios noisy, so the
    # assertion is on the floor, not strict monotonicity; the cross-scale
    # tolerance is wide because the 2^7 baseline ratio itself carries
    # milliseconds-scale noise).
    for row in rows:
        rtc = max(row["total_RTC"], 1e-12)
        assert row["total_No"] / rtc > NO_RTC_FLOOR, row
        assert row["total_Full"] / rtc > FULL_RTC_FLOOR, row
    first, last = rows[0], rows[-1]
    first_no = first["total_No"] / max(first["total_RTC"], 1e-12)
    last_no = last["total_No"] / max(last["total_RTC"], 1e-12)
    assert last_no >= first_no * CROSS_SCALE_FACTOR
