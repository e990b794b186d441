"""Table IV -- statistics of every dataset used in the experiments.

Regenerates the table (|V|, |E|, |Sigma|, |E|/(|V||Sigma|)) for the four
real-dataset stand-ins and the RMAT_N sweep, asserting each stand-in
matches the published degree regime at its configured scale-down
fraction (1.0 = published size; see bench_common / DESIGN.md).
"""

import pytest

from bench_common import MAX_N, SCALE, SEED, real_fractions, emit, record_rows
from experiments import dataset_statistics
from repro.datasets.rmat import rmat_n
from repro.datasets.standins import TABLE4_SPECS, load_standin
from repro.formatting import format_table

PUBLISHED_DEGREES = {
    "yago2s": 0.02,
    "robots": 0.52,
    "advogato": 2.61,
    "youtube": 11.42,
}


def _collect():
    rows = []
    for name in ("yago2s", "robots", "advogato", "youtube"):
        fraction = real_fractions().get(name)
        kwargs = {"fraction": fraction} if fraction else {}
        graph = load_standin(name, seed=SEED, **kwargs)
        rows.append(dataset_statistics(graph, name))
    for n in range(0, MAX_N + 1):
        graph = rmat_n(n, scale=SCALE, seed=SEED + n)
        rows.append(dataset_statistics(graph, f"RMAT_{n}"))
    return rows


def test_table4_dataset_statistics(benchmark):
    rows = benchmark.pedantic(_collect, rounds=1, iterations=1)
    record_rows("table4", rows)
    headers = ["dataset", "|V|", "|E|", "|Σ|", "|E|/(|V||Σ|)"]
    body = [
        [
            row["dataset"],
            row["num_vertices"],
            row["num_edges"],
            row["num_labels"],
            f"{row['degree']:.2f}",
        ]
        for row in rows
    ]
    emit("table4", "Table IV: dataset statistics\n" + format_table(headers, body))

    by_name = {row["dataset"]: row for row in rows}
    # The degree regime -- the quantity the paper's analysis keys on --
    # must match the published Table IV at any scale-down fraction.
    for name, degree in PUBLISHED_DEGREES.items():
        assert by_name[name]["degree"] == pytest.approx(degree, rel=0.15), name
    # Sizes are the published ones scaled by the configured fractions.
    fractions = real_fractions()
    for name in ("robots", "advogato", "youtube"):
        spec = TABLE4_SPECS[name]
        fraction = fractions.get(name) or 1.0
        assert by_name[name]["num_vertices"] == max(2, round(spec.num_vertices * fraction))
        assert by_name[name]["num_edges"] == max(1, round(spec.num_edges * fraction))
    # The synthetic sweep covers the paper's degree range 2^-2 .. 2^4.
    degrees = [by_name[f"RMAT_{n}"]["degree"] for n in range(0, MAX_N + 1)]
    assert degrees[0] == pytest.approx(0.25)
    assert degrees[-1] == pytest.approx(2 ** (MAX_N - 2))
