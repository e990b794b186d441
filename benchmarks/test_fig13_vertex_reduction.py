"""Fig. 13 -- vertex counts ``|V_R|`` (Full's graph) vs ``|V̄_R|`` (RTC's).

The mechanism behind Figs. 10-12: as the degree grows, more of ``G_R``
collapses into SCCs, so the condensation shrinks while ``G_R`` itself
keeps growing.  Shapes asserted:

* ``|V̄_R| <= |V_R|`` always;
* the reduction factor at the top of the sweep exceeds the bottom's;
* the Yago2s stand-in shows (almost) no reduction (avg SCC size ~1.00).
"""

from bench_common import MAX_N, NUM_SETS, SCALE, SEED, real_fractions, emit, record_rows
from bench_common import format_ratio
from experiments import sharing_statistics
from repro.datasets.rmat import rmat_n
from repro.datasets.standins import load_standin
from repro.formatting import format_table


def _aggregate(rows):
    by_dataset: dict[str, dict] = {}
    for row in rows:
        entry = by_dataset.setdefault(
            row["dataset"],
            {
                "degree": row["degree"],
                "gr": 0,
                "condensed": 0,
                "scc": 0.0,
                "count": 0,
            },
        )
        entry["gr"] += row["gr_vertices"]
        entry["condensed"] += row["condensed_vertices"]
        entry["scc"] += row["avg_scc_size"]
        entry["count"] += 1
    return by_dataset


def _table(by_dataset, title):
    headers = ["dataset", "degree", "|V_R|", "|V̄_R|", "|V_R|/|V̄_R|", "avg SCC"]
    body = []
    for name, entry in by_dataset.items():
        gr = entry["gr"] / entry["count"]
        condensed = entry["condensed"] / entry["count"]
        body.append(
            [
                name,
                f"{entry['degree']:.2f}",
                f"{gr:.1f}",
                f"{condensed:.1f}",
                format_ratio(gr / condensed if condensed else 1.0),
                f"{entry['scc'] / entry['count']:.2f}",
            ]
        )
    return f"{title}\n" + format_table(headers, body)


def test_fig13a_synthetic_vertex_counts(benchmark):
    def collect():
        rows = []
        for n in range(0, MAX_N + 1):
            graph = rmat_n(n, scale=SCALE, seed=SEED + n)
            rows.extend(
                sharing_statistics(
                    graph, f"RMAT_{n}", num_sets=NUM_SETS, seed=SEED + n
                )
            )
        return rows

    rows = benchmark.pedantic(collect, rounds=1, iterations=1)
    record_rows("fig13a", rows)
    by_dataset = _aggregate(rows)
    emit("fig13a", _table(by_dataset, "Fig. 13(a): vertex counts (synthetic)"))

    for row in rows:
        assert row["condensed_vertices"] <= row["gr_vertices"]
    first = by_dataset["RMAT_0"]
    last = by_dataset[f"RMAT_{MAX_N}"]
    first_factor = first["gr"] / max(first["condensed"], 1)
    last_factor = last["gr"] / max(last["condensed"], 1)
    assert last_factor > first_factor


def test_fig13b_real_vertex_counts(benchmark):
    def collect():
        rows = []
        for name in ("yago2s", "robots", "advogato", "youtube"):
            fraction = real_fractions().get(name)
            kwargs = {"fraction": fraction} if fraction else {}
            graph = load_standin(name, seed=SEED, **kwargs)
            rows.extend(
                sharing_statistics(graph, name, num_sets=NUM_SETS, seed=SEED)
            )
        return rows

    rows = benchmark.pedantic(collect, rounds=1, iterations=1)
    record_rows("fig13b", rows)
    by_dataset = _aggregate(rows)
    emit("fig13b", _table(by_dataset, "Fig. 13(b): vertex counts (real)"))

    yago = by_dataset["yago2s"]
    assert yago["scc"] / yago["count"] < 1.2  # paper: exactly 1.00
    youtube = by_dataset["youtube"]
    assert youtube["gr"] / max(youtube["condensed"], 1) > yago["gr"] / max(
        yago["condensed"], 1
    )
