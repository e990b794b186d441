"""Fig. 12 -- size of the shared data: ``|R+_G|`` vs ``|TC(Ḡ_R)|``.

The paper's space argument: as the degree grows, FullSharing's
materialised closure explodes (toward |V_R|^2) while the RTC stays small
because SCCs swallow the growth.  Shapes asserted:

* RTC pairs <= Full pairs everywhere;
* the Full/RTC size ratio at the top of the synthetic sweep exceeds the
  ratio at the bottom (paper: 2.61x -> 54.94x).
"""

from bench_common import NUM_SETS, SEED, real_fractions, emit, format_ratio, record_rows
from experiments import sharing_statistics
from repro.datasets.rmat import rmat_n
from repro.datasets.standins import load_standin
from repro.formatting import format_table
from bench_common import MAX_N, SCALE


def _collect_synthetic():
    rows = []
    for n in range(0, MAX_N + 1):
        graph = rmat_n(n, scale=SCALE, seed=SEED + n)
        rows.extend(
            sharing_statistics(graph, f"RMAT_{n}", num_sets=NUM_SETS, seed=SEED + n)
        )
    return rows


def _collect_real():
    rows = []
    for name in ("yago2s", "robots", "advogato", "youtube"):
        fraction = real_fractions().get(name)
        kwargs = {"fraction": fraction} if fraction else {}
        graph = load_standin(name, seed=SEED, **kwargs)
        rows.extend(sharing_statistics(graph, name, num_sets=NUM_SETS, seed=SEED))
    return rows


def _aggregate(rows):
    by_dataset: dict[str, dict] = {}
    for row in rows:
        entry = by_dataset.setdefault(
            row["dataset"],
            {"degree": row["degree"], "full": 0, "rtc": 0, "count": 0},
        )
        entry["full"] += row["full_pairs"]
        entry["rtc"] += row["rtc_pairs"]
        entry["count"] += 1
    return by_dataset


def _table(by_dataset, title):
    headers = ["dataset", "degree", "Full pairs", "RTC pairs", "Full/RTC"]
    body = []
    for name, entry in by_dataset.items():
        mean_full = entry["full"] / entry["count"]
        mean_rtc = entry["rtc"] / entry["count"]
        body.append(
            [
                name,
                f"{entry['degree']:.2f}",
                f"{mean_full:.1f}",
                f"{mean_rtc:.1f}",
                format_ratio(mean_full / mean_rtc if mean_rtc else 1.0),
            ]
        )
    return f"{title}\n" + format_table(headers, body)


def test_fig12a_synthetic_shared_size(benchmark):
    rows = benchmark.pedantic(_collect_synthetic, rounds=1, iterations=1)
    record_rows("fig12a", rows)
    by_dataset = _aggregate(rows)
    emit("fig12a", _table(by_dataset, "Fig. 12(a): shared data size (synthetic)"))

    for row in rows:
        assert row["rtc_pairs"] <= max(row["full_pairs"], 1)
    first = by_dataset[f"RMAT_0"]
    last = by_dataset[f"RMAT_{MAX_N}"]
    first_ratio = first["full"] / max(first["rtc"], 1)
    last_ratio = last["full"] / max(last["rtc"], 1)
    assert last_ratio > first_ratio


def test_fig12b_real_shared_size(benchmark):
    rows = benchmark.pedantic(_collect_real, rounds=1, iterations=1)
    record_rows("fig12b", rows)
    by_dataset = _aggregate(rows)
    emit("fig12b", _table(by_dataset, "Fig. 12(b): shared data size (real)"))

    # Paper: ratio ~1 on Yago2s, growing with degree on the others.
    yago = by_dataset["yago2s"]
    youtube = by_dataset["youtube"]
    yago_ratio = yago["full"] / max(yago["rtc"], 1)
    youtube_ratio = youtube["full"] / max(youtube["rtc"], 1)
    assert yago_ratio < 2.0
    assert youtube_ratio > yago_ratio
