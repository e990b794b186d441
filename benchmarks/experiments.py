"""Experiment drivers: one function per figure/table of the paper.

Each driver assembles the datasets and workloads of Section V, runs the
harness, and returns plain row dictionaries that the ``benchmarks/``
modules print and record.  Scale parameters default to Python-feasible
sizes with the paper's degree sweep preserved (DESIGN.md, substitutions);
everything is overridable for larger runs.

Figure map:

* Fig. 10(a) / 10(b): :func:`experiment1_synthetic` / :func:`experiment1_real`
  -- response time vs vertex degree, 3 methods;
* Fig. 11: the same drivers (phase columns are always measured);
* Fig. 12 / 13: :func:`sharing_statistics` -- shared-data size and vertex
  counts of ``G_R`` vs ``Ḡ_R``;
* Fig. 14 / 15: :func:`experiment2` -- sweep over the number of RPQs;
* Table IV: :func:`dataset_statistics`.
"""

from __future__ import annotations

from collections.abc import Sequence

from harness import METHODS, run_workload
from repro.core.stats import reduction_stats
from repro.datasets.rmat import rmat_n
from repro.datasets.standins import load_standin
from repro.graph.multigraph import LabeledMultigraph
from repro.workloads.generator import generate_workload

__all__ = [
    "experiment1_synthetic",
    "experiment1_real",
    "experiment2",
    "sharing_statistics",
    "dataset_statistics",
    "REAL_DATASETS",
    "DEFAULT_DEGREE_EXPONENTS",
]

#: The paper's synthetic sweep: degree = 2^(N-2) for RMAT_N, N = 0..6.
DEFAULT_DEGREE_EXPONENTS = (0, 1, 2, 3, 4, 5, 6)

#: Real-dataset stand-ins in the paper's degree order.
REAL_DATASETS = ("yago2s", "robots", "advogato", "youtube")


def _measure_on_graph(
    graph: LabeledMultigraph,
    num_rpqs: int,
    num_sets: int,
    seed: int,
    methods: Sequence[str],
) -> dict:
    workload = generate_workload(
        graph, num_sets=num_sets, max_rpqs=max(num_rpqs, 1), seed=seed
    )
    query_sets = [rpq_set.subset(num_rpqs) for rpq_set in workload]
    measurement = run_workload(graph, query_sets, methods=methods)
    row = {
        "degree": graph.average_degree_per_label(),
        "num_rpqs": num_rpqs,
        "num_sets": num_sets,
    }
    for method in methods:
        row[f"total_{method}"] = measurement.mean_total[method]
        row[f"shared_data_{method}"] = measurement.mean_shared_data[method]
        row[f"pre_join_{method}"] = measurement.mean_pre_join[method]
        row[f"remainder_{method}"] = measurement.mean_remainder[method]
        row[f"shared_pairs_{method}"] = measurement.mean_shared_pairs[method]
    return row


def experiment1_synthetic(
    degree_exponents: Sequence[int] = DEFAULT_DEGREE_EXPONENTS,
    scale: int = 10,
    num_rpqs: int = 4,
    num_sets: int = 3,
    seed: int = 0,
    methods: Sequence[str] = METHODS,
) -> list[dict]:
    """Fig. 10(a)/11(a): sweep RMAT_N over the paper's degree range.

    ``degree_exponents`` are the paper's N values (degree = 2^{N-2} with
    4 labels).  One row per N with per-method totals, phases and shared
    sizes.
    """
    rows = []
    for n in degree_exponents:
        graph = rmat_n(n, scale=scale, seed=seed + n)
        row = _measure_on_graph(graph, num_rpqs, num_sets, seed + n, methods)
        row["dataset"] = f"RMAT_{n}"
        row["n"] = n
        rows.append(row)
    return rows


#: Default scale-down fractions for the real stand-ins.  Yago2s is far
#: beyond pure-Python scale; Advogato/Youtube are shrunk only enough to
#: keep the benchmark suite's wall-clock reasonable.  All fractions
#: preserve |E|/(|V||Sigma|), the paper's x-axis variable.
DEFAULT_FRACTIONS = {"yago2s": 1 / 1000, "advogato": 1 / 8, "youtube": 1 / 4}


def experiment1_real(
    datasets: Sequence[str] = REAL_DATASETS,
    num_rpqs: int = 4,
    num_sets: int = 3,
    seed: int = 0,
    methods: Sequence[str] = METHODS,
    fractions: dict | None = None,
) -> list[dict]:
    """Fig. 10(b)/11(b): the four Table-IV stand-ins.

    ``fractions`` maps dataset name -> scale-down fraction (default
    :data:`DEFAULT_FRACTIONS`; pass ``{}`` for published sizes).
    """
    if fractions is None:
        fractions = DEFAULT_FRACTIONS
    rows = []
    for name in datasets:
        kwargs = (
            {"fraction": fractions[name]} if fractions.get(name) else {}
        )
        graph = load_standin(name, seed=seed, **kwargs)
        row = _measure_on_graph(graph, num_rpqs, num_sets, seed, methods)
        row["dataset"] = name
        rows.append(row)
    return rows


def experiment2(
    graph: LabeledMultigraph,
    dataset_name: str,
    set_sizes: Sequence[int] = (1, 2, 4, 6, 8, 10),
    num_sets: int = 3,
    seed: int = 0,
    methods: Sequence[str] = METHODS,
) -> list[dict]:
    """Fig. 14/15: vary the number of RPQs per set on one graph.

    The paper uses RMAT_3 and Advogato (median degrees); callers pass the
    graph so benches can choose scale.
    """
    workload = generate_workload(
        graph, num_sets=num_sets, max_rpqs=max(set_sizes), seed=seed
    )
    rows = []
    for size in set_sizes:
        query_sets = [rpq_set.subset(size) for rpq_set in workload]
        measurement = run_workload(graph, query_sets, methods=methods)
        row = {
            "dataset": dataset_name,
            "degree": graph.average_degree_per_label(),
            "num_rpqs": size,
            "num_sets": num_sets,
        }
        for method in methods:
            row[f"total_{method}"] = measurement.mean_total[method]
            row[f"shared_data_{method}"] = measurement.mean_shared_data[method]
            row[f"pre_join_{method}"] = measurement.mean_pre_join[method]
            row[f"remainder_{method}"] = measurement.mean_remainder[method]
        rows.append(row)
    return rows


def sharing_statistics(
    graph: LabeledMultigraph,
    dataset_name: str,
    num_sets: int = 3,
    seed: int = 0,
) -> list[dict]:
    """Fig. 12/13 inputs: reduction statistics per workload closure body.

    For each workload ``R``: ``|R+_G|`` vs ``|TC(Ḡ_R)|`` (Fig. 12) and
    ``|V_R|`` vs ``|V̄_R|`` (Fig. 13), plus the avg SCC size.
    """
    workload = generate_workload(graph, num_sets=num_sets, max_rpqs=1, seed=seed)
    rows = []
    for rpq_set in workload:
        stats = reduction_stats(graph, rpq_set.r)
        rows.append(
            {
                "dataset": dataset_name,
                "degree": graph.average_degree_per_label(),
                "r": rpq_set.r,
                "full_pairs": stats.full_closure_pairs,
                "rtc_pairs": stats.rtc_pairs,
                "gr_vertices": stats.num_gr_vertices,
                "condensed_vertices": stats.num_condensed_vertices,
                "avg_scc_size": stats.average_scc_size,
                "size_ratio": stats.shared_size_ratio,
                "vertex_ratio": stats.vertex_reduction_ratio,
            }
        )
    return rows


def dataset_statistics(graph: LabeledMultigraph, name: str) -> dict:
    """One Table-IV row: |V|, |E|, |Sigma| and the degree statistic."""
    return {
        "dataset": name,
        "num_vertices": graph.num_vertices,
        "num_edges": graph.num_edges,
        "num_labels": graph.num_labels,
        "degree": graph.average_degree_per_label(),
    }
