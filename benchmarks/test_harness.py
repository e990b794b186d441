"""Tests for the benchmark harness (measurement + equality gate)."""

import pytest

from bench_common import banner, format_ratio
from experiments import dataset_statistics, sharing_statistics
from harness import METHODS, run_rpq_set, run_workload
from repro.workloads.generator import generate_workload


class TestRunRpqSet:
    def test_measures_all_methods(self, fig1):
        measurement = run_rpq_set(fig1, ["d.(b.c)+.c", "a.(b.c)+"])
        assert set(measurement.per_method) == set(METHODS)
        for record in measurement.per_method.values():
            assert record.total_time > 0
            assert record.result_pairs >= 0

    def test_equality_gate_passes_on_consistent_engines(self, fig1):
        measurement = run_rpq_set(fig1, ["(b.c)+", "(b.c)*"])
        rtc = measurement.per_method["RTC"]
        full = measurement.per_method["Full"]
        assert rtc.result_pairs == full.result_pairs

    def test_shared_sizes(self, fig1):
        measurement = run_rpq_set(fig1, ["d.(b.c)+.c"])
        assert measurement.per_method["No"].shared_pairs == 0
        assert measurement.per_method["Full"].shared_pairs == 10
        assert measurement.per_method["RTC"].shared_pairs == 3

    def test_ratio_helper(self, fig1):
        measurement = run_rpq_set(fig1, ["d.(b.c)+.c"])
        assert measurement.ratio("Full") == pytest.approx(
            measurement.per_method["Full"].total_time
            / measurement.per_method["RTC"].total_time
        )

    def test_counters_collection(self, fig1):
        measurement = run_rpq_set(
            fig1, ["d.(b.c)+.c"], collect_counters=True
        )
        assert measurement.per_method["RTC"].counters
        assert measurement.per_method["Full"].counters

    def test_method_subset(self, fig1):
        measurement = run_rpq_set(fig1, ["(b.c)+"], methods=("RTC",))
        assert list(measurement.per_method) == ["RTC"]


class TestRunWorkload:
    def test_averaging(self, fig1):
        workload = generate_workload(fig1, num_sets=2, max_rpqs=2, seed=0)
        result = run_workload(fig1, [s.subset(2) for s in workload])
        assert result.num_sets == 2
        assert result.num_rpqs == 2
        for method in METHODS:
            assert result.mean_total[method] > 0

    def test_empty_workload_rejected(self, fig1):
        with pytest.raises(ValueError):
            run_workload(fig1, [])


class TestExperimentHelpers:
    def test_dataset_statistics(self, fig1):
        row = dataset_statistics(fig1, "fig1")
        assert row["num_vertices"] == 10
        assert row["num_edges"] == 16
        assert row["num_labels"] == 6
        assert row["degree"] == pytest.approx(16 / 60)

    def test_sharing_statistics(self, fig1):
        rows = sharing_statistics(fig1, "fig1", num_sets=2, seed=0)
        assert len(rows) == 2
        for row in rows:
            assert row["rtc_pairs"] <= row["full_pairs"] or row["full_pairs"] == 0
            assert row["condensed_vertices"] <= row["gr_vertices"]


class TestFormatting:
    def test_format_ratio(self):
        assert format_ratio(2.0) == "2.00x"
        assert format_ratio(float("inf")) == "inf"

    def test_banner(self):
        assert "Results" in banner("Results")
