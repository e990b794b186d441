"""Tests for the experiment drivers (tiny scales; correctness not speed)."""

import pytest

from experiments import (
    DEFAULT_FRACTIONS,
    experiment1_real,
    experiment1_synthetic,
    experiment2,
)
from repro.datasets.rmat import rmat_n


class TestExperiment1Synthetic:
    def test_row_schema(self):
        rows = experiment1_synthetic(
            degree_exponents=(0, 1), scale=6, num_rpqs=2, num_sets=1, seed=0
        )
        assert [row["dataset"] for row in rows] == ["RMAT_0", "RMAT_1"]
        for row in rows:
            for method in ("No", "Full", "RTC"):
                assert row[f"total_{method}"] > 0
                assert row[f"shared_data_{method}"] >= 0
                assert row[f"remainder_{method}"] >= 0
            assert row["num_rpqs"] == 2

    def test_degrees_match_exponents(self):
        rows = experiment1_synthetic(
            degree_exponents=(0, 2), scale=6, num_rpqs=1, num_sets=1, seed=0
        )
        assert rows[0]["degree"] == pytest.approx(0.25)
        assert rows[1]["degree"] == pytest.approx(1.0)


class TestExperiment1Real:
    def test_tiny_fractions(self):
        rows = experiment1_real(
            datasets=("robots", "youtube"),
            num_rpqs=1,
            num_sets=1,
            seed=0,
            fractions={"robots": 1 / 8, "youtube": 1 / 20},
        )
        by_name = {row["dataset"]: row for row in rows}
        assert by_name["robots"]["degree"] == pytest.approx(0.52, rel=0.2)
        assert by_name["youtube"]["degree"] == pytest.approx(11.42, rel=0.2)

    def test_default_fractions_exposed(self):
        assert DEFAULT_FRACTIONS["yago2s"] < 1 / 100
        assert 0 < DEFAULT_FRACTIONS["advogato"] <= 1


class TestExperiment2:
    def test_set_size_sweep(self):
        graph = rmat_n(1, scale=6, seed=1)
        rows = experiment2(
            graph, "tiny", set_sizes=(1, 2), num_sets=1, seed=0
        )
        assert [row["num_rpqs"] for row in rows] == [1, 2]
        # More RPQs means at least as much NoSharing work.
        assert rows[1]["total_No"] >= rows[0]["total_No"] * 0.5
        for row in rows:
            assert row["dataset"] == "tiny"
