"""Session-scoped fixtures shared by the benchmark modules.

The paper's figures reuse one expensive sweep (Experiment 1 feeds Figs.
10, 11, 12, 13); computing it once per pytest session keeps the benchmark
suite honest *and* fast.  Each figure's ``benchmark`` fixture then times a
representative unit of its own work, while the printed tables come from
the shared sweep.

Result tables and rows go to a pytest tmp dir, so running the suite
leaves the tracked files under ``benchmarks/results/`` alone; pass
``--record-results`` to regenerate them in place.
"""

from __future__ import annotations

import pytest

import bench_common
from bench_common import (
    ADVOGATO_FRACTION,
    MAX_N,
    NUM_RPQS,
    NUM_SETS,
    SCALE,
    SEED,
    SET_SIZES,
    real_fractions,
)
from repro.bench.experiments import (
    experiment1_real,
    experiment1_synthetic,
    experiment2,
)
from repro.datasets.rmat import rmat_n
from repro.datasets.standins import load_standin


def pytest_addoption(parser):
    parser.addoption(
        "--record-results",
        action="store_true",
        default=False,
        help="write result tables under benchmarks/results/ (default: a tmp dir)",
    )


@pytest.fixture(scope="session", autouse=True)
def results_dir(request, tmp_path_factory):
    """Where :func:`bench_common.emit` / ``record_rows`` write this session."""
    tracked = bench_common.RESULTS_DIR
    if not request.config.getoption("--record-results", default=False):
        bench_common.RESULTS_DIR = tmp_path_factory.mktemp("bench-results")
    yield bench_common.RESULTS_DIR
    bench_common.RESULTS_DIR = tracked


@pytest.fixture(scope="session")
def exp1_synthetic_rows():
    """Experiment 1 on the RMAT_N degree sweep (Figs. 10a/11a)."""
    return experiment1_synthetic(
        degree_exponents=range(0, MAX_N + 1),
        scale=SCALE,
        num_rpqs=NUM_RPQS,
        num_sets=NUM_SETS,
        seed=SEED,
    )


@pytest.fixture(scope="session")
def exp1_real_rows():
    """Experiment 1 on the Table-IV stand-ins (Figs. 10b/11b)."""
    return experiment1_real(
        num_rpqs=NUM_RPQS,
        num_sets=NUM_SETS,
        seed=SEED,
        fractions=real_fractions(),
    )


@pytest.fixture(scope="session")
def rmat3_graph():
    """RMAT_3 (degree 2) -- the paper's Experiment-2 synthetic dataset."""
    return rmat_n(3, scale=SCALE, seed=SEED + 3)


@pytest.fixture(scope="session")
def advogato_graph():
    """Advogato stand-in -- the paper's Experiment-2 real dataset."""
    return load_standin("advogato", seed=SEED, fraction=ADVOGATO_FRACTION)


@pytest.fixture(scope="session")
def exp2_synthetic_rows(rmat3_graph):
    """Experiment 2 sweep over #RPQs on RMAT_3 (Figs. 14a/15a)."""
    return experiment2(
        rmat3_graph,
        "RMAT_3",
        set_sizes=SET_SIZES,
        num_sets=NUM_SETS,
        seed=SEED,
    )


@pytest.fixture(scope="session")
def exp2_real_rows(advogato_graph):
    """Experiment 2 sweep over #RPQs on Advogato (Figs. 14b/15b)."""
    return experiment2(
        advogato_graph,
        "advogato",
        set_sizes=SET_SIZES,
        num_sets=NUM_SETS,
        seed=SEED,
    )
