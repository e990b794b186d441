"""Shared configuration and result recording for the benchmark suite.

Scales default to Python-feasible sizes that preserve the paper's degree
sweep (see DESIGN.md).  Environment variables override them for larger
runs::

    REPRO_BENCH_SCALE=13 REPRO_BENCH_SETS=3 pytest benchmarks/ --benchmark-only

Every benchmark writes its printed table (and raw rows) under
``benchmarks/results/`` so EXPERIMENTS.md can quote the exact output of
the last run even when pytest captures stdout.
"""

from __future__ import annotations

import json
import os
import platform
from pathlib import Path

RESULTS_DIR = Path(__file__).resolve().parent / "results"


def environment_metadata() -> dict:
    """Host facts every ``BENCH_*.json`` records beside its measurements.

    ``cpu_count`` decides which gates are even meaningful (the process
    backend's GIL win needs more than one core); the rest says which
    interpreter and machine produced a given number.
    """
    return {
        "cpu_count": os.cpu_count() or 1,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "python_implementation": platform.python_implementation(),
    }

#: log2 of the RMAT vertex count (the paper uses 13; default 9 for Python).
SCALE = int(os.environ.get("REPRO_BENCH_SCALE", "9"))
#: multiple-RPQ sets averaged per configuration (the paper uses 90 R draws).
NUM_SETS = int(os.environ.get("REPRO_BENCH_SETS", "2"))
#: highest RMAT_N exponent (paper: 6, i.e. degree 2^4).
MAX_N = int(os.environ.get("REPRO_BENCH_MAX_N", "6"))
#: RPQs per set in Experiment 1 (paper: 4, the median set size).
NUM_RPQS = int(os.environ.get("REPRO_BENCH_RPQS", "4"))
#: scale-down fraction for the Yago2s stand-in (paper size / this).
YAGO_FRACTION = float(os.environ.get("REPRO_BENCH_YAGO_FRACTION", str(1 / 2000)))
#: scale-down fractions for the other real stand-ins (1.0 = published
#: size; a full-size Advogato set takes ~12 min/method in pure Python).
ADVOGATO_FRACTION = float(os.environ.get("REPRO_BENCH_ADVOGATO_FRACTION", str(1 / 8)))
YOUTUBE_FRACTION = float(os.environ.get("REPRO_BENCH_YOUTUBE_FRACTION", str(1 / 4)))
ROBOTS_FRACTION = float(os.environ.get("REPRO_BENCH_ROBOTS_FRACTION", "1.0"))


def real_fractions() -> dict:
    """The per-dataset scale-down mapping the benchmark suite uses."""
    return {
        "yago2s": YAGO_FRACTION,
        "advogato": ADVOGATO_FRACTION,
        "youtube": YOUTUBE_FRACTION,
        "robots": ROBOTS_FRACTION if ROBOTS_FRACTION != 1.0 else None,
    }
#: Experiment-2 set sizes (paper: 1,2,4,6,8,10).
SET_SIZES = tuple(
    int(s) for s in os.environ.get("REPRO_BENCH_SET_SIZES", "1,2,4,6,8,10").split(",")
)
#: base RNG seed for workloads and datasets.
SEED = int(os.environ.get("REPRO_BENCH_SEED", "0"))


def format_ratio(ratio: float) -> str:
    """A ratio like ``12.3x`` (``inf`` guarded)."""
    if ratio == float("inf"):
        return "inf"
    return f"{ratio:.2f}x"


def banner(title: str) -> str:
    """A section banner for benchmark stdout."""
    rule = "=" * max(8, len(title))
    return f"\n{rule}\n{title}\n{rule}"


def emit(name: str, text: str) -> None:
    """Print a result table and persist it under benchmarks/results/."""
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")


def record_rows(name: str, rows) -> None:
    """Persist raw row dictionaries as JSON for post-processing."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.json").write_text(
        json.dumps(rows, indent=2, default=str), encoding="utf-8"
    )
