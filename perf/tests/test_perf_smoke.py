"""Smoke test of the benchmark itself (``--smoke`` sizes, results in tmp_path).

Guards the contract between ``BENCHMARK.json`` and what ``perf/run.py``
prints: every named metric is emitted with its unit, inputs follow the
seed, exact counts repeat, and a wrong answer is counted as a failure.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((PERF.parent / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]
#: Probe counts the ledger promises to repeat bit for bit for a seed.
EXACT = (
    "core.rtc_pairs",
    "core.reduced_vertex_ratio",
    "bitset.result_pairs",
    "server.response_bytes_packed",
    "cluster.cut_edges",
)


def run_smoke(workload: str, seed: int, trace: int, out: Path) -> tuple[dict, dict]:
    """One ``--smoke`` run -> (last-line result, full result document)."""
    done = subprocess.run(
        [
            sys.executable, str(PERF / "run.py"), "--workload", workload, "--smoke",
            "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--out", str(out),
        ],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    document = json.loads((out / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, document


@pytest.fixture(scope="module")
def traced(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("traced")
    return {workload: run_smoke(workload, 1, 1, out) for workload in WORKLOADS}


def check_metrics(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {metric["name"] for metric in declared}
    for metric in declared:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", metric["name"])
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_emitted(workload, traced, tmp_path):
    check_metrics(traced[workload][0], BENCHMARK["per_layer"])
    result, document = run_smoke(workload, 1, 0, tmp_path)
    check_metrics(result, BENCHMARK["end_to_end"])
    assert all(entry["value"] > 0 for entry in result["metrics"].values())
    # Same seed, same inputs; another seed, other inputs.
    assert document["input_digest"] == traced[workload][1]["input_digest"]
    assert set(document["provenance"]) >= {"nproc", "python", "git_commit", "seed", "PYTHONHASHSEED"}


def test_exact_counts_repeat_and_inputs_follow_the_seed(traced, tmp_path):
    again, document = run_smoke("cluster_cut", 1, 1, tmp_path)
    first = traced["cluster_cut"][0]
    for name in EXACT:
        assert again["metrics"][name]["value"] == first["metrics"][name]["value"], name
    _result, other_seed = run_smoke("cluster_cut", 2, 0, tmp_path)
    assert other_seed["input_digest"] != document["input_digest"]


def test_latency_ledger_closes(traced):
    for workload in ("serve_pairs", "serve_mixed"):
        ledger = traced[workload][1]["ledger"]
        total = sum(ledger["parts_ms"].values()) + ledger["unattributed_ms"]
        assert total == pytest.approx(ledger["client_mean_ms"])
        assert ledger["closed"], ledger


def test_a_wrong_expected_count_is_counted_as_failed():
    """Corrupt one oracle count: the gate must report it, not pass."""
    script = (
        "import sys, tempfile, pathlib\n"
        f"sys.path[:0] = [{str(PERF)!r}, {str(PERF.parent / 'src')!r}]\n"
        "from inputs import make_inputs\n"
        "from workloads import WORKLOADS, oracle_answers, spec_for\n"
        "spec = spec_for('batch_sets', smoke=True)\n"
        "inputs = make_inputs(spec, 1)\n"
        "workload = WORKLOADS['batch_sets'](spec, inputs, pathlib.Path(tempfile.gettempdir()))\n"
        "expected, _ = oracle_answers(inputs.edges, workload.distinct_queries)\n"
        "workload.set_up()\n"
        "assert workload.verify(expected) == 0 and workload.run_pass().failed == 0\n"
        "query = inputs.sets[0][0]\n"
        "expected[query] = (expected[query][0] + 1, expected[query][1])\n"
        "assert workload.verify(expected) >= 1 and workload.run_pass().failed >= 1\n"
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
