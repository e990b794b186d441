"""The repo benchmark: one workload per interpreter, metrics on the last line.

    python3 perf/run.py --workload serve_mixed --seed 7 --seconds 12 --trace 0

runs one workload and prints, as the last line of stdout, one JSON object
``{"correct", "attempted", "failed", "metrics"}`` -- the end-to-end
metrics with ``--trace 0``, the per-layer ledger with ``--trace 1``.
Without ``--workload`` every workload runs in turn, each in a fresh
interpreter, and the last line maps workload name to that object.

See ``README.md`` in this directory for what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_OUT = HERE / "out"  # ignored by git, so a run leaves `git status` unchanged

#: A pass is the unit of repetition; fewer than this and a quartile means nothing.
MIN_PASSES = 5


def pin_interpreter() -> None:
    """One core, one hash seed: what makes two runs of one seed comparable.

    Every workload lives in one process under one GIL, so a second core
    buys no throughput (measured: the best pass is the same either way)
    but lets the OS bounce the running thread between cores, which
    moved same-seed throughput by +-17 % between runs.  ``PYTHONHASHSEED=0``
    (by re-exec) makes set iteration orders repeat.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def provenance(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "pinned_to_cpus": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "seed": seed,
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
    }


def measure_passes(workload, seconds: float, min_passes: int, traced: bool) -> tuple[list, list]:
    """Replay the op script until ``seconds`` of measuring are used up.

    Returns ``(untraced, traced)`` pass results.  A traced run alternates
    the two so both see the same machine; the gap between their
    throughputs is what tracing costs.
    """
    plain, with_trace = [], []
    spent = 0.0
    while spent < seconds or len(plain) < min_passes or (traced and len(with_trace) < min_passes):
        trace_this = traced and len(with_trace) < len(plain)
        gc.collect()
        outcome = workload.run_pass(traced=trace_this)
        (with_trace if trace_this else plain).append(outcome)
        spent += outcome.elapsed
    return plain, with_trace


def run_workload(
    name: str, seed: int, seconds: float, traced: bool, smoke: bool, out_dir: Path
) -> dict:
    from inputs import make_inputs
    from measure import percentile, summarise
    from workloads import WORKLOADS, oracle_answers, spec_for

    spec = spec_for(name, smoke)
    inputs = make_inputs(spec, seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    work_dir = out_dir / f"work-{os.getpid()}"
    work_dir.mkdir()
    workload = WORKLOADS[name](spec, inputs, work_dir)
    try:
        expected, oracle_seconds = oracle_answers(inputs.edges, workload.distinct_queries)
        setups = []
        for repeat in range(spec["setup_repeats"]):
            if repeat:
                workload.tear_down()
            gc.collect()
            started = time.perf_counter()
            workload.set_up()
            setups.append(time.perf_counter() - started)
        attempted = len(expected)
        failed = workload.verify(expected)
        warm_up = workload.run_pass()
        before = workload.counters()
        plain, with_trace = measure_passes(
            workload, seconds, 2 if smoke else MIN_PASSES, traced
        )
        after = workload.counters()
        if inputs.toggle_edges:
            attempted += len(expected)
            failed += workload.final_check()
        for outcome in [warm_up, *plain, *with_trace]:
            attempted += outcome.attempted
            failed += outcome.failed

        series = {
            "setup_s": ("s", setups),
            "throughput_qps": ("1/s", [p.attempted / p.elapsed for p in plain]),
            "latency_p50_ms": ("ms", [percentile(p.reads, 0.50) * 1e3 for p in plain]),
            "latency_p90_ms": ("ms", [percentile(p.reads, 0.90) * 1e3 for p in plain]),
        }
        end_to_end = {
            key: summarise(unit, values, higher_is_better=key == "throughput_qps")
            for key, (unit, values) in series.items()
        }
        end_to_end["throughput_qps"]["samples"] = sum(p.attempted for p in plain)
        for key in ("latency_p50_ms", "latency_p90_ms"):
            end_to_end[key]["samples"] = sum(len(p.reads) for p in plain)
        end_to_end["peak_rss_mb"] = {
            "unit": "MB",
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        document = {
            "workload": name,
            "provenance": provenance(seed),
            "input_digest": inputs.digest(),
            "spec": spec,
            "passes": len(plain),
            "traced_passes": len(with_trace),
            "ops_attempted": attempted,
            "ops_failed": failed,
            "end_to_end": end_to_end,
        }
        if traced:
            from layers import layer_ledger

            document["per_layer"], document["ledger"] = layer_ledger(
                workload, inputs, plain, with_trace, before, after, oracle_seconds
            )
    finally:
        workload.tear_down()
        shutil.rmtree(work_dir, ignore_errors=True)
    return document


def report(document: dict, traced: bool) -> dict:
    """Print the human-readable block; return the contract's result object."""
    print(f"== {document['workload']} ==")
    for key, value in document["provenance"].items():
        print(f"  {key}: {value}")
    print(f"  input_digest: {document['input_digest']}")
    print(
        f"  passes: {document['passes']} untraced + {document['traced_passes']} traced;"
        f" ops_attempted: {document['ops_attempted']}; ops_failed: {document['ops_failed']}"
    )
    for name, entry in document["end_to_end"].items():
        line = f"  {name} = {entry['value']:.6g} {entry['unit']}"
        if "per_pass" in entry:
            line += (
                f"  (passes n={len(entry['per_pass'])}, quartiles "
                f"{entry['q1']:.6g}/{entry['median']:.6g}/{entry['q3']:.6g}"
                + (f", samples={entry['samples']}" if "samples" in entry else "")
                + ")"
            )
            line += "\n      per pass: " + " ".join(f"{v:.5g}" for v in entry["per_pass"])
        print(line)
    shown = document["per_layer" if traced else "end_to_end"]
    if traced:
        for name, entry in shown.items():
            note = f"  (n={entry['samples']})" if "samples" in entry else ""
            print(f"  {name} = {entry['value']:.6g} {entry['unit']}{note}")
        ledger = document["ledger"]
        if ledger["parts_ms"]:
            print(
                "  LEDGER " + " + ".join(f"{k} {v:.3f}" for k, v in ledger["parts_ms"].items())
                + f" + unattributed {ledger['unattributed_ms']:.3f}"
                + f" = client mean {ledger['client_mean_ms']:.3f} ms; closed: {ledger['closed']}"
            )
    return {
        "correct": document["ops_failed"] == 0,
        "attempted": document["ops_attempted"],
        "failed": document["ops_failed"],
        "metrics": {
            name: {"value": entry["value"], "unit": entry["unit"]}
            for name, entry in shown.items()
        },
    }


def run_all(arguments) -> int:
    """Every workload in turn, each in a fresh interpreter."""
    from workloads import SPECS

    results = {}
    for name in SPECS:
        command = [
            sys.executable, str(HERE / "run.py"), "--workload", name,
            "--seed", str(arguments.seed), "--seconds", str(arguments.seconds),
            "--trace", str(arguments.trace), "--out", str(arguments.out),
        ] + (["--smoke"] if arguments.smoke else [])
        done = subprocess.run(command, capture_output=True, text=True)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return done.returncode
        results[name] = json.loads(done.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0 if all(result["correct"] for result in results.values()) else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all, one interpreter each)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, two passes (tests)")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT, help="where result files go")
    arguments = parser.parse_args()

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perf/run.py: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    pin_interpreter()
    sys.path.insert(0, str(ROOT / "src"))
    if arguments.workload is None:
        return run_all(arguments)

    from workloads import SPECS

    if arguments.workload not in SPECS:
        parser.error(f"unknown workload {arguments.workload!r}; choose from {', '.join(SPECS)}")
    document = run_workload(
        arguments.workload, arguments.seed, arguments.seconds, bool(arguments.trace),
        arguments.smoke, arguments.out,
    )
    result = report(document, bool(arguments.trace))
    target = arguments.out / f"{arguments.workload}-seed{arguments.seed}-trace{arguments.trace}.json"
    target.write_text(json.dumps(document, indent=1, default=str) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
