"""Repeat the benchmark over seeds, report each metric's spread, record a baseline.

Run from the root of a checkout:

    python3 bench/baseline.py --runs 10             # print spreads
    python3 bench/baseline.py --runs 10 --write     # and BASELINE.json

Each run is ``bench/run.py`` on every workload of ``BENCHMARK.json`` for
its ``run_seconds``, in its own process, one after the other, with seeds
1..runs.  The spread of a metric is the distance between the first
and third quartile of its values (``statistics.quantiles(n=4)``) as a share
of their median; it should stay under a third of the metric's bound in
``BENCHMARK.json``.  ``--write`` adds one traced run per workload and
stores medians, quartiles, sample counts and the environment in
``bench/BASELINE.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy
import scipy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, check=True, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), lines[:-1]


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "n": len(values)}


def commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() or "unknown"


def environment() -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = next((line.split(":", 1)[1].strip() for line in open("/proc/cpuinfo")
                if line.startswith("model name")), platform.processor())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "num_threads_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"commit": commit(), "run_seconds": seconds, "environment": environment(),
              "workloads": {}}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        outputs = [run_once(workload, seed, seconds, 0) for seed in range(1, args.runs + 1)]
        runs = [result for result, _ in outputs]
        print("\n".join(outputs[0][1]))
        entry = {
            "why": next(w["why"] for w in spec["workloads"] if w["name"] == workload),
            "seeds": [1, args.runs],
            "ops_per_run": summary([r["attempted"] for r in runs]),
            "failed_ops": sum(r["failed"] for r in runs),
            "first_run_notes": outputs[0][1],
            "end_to_end": {},
        }
        ok &= all(r["correct"] for r in runs)
        print(f"{workload}: fail_ratio {entry['failed_ops']}/{sum(r['attempted'] for r in runs)}, "
              f"ops per run {[r['attempted'] for r in runs]}")
        for name, bound in bounds.items():
            stats = summary([r["metrics"][name]["value"] for r in runs])
            stats["unit"] = runs[0]["metrics"][name]["unit"]
            entry["end_to_end"][name] = stats
            steady = stats["spread"] < bound / 3
            ok &= steady
            print(f"  {name:14s} median {stats['median']:.6g} {stats['unit']}  "
                  f"spread {stats['spread']:.4f}  bound {bound}  {'ok' if steady else 'WIDE'}  "
                  f"{[round(r['metrics'][name]['value'], 4) for r in runs]}")
        if args.write:
            traced, lines = run_once(workload, 1, seconds, 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            entry["trace_notes"] = lines
        record["workloads"][workload] = entry
    if args.write:
        (HERE / "BASELINE.json").write_text(json.dumps(record, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
