"""Measure the baseline: run the benchmark on every workload with ten
seeds, one run after another, twice over (every workload once, then every
workload again), and write ``baseline.json``.  For each set, workload and
end-to-end metric it records the values, median, quartiles and spread (the
distance between the quartiles as a share of the median) and whether the
spread is within the metric's bound; for each workload and metric, how far
the second set's median moved from the first's in the worse direction and
whether that is within the bound.  One traced run per workload gives the
per-layer figures.

Run from the repository root (about 25 minutes)::

    python3 bench/baseline.py
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BASELINE_PATH = BENCH_DIR / "baseline.json"
SEEDS = range(1, 11)  # ten runs per workload and set; all pinned in pins.json
SETS = 2


def _run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=600,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: run failed the gate: {result}")
    return result


def summarize(values, bound):
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median
    return {
        "median": median, "q1": q1, "q3": q3, "spread": spread,
        "spread_within_bound": spread <= bound, "n": len(values), "values": values,
    }


def main():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = declared["run_seconds"]
    metrics = {m["name"]: m for m in declared["end_to_end"]}
    workloads = [w["name"] for w in declared["workloads"]]

    sets = []
    for number in range(1, SETS + 1):
        summaries = {}
        for workload in workloads:
            values: dict = {}
            for seed in SEEDS:
                for name, metric in _run(workload, seed, seconds, 0)["metrics"].items():
                    values.setdefault(name, []).append(metric["value"])
            summaries[workload] = {
                name: summarize(v, metrics[name]["bound"]) for name, v in values.items()
            }
            for name, summary in summaries[workload].items():
                print(f"set {number} {workload} {name}: median {summary['median']:.6g} "
                      f"spread {summary['spread']:.4f} "
                      f"(bound {metrics[name]['bound']})", flush=True)
        sets.append(summaries)

    baseline = {
        "host": f"{platform.machine()}, {os.cpu_count()} CPUs (shared), "
                f"{platform.python_implementation()} {platform.python_version()}",
        "run_seconds": seconds,
        "seeds": list(SEEDS),
        "workloads": {},
    }
    for workload in workloads:
        shift = {}
        for name, metric in metrics.items():
            first, second = (s[workload][name]["median"] for s in sets)
            worse = (second - first) / first
            if metric["better"] == "higher":
                worse = -worse
            shift[name] = {"worse_by": worse, "within_bound": worse <= metric["bound"]}
        traced = _run(workload, SEEDS[0], seconds, 1)["metrics"]
        baseline["workloads"][workload] = {
            "end_to_end": [s[workload] for s in sets],
            "second_set_median_shift": shift,
            "per_layer": {name: m["value"] for name, m in traced.items()},
        }
    with open(BASELINE_PATH, "w", encoding="utf-8") as handle:
        json.dump(baseline, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main()
