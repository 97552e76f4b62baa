"""Run every workload in BENCHMARK.json, print every metric with its unit, and optionally record the results.

    python3 perfbench/run_all.py                       # seed 0, one untraced + one traced run each
    python3 perfbench/run_all.py --seeds 0-9           # ten seeds: medians and quartile spreads
    python3 perfbench/run_all.py --seeds 0-9 --record "seed commit a5dcc86"

Each run is ``run.py`` in a fresh interpreter for BENCHMARK.json's
``run_seconds``, one after another, so a workload's peak RSS is its own.  For every end-to-end metric the summary
gives the median over seeds and the spread: the distance between the first
and third quartiles (``statistics.quantiles(values, n=4)``) as a share of
the median.  One traced run per workload, at the first seed, gives the
per-layer metrics.  ``--record LABEL`` appends the summary, the per-run
values and the traced run to the trajectory in ``baseline.json`` and
refreshes its machine block.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BASELINE = HERE / "baseline.json"
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(part) for part in text.split(",")]


def machine() -> dict:
    """The machine as found: nothing here is set, only read."""
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        build = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: build.get(key) for key in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "thread_variables": {name: os.environ.get(name) for name in THREAD_VARIABLES},
    }


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    if not lines:
        raise SystemExit(f"{workload} seed {seed}: no output (exit {proc.returncode})")
    result = json.loads(lines[-1])
    result["printed"] = {}
    for line in lines[:-1]:
        if line.startswith("metric "):
            _, name, value, unit = line.split("#")[0].split()[:4]
            result["printed"][name] = {"value": float(value), "unit": unit}
    return result


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    if median == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / median


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", type=parse_seeds, default=[0], help="e.g. 0-9 or 1,4,7")
    p.add_argument("--record", metavar="LABEL", help="append the results to baseline.json under LABEL")
    args = p.parse_args()

    seconds = SPEC["run_seconds"]
    entry = {"label": args.record, "seeds": args.seeds, "seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in SPEC["workloads"]):
        runs = []
        for seed in args.seeds:
            result = run_once(workload, seed, seconds, 0)
            runs.append(result)
            values = " ".join(f"{k}={v['value']:.6g}" for k, v in result["printed"].items())
            print(f"{workload} seed {seed}: correct={result['correct']} {values}", flush=True)
        traced = run_once(workload, args.seeds[0], seconds, 1)
        summary = {}
        for name, metric in runs[0]["printed"].items():
            values = [r["printed"][name]["value"] for r in runs]
            summary[name] = {"median": statistics.median(values), "spread": spread(values), "unit": metric["unit"]}
        print(f"== {workload}: {len(runs)} runs, {sum(r['failed'] for r in runs)} failed operations")
        for name, s in summary.items():
            print(f"   {name:<24} {s['median']:>14.6g} {s['unit']:<7} spread {s['spread']:.4f}")
        print(f"== {workload}: traced run, seed {args.seeds[0]}, correct={traced['correct']}")
        for name, metric in traced["metrics"].items():
            print(f"   {name:<40} {metric['value']:>14.6g} {metric['unit']}")
        entry["workloads"][workload] = {
            "end_to_end": summary,
            "runs": [{"seed": seed, "correct": r["correct"], "attempted": r["attempted"], "failed": r["failed"],
                      "metrics": {k: v["value"] for k, v in r["printed"].items()}}
                     for seed, r in zip(args.seeds, runs)],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "per_layer_correct": traced["correct"],
        }
    if args.record:
        baseline = json.loads(BASELINE.read_text(encoding="utf-8")) if BASELINE.is_file() else {}
        baseline["machine"] = machine()
        baseline.setdefault("trajectory", []).append(entry)
        BASELINE.write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")
        print(f"recorded under {args.record!r} in {BASELINE.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
