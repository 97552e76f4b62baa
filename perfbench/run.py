"""hurstlab benchmark: one workload, one seed, for a fixed number of seconds.

    python3 perfbench/run.py --workload scan-default --seed 0 --seconds 30 --trace 0

Run from a checkout of the repository; the package is imported from its
``src`` directory.  The load is one closed-loop client in this process:
the next timed operation starts when the previous one and its output
check have finished.  Operations repeat while the next one, if it takes
as long as the last, keeps the timed total within ``--seconds`` (at least
one runs).  Set-up time is measured in fresh interpreters
started one after another, half before the loop and half after it, and
scaled to the machine speed ``speed.NOMINAL_S`` stands for.

Untraced operations run under ``speed.SpeedProbe``, which gives
``run_probes``, their length in units of a fixed reference computation.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` first runs
untraced operations for half the time, then traced ones for the other
half, prints the per-layer metrics and writes the spans to
``.perfbench_work/trace-<workload>.csv``.  Human-readable lines come
first; the last line of stdout is one JSON object.  See README.md in this
directory for what each metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from speed import NOMINAL_S, SpeedProbe, reference_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 8

# (name, unit, better) of every end-to-end metric in the JSON line, in the order they are printed.
END_TO_END = (
    ("run_probes", "probe", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, help="a name in workloads.WORKLOADS")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny inputs, for the benchmark's own tests")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_package():
    """Import hurstlab from this checkout's src/, or exit 2 when there is none."""
    if not (SRC / "hurstlab" / "__init__.py").is_file():
        print(f"error: no hurstlab package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import hurstlab

    if Path(hurstlab.__file__).resolve().parent != (SRC / "hurstlab").resolve():
        print(f"error: imported hurstlab from {hurstlab.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return hurstlab


def setup_seconds(args, count: int) -> list[tuple[float, float]]:
    """Set-up samples of ``count`` fresh interpreters that import hurstlab and build this workload's inputs.

    Each sample is (wall seconds, the mean of the reference-probe durations
    measured just before and just after it).
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size]
    samples = []
    for _ in range(count):
        before = reference_seconds()
        t0 = perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, timeout=120)
        wall = perf_counter() - t0
        samples.append((wall, (before + reference_seconds()) / 2))
    return samples


@dataclass
class Op:
    """One timed operation: net wall seconds, the mean reference-probe time, and what its check found."""

    seconds: float
    probe_s: float | None
    outcome: object | None
    error: str | None

    @property
    def probes(self) -> float:
        return self.seconds / self.probe_s


def run_loop(workload, inputs, budget: float, traced=None) -> list[Op]:
    """Closed loop of timed operations.

    Untraced operations run under a ``SpeedProbe``; ``traced(run_id)``
    gives the context that traces one operation instead.
    """
    ops = []
    measured = 0.0
    while True:
        name = f"op{len(ops)}"
        probe = SpeedProbe()
        result, error = None, None
        try:
            with traced(name) if traced else probe:
                t0 = perf_counter()
                try:
                    result = workload.run(inputs)
                finally:
                    seconds = perf_counter() - t0 - probe.inside_s
        except Exception as exc:  # a failed operation is counted, and the loop goes on
            error = f"{type(exc).__name__}: {exc}"
        outcome = None
        if result is not None:
            try:
                outcome = workload.check(inputs, result)
            finally:
                workload.cleanup(result)
            if outcome.problems:
                error = "; ".join(outcome.problems[:5])
        ops.append(Op(seconds, probe.mean_s if probe.samples else None, outcome, error))
        if error:
            print(f"{name} FAILED: {error}", file=sys.stderr)
        measured += seconds
        if measured + seconds > budget:
            return ops


def percentile(values, q: int) -> float:
    if len(values) < 2:
        return values[0] if values else math.nan
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(ops: list[Op], setup: list[tuple[float, float]]) -> tuple[dict, dict]:
    """End-to-end metrics (medians over operations) and the figures printed beside them.

    Only ``run_probes``, ``setup_s`` and ``peak_rss_mb`` go to the JSON
    line: the raw wall-time figures move with the machine's speed far more
    than any bound allows (see README.md).  ``setup_s`` is set-up wall time
    scaled by ``NOMINAL_S`` over the probe duration measured around it.  The latency percentiles pool
    the timed one-row estimator calls; only calibrate makes them.
    """
    checked = [op for op in ops if op.outcome is not None]
    latencies = [us for op in checked for us in op.outcome.latencies_us]
    estimates = sum(op.outcome.estimates for op in checked)
    metrics = {
        "run_probes": statistics.median(op.probes for op in ops),
        "setup_s": statistics.median(wall * NOMINAL_S / probe_s for wall, probe_s in setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    n = f"median of {len(ops)} operations"
    extra = {
        "setup_wall_s": (statistics.median(wall for wall, _ in setup), "s", f"median of {len(setup)} fresh interpreters"),
        "run_s": (statistics.median(op.seconds for op in ops), "s", n),
        "probe_ms": (1e3 * statistics.median(op.probe_s for op in ops), "ms", n),
        "estimates_per_s": (
            statistics.median(op.outcome.estimates / op.seconds for op in checked) if checked else math.nan,
            "1/s", n,
        ),
        "failed_ratio": (sum(1 for op in ops if op.error) / len(ops), "ratio", f"{len(ops)} operations"),
        "skipped_ratio": (
            sum(op.outcome.skipped for op in checked) / estimates if estimates else math.nan,
            "ratio", f"{estimates} estimates",
        ),
    }
    if latencies:
        extra["estimate_us_p50"] = (percentile(latencies, 50), "us", f"{len(latencies)} calls")
        extra["estimate_us_p90"] = (percentile(latencies, 90), "us", f"{len(latencies)} calls")
    csv_rows = [op.outcome.csv_rows / op.seconds for op in checked if op.outcome.csv_rows]
    if csv_rows:
        extra["csv_rows_per_s"] = (statistics.median(csv_rows), "rows/s", f"median of {len(csv_rows)} operations")
    return metrics, extra


def print_metric(name: str, value, unit: str, note: str = "") -> None:
    print(f"metric {name} {value!r} {unit}" + (f"  # {note}" if note else ""))


def main(argv=None) -> int:
    args = parse_args(argv)
    hurstlab = import_package()
    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.size)
    WORK.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        if args.setup_probe:
            workload.setup(args.seed, work_dir)
            return 0
        probes = 0 if args.trace else SETUP_PROBES  # set-up time is an end-to-end metric only
        setup = setup_seconds(args, probes // 2)
        tracer = tracing.Tracer()
        entries = tracing.boundaries(hurstlab)
        with tracer.operation("setup", entries) if args.trace else contextlib.nullcontext():
            inputs = workload.setup(args.seed, work_dir)
        budget = args.seconds / 2 if args.trace else args.seconds
        untraced = run_loop(workload, inputs, budget)
        traced = []
        if args.trace:
            traced = run_loop(workload, inputs, budget, lambda op: tracer.operation(op, entries))
        setup += setup_seconds(args, probes - len(setup))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    every = untraced + traced
    failed = sum(1 for op in every if op.error)
    print(f"workload {args.workload} seed {args.seed} size {args.size}: "
          f"{len(untraced)} untraced + {len(traced)} traced operations, {failed} failed")
    if not args.trace:
        metrics, extra = end_to_end(untraced, setup)
        notes = {"setup_s": f"median of {len(setup)} fresh interpreters, scaled to the reference speed",
                 "peak_rss_mb": "ru_maxrss of this process"}
        for name, unit, _ in END_TO_END:
            print_metric(name, metrics[name], unit, notes.get(name, f"median of {len(untraced)} operations"))
        for name, (value, unit, note) in extra.items():
            print_metric(name, value, unit, note)
        units = {name: unit for name, unit, _ in END_TO_END}
    else:
        metrics = tracing.layer_metrics(tracer.spans, len(traced))
        checked = [op.outcome for op in traced if op.outcome is not None]
        estimates = sum(o.estimates for o in checked)
        metrics["estimators.skipped_ratio"] = sum(o.skipped for o in checked) / estimates if estimates else 0.0
        metrics["trace.overhead"] = statistics.median(op.seconds for op in traced) / statistics.median(
            op.seconds for op in untraced
        )
        trace_path = WORK / f"trace-{args.workload}.csv"
        tracer.write_csv(trace_path)
        print(f"trace: {len(tracer.spans)} spans written to {trace_path.relative_to(ROOT)}")
        for name, unit, _ in tracing.PER_LAYER:
            print_metric(name, metrics[name], unit)
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    result = {
        "correct": failed == 0,
        "attempted": len(every),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
