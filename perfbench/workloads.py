"""The benchmark's workloads: inputs from a seed, one timed operation, and its output check.

Every workload has the same four steps:

* ``setup(seed, work_dir)`` builds the inputs, outside the timed operation;
* ``run(inputs)`` is the timed operation;
* ``check(inputs, result)`` verifies the output, outside the timed
  operation, and returns an ``Outcome``;
* ``cleanup(result)`` removes what the operation wrote.

Calls into hurstlab go through module attributes looked up at call time
(``cli.main``, ``estimators.ghe``, ...), so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import random
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from hurstlab import cli, estimators, ingest, synthetic
from hurstlab.errors import HurstLabError
from hurstlab.pipeline import ANY_LABEL, QUINTILE_LABELS, TAIL_LABELS, TRADING_DAYS_PER_YEAR
from hurstlab.series import LogSeries, PriceSeries

# The cohort parameters `hurstscan run --synthetic-cohort` uses by default.
COHORT_H_VALUES = (0.3, 0.5, 0.7)
COHORT_DRIFTS = {0.3: 0.0, 0.5: 0.0002, 0.7: 0.0004}
COHORT_SCALE = 0.005
METHODS = ("ghe", "dfa", "gm2")
CALIBRATE_REFERENCE = Path(__file__).with_name("calibrate_reference.json")
DEFAULT_SEED = 0


@dataclass
class Outcome:
    """What the check of one operation found."""

    estimates: int = 0
    skipped: int = 0
    csv_rows: int = 0
    latencies_us: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)


def window_ends(length: int, window: int, roll: int) -> list[int]:
    """Window ends with a full trailing and forward window, by brute force over every day."""
    return [
        t
        for t in range(length)
        if t >= window - 1 and (t - (window - 1)) % roll == 0 and t + window <= length - 1
    ]


def report_files(windows, methods=METHODS) -> set[str]:
    return {
        f"{kind}_{m}_w{w}.{ext}"
        for w in windows
        for m in methods
        for kind, ext in (("observations", "csv"), ("quintile", "txt"), ("tail", "txt"))
    }


def read_observations(path: Path) -> list[list[str]]:
    with path.open(newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    return rows[1:]


def sample_rows(rows: list, k: int, seed: int, label: str) -> list:
    """A seeded sample of ``k`` rows (all of them when there are fewer)."""
    if len(rows) <= k:
        return list(rows)
    return random.Random(f"{seed}:{label}").sample(rows, k)


def recompute(method: str, values: np.ndarray, end: int, window: int, name: str):
    """One observation's estimate, recomputed with the public one-row estimator."""
    start = end - window + 1
    series = LogSeries(name, np.arange(start, end + 1), values[start : end + 1])
    cfg = estimators.default_config(estimators.Method[method.upper()], window)
    return getattr(estimators, method)(series, cfg)


def agrees_to_9_digits(h: float, text: str) -> bool:
    """True when ``text`` is ``h`` rounded to 9 significant digits (half an ulp of the 9th digit)."""
    return abs(float(text) - h) <= 5.0000001e-9 * abs(h)


def expected_report(hs: np.ndarray, forwards: np.ndarray, window: int, scheme: str) -> list[tuple[str, str]]:
    """(label, annualized return) rows of one bucket report, rebuilt from the observations.

    Buckets are percentiles of ``hs`` (linear interpolation, boundary ties
    to the upper bucket); a row's return is the geometric annualization of
    its members' mean forward log return, as the report tables print it.
    """
    if scheme == "quintile":
        labels = QUINTILE_LABELS
        bucket = np.searchsorted(np.percentile(hs, [20, 40, 60, 80]), hs, side="right")
    else:
        labels = TAIL_LABELS
        p90, p95 = np.percentile(hs, [90, 95])
        bucket = np.where(hs >= p95, 1, np.where(hs >= p90, 0, -1))
    members = [forwards[bucket == i] for i in range(len(labels))] + [forwards]
    rows = []
    for label, fwd in zip((*labels, ANY_LABEL), members):
        if len(fwd) == 0:
            rows.append((label, "n/a"))
            continue
        mean = math.fsum(fwd) / len(fwd)
        rows.append((label, f"{(math.exp(mean * TRADING_DAYS_PER_YEAR / window) - 1.0) * 100.0:.2f}%"))
    return rows


def check_report_file(path: Path, method: str, window: int, scheme: str, hs, forwards, outcome: Outcome) -> None:
    """The report table at ``path`` prints the rows ``expected_report`` rebuilds."""
    if not path.is_file():
        outcome.problems.append(f"{path.name}: missing")
        return
    lines = path.read_text(encoding="utf-8").splitlines()
    title = f"Annualized return for {method.upper()} ({scheme} buckets)"
    if len(lines) < 2 or lines[0] != title or lines[1].split()[-1:] != [str(window)]:
        outcome.problems.append(f"{path.name}: title or header differs")
        return
    found = [tuple(part.strip() for part in line.rsplit(None, 1)) for line in lines[2:]]
    want = expected_report(hs, forwards, window, scheme)
    if found != want:
        outcome.problems.append(f"{path.name}: rows {found}, rebuilt from the observations {want}")


def check_observation_file(
    out_dir: Path,
    method: str,
    window: int,
    expected_keys: set,
    log_values: dict,
    sample: int,
    seed: int,
    outcome: Outcome,
) -> set:
    """Check one (window, method) group's observation CSV and its two reports.

    Every row's forward log return must match the log prices; a seeded
    sample of rows must match a one-row recomputation of ``h`` and
    ``suspect``; the quintile and tail reports must print the buckets
    rebuilt from the file.  Returns the expected (instrument, window_end)
    keys the file lacks.
    """
    tag = f"{method}_w{window}"
    path = out_dir / f"observations_{tag}.csv"
    if not path.is_file():
        outcome.problems.append(f"{path.name}: missing")
        return set(expected_keys)
    rows = read_observations(path)
    keys = [(r[0], int(r[1])) for r in rows]
    if len(keys) != len(set(keys)):
        outcome.problems.append(f"{path.name}: duplicate observations")
    if any(r[2] != method.upper() for r in rows):
        outcome.problems.append(f"{path.name}: rows of another method")
    extra = set(keys) - expected_keys
    if extra:
        outcome.problems.append(f"{path.name}: {len(extra)} observations at unexpected window ends")
        return expected_keys - set(keys)
    forwards = np.array([log_values[sid][t + window] - log_values[sid][t] for sid, t in keys])
    wrong = [r for r, f in zip(rows, forwards) if abs(float(r[5]) - f) > 5.0000001e-9 * abs(f) + 1e-12]
    if wrong:
        outcome.problems.append(f"{path.name}: {len(wrong)} forward log returns differ, first {wrong[0]}")
    for row in sample_rows(rows, sample, seed, path.name):
        est = recompute(method, log_values[row[0]], int(row[1]), window, row[0])
        if not agrees_to_9_digits(est.h, row[3]):
            outcome.problems.append(f"{path.name}: {row[0]}@{row[1]} h={row[3]}, recomputed {est.h!r}")
        if row[4] != ("true" if est.suspect else "false"):
            outcome.problems.append(f"{path.name}: {row[0]}@{row[1]} suspect={row[4]}, recomputed {est.suspect}")
    hs = np.array([float(r[3]) for r in rows])
    for scheme in ("quintile", "tail"):
        check_report_file(out_dir / f"{scheme}_{tag}.txt", method, window, scheme, hs, forwards, outcome)
    return expected_keys - set(keys)


@dataclass
class CliResult:
    code: int
    op_dir: Path
    out_dir: Path


class ScanDefault:
    """``hurstscan run --synthetic-cohort --seed <seed> --out <dir>`` with every default."""

    name = "scan-default"
    SIZES = {
        "full": dict(n=60, length=2048, windows=(32, 64, 128, 256, 512), extra=()),
        "tiny": dict(n=6, length=400, windows=(32, 64), extra=("--n", "6", "--len", "400", "--windows", "32,64")),
    }
    ROLL = 20
    SAMPLE_PER_FILE = 40

    def __init__(self, size: str = "full"):
        self.size = self.SIZES[size]

    def setup(self, seed: int, work_dir: Path) -> dict:
        return {"seed": seed, "work_dir": work_dir}

    def run(self, inputs: dict) -> CliResult:
        op_dir = Path(tempfile.mkdtemp(dir=inputs["work_dir"]))
        out_dir = op_dir / "out"
        argv = ["run", "--synthetic-cohort", "--seed", str(inputs["seed"]), "--out", str(out_dir)]
        with contextlib.redirect_stdout(io.StringIO()):  # the CLI's tables stay off the benchmark's stdout
            code = cli.main([*argv, *self.size["extra"]])
        return CliResult(code, op_dir, out_dir)

    def check(self, inputs: dict, result: CliResult) -> Outcome:
        size, seed = self.size, inputs["seed"]
        outcome = Outcome()
        if result.code != 0:
            outcome.problems.append(f"hurstscan exited {result.code}")
        expected_files = report_files(size["windows"])
        found = {p.name for p in result.out_dir.iterdir()} if result.out_dir.is_dir() else set()
        if found != expected_files:
            outcome.problems.append(f"{len(found)} files written, expected {len(expected_files)}")
        cohort = synthetic.generate_drifted_cohort(
            size["n"], size["length"], COHORT_H_VALUES, COHORT_DRIFTS, seed=seed, scale=COHORT_SCALE
        )
        log_values = {s.instrument_id: np.log(s.prices) for s in cohort}
        for window in size["windows"]:
            ends = window_ends(size["length"], window, self.ROLL)
            expected = {(sid, t) for sid in log_values for t in ends}
            for method in METHODS:
                outcome.estimates += len(expected)
                missing = check_observation_file(
                    result.out_dir, method, window, expected, log_values, self.SAMPLE_PER_FILE, seed, outcome,
                )
                outcome.skipped += len(missing)
                if missing:
                    outcome.problems.append(f"{method} w{window}: {len(missing)} observations missing")
        return outcome

    def cleanup(self, result: CliResult) -> None:
        shutil.rmtree(result.op_dir, ignore_errors=True)


class CsvRoundtrip:
    """Write a 500 x 2520-day universe with stale-price halts to CSV, then scan it from the file."""

    name = "csv-roundtrip"
    SIZES = {
        "full": dict(n=500, length=2520, window=512, halt=(1000, 1600)),
        "tiny": dict(n=20, length=400, window=64, halt=(130, 260)),
    }
    HALT_EVERY = 10
    SAMPLE_PER_FILE = 100

    def __init__(self, size: str = "full"):
        self.size = self.SIZES[size]

    def setup(self, seed: int, work_dir: Path) -> dict:
        size = self.size
        first, last = size["halt"]
        cohort = synthetic.generate_drifted_cohort(
            size["n"], size["length"], COHORT_H_VALUES, COHORT_DRIFTS, seed=seed, scale=COHORT_SCALE
        )
        universe, flat = [], set()
        ends = window_ends(size["length"], size["window"], size["window"])
        for i, series in enumerate(cohort):
            if i % self.HALT_EVERY == 0:
                prices = series.prices.copy()
                prices[first : last + 1] = prices[first]
                series = PriceSeries(series.instrument_id, series.dates, prices)
                flat |= {(series.instrument_id, t) for t in ends if t - size["window"] + 1 >= first and t <= last}
            universe.append(series)
        return {"seed": seed, "work_dir": work_dir, "universe": universe, "flat": flat, "digest": None}

    def run(self, inputs: dict) -> CliResult:
        op_dir = Path(tempfile.mkdtemp(dir=inputs["work_dir"]))
        csv_path = op_dir / "universe.csv"
        ingest.write_csv(inputs["universe"], csv_path)
        argv = ["run", "--input", str(csv_path), "--windows", str(self.size["window"]),
                "--non-overlapping", "--methods", ",".join(METHODS), "--out", str(op_dir / "out")]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        return CliResult(code, op_dir, op_dir / "out")

    def _check_roundtrip(self, inputs: dict, csv_path: Path, outcome: Outcome) -> None:
        """The CSV ingests back to the written universe exactly; later operations must write the same bytes."""
        digest = hashlib.sha256(csv_path.read_bytes()).hexdigest() if csv_path.is_file() else None
        if digest is None:
            outcome.problems.append("universe CSV missing")
            return
        if inputs["digest"] is not None:
            if digest != inputs["digest"]:
                outcome.problems.append("universe CSV differs from the first operation's")
            return
        try:
            back = ingest.ingest_csv(csv_path)
        except HurstLabError as exc:
            outcome.problems.append(f"universe CSV does not ingest: {exc}")
            return
        written = inputs["universe"]
        same = [s.instrument_id for s in back] == [s.instrument_id for s in written] and all(
            np.array_equal(b.prices, w.prices) and np.array_equal(b.dates, np.arange(len(w)))
            for b, w in zip(back, written)
        )
        if not same:
            outcome.problems.append("ingested universe differs from the written one")
            return
        inputs["digest"] = digest

    def check(self, inputs: dict, result: CliResult) -> Outcome:
        size, seed, universe = self.size, inputs["seed"], inputs["universe"]
        window = size["window"]
        outcome = Outcome(csv_rows=2 * sum(len(s) for s in universe))
        if result.code != 0:
            outcome.problems.append(f"hurstscan exited {result.code}")
        self._check_roundtrip(inputs, result.op_dir / "universe.csv", outcome)
        expected_files = report_files([window])
        found = {p.name for p in result.out_dir.iterdir()} if result.out_dir.is_dir() else set()
        if found != expected_files:
            outcome.problems.append(f"{len(found)} files written, expected {len(expected_files)}")
        log_values = {s.instrument_id: np.log(s.prices) for s in universe}
        ends = window_ends(size["length"], window, window)
        expected = {(s.instrument_id, t) for s in universe for t in ends}
        for method in METHODS:
            outcome.estimates += len(expected)
            missing = check_observation_file(
                result.out_dir, method, window, expected, log_values, self.SAMPLE_PER_FILE, seed, outcome,
            )
            outcome.skipped += len(missing)
            if missing != inputs["flat"]:
                outcome.problems.append(
                    f"{method}: {len(missing)} skipped estimates, predicted {len(inputs['flat'])} flat windows"
                )
        return outcome

    def cleanup(self, result: CliResult) -> None:
        shutil.rmtree(result.op_dir, ignore_errors=True)


@dataclass
class CalibrateResult:
    sums: dict
    counts: dict
    nonfinite: int
    errors: list
    latencies_us: list


class Calibrate:
    """Criterion-1 protocol: 400 fBm paths per (H, length), each passed to ghe, dfa and gm2 one call at a time."""

    name = "calibrate"
    SIZES = {
        "full": dict(hs=(0.3, 0.5, 0.7), lengths=(128, 512, 2048), paths=400),
        "tiny": dict(hs=(0.3, 0.5, 0.7), lengths=(128, 256), paths=12),
    }

    def __init__(self, size: str = "full"):
        self.size_name = size
        self.size = self.SIZES[size]

    def cells(self):
        return [(h, n) for h in self.size["hs"] for n in self.size["lengths"]]

    def setup(self, seed: int, work_dir: Path) -> dict:
        cells = self.cells()
        path_seeds = np.random.SeedSequence(seed).generate_state(len(cells) * self.size["paths"], np.uint64)
        specs = {}
        for c, (h, n) in enumerate(cells):
            chunk = path_seeds[c * self.size["paths"] : (c + 1) * self.size["paths"]]
            specs[(h, n)] = [synthetic.FbmSpec(h=h, length=n, seed=int(s)) for s in chunk]
        return {"seed": seed, "specs": specs}

    def run(self, inputs: dict) -> CalibrateResult:
        fns = [(m, getattr(estimators, m)) for m in METHODS]
        generate = synthetic.generate_fbm
        sums, counts, latencies, errors, nonfinite = {}, {}, [], [], 0
        for (h, n), specs in inputs["specs"].items():
            for method, _ in fns:
                sums[(h, n, method)], counts[(h, n, method)] = [], 0
            for spec in specs:
                path = generate(spec)
                for method, fn in fns:
                    t0 = perf_counter()
                    try:
                        value = fn(path).h
                    except HurstLabError as exc:
                        latencies.append((perf_counter() - t0) * 1e6)
                        errors.append(f"{method} H={h} L={n} seed={spec.seed}: {type(exc).__name__}")
                        continue
                    latencies.append((perf_counter() - t0) * 1e6)
                    counts[(h, n, method)] += 1
                    nonfinite += not math.isfinite(value)
                    sums[(h, n, method)].append(value)
        sums = {key: math.fsum(values) for key, values in sums.items()}
        return CalibrateResult(sums, counts, nonfinite, errors, latencies)

    def reference(self, seed: int) -> dict | None:
        """Per-cell sums of h recorded for this size at the default seed, if any."""
        if seed != DEFAULT_SEED or not CALIBRATE_REFERENCE.is_file():
            return None
        return json.loads(CALIBRATE_REFERENCE.read_text(encoding="utf-8")).get(self.size_name)

    @staticmethod
    def cell_key(h: float, n: int, method: str) -> str:
        return f"{method}.H{h:g}.L{n}"

    def check(self, inputs: dict, result: CalibrateResult) -> Outcome:
        paths = self.size["paths"]
        outcome = Outcome(
            estimates=len(self.cells()) * paths * len(METHODS),
            skipped=len(result.errors),
            latencies_us=result.latencies_us,
        )
        outcome.problems.extend(result.errors[:5])
        if result.nonfinite:
            outcome.problems.append(f"{result.nonfinite} non-finite estimates")
        bad = [k for k, c in result.counts.items() if c != paths]
        if bad or len(result.counts) != len(self.cells()) * len(METHODS):
            outcome.problems.append(f"estimate counts differ from {paths} per cell: {sorted(bad)[:3]}")
        reference = self.reference(inputs["seed"])
        if reference is not None:
            for (h, n, method), total in result.sums.items():
                want = reference.get(self.cell_key(h, n, method))
                if want is None or abs(total - want) > 1e-9 * abs(want):
                    outcome.problems.append(f"{self.cell_key(h, n, method)}: sum of h {total!r}, recorded {want!r}")
        return outcome

    def cleanup(self, result: CalibrateResult) -> None:
        pass


WORKLOADS = {w.name: w for w in (ScanDefault, CsvRoundtrip, Calibrate)}
