"""The benchmark's own tests, at tiny input sizes.

    python3 perfbench/selftest.py

Checks that every metric is printed with its unit, that each output check
rejects a corrupted output, that the tracer survives a boundary that is no
longer called, and that the benchmark refuses to run without the package.
"""

from __future__ import annotations

import json
import math
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import types
import unittest
from pathlib import Path

import numpy as np

import run
from run import END_TO_END, ROOT, WORK

run.import_package()
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK_JSON = ROOT / "BENCHMARK.json"


def bench(workload: str, trace: int, seed: int = 1) -> tuple[dict, dict]:
    """Run run.py at the tiny size; return its JSON result and the metric lines it printed."""
    proc = subprocess.run(
        [sys.executable, str(Path(run.__file__)), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        if line.startswith("metric "):
            _, name, value, unit = line.split("#")[0].split()[:4]
            printed[name] = (float(value), unit)
    return json.loads(lines[-1]), printed


class MetricsPrinted(unittest.TestCase):
    def test_benchmark_json_lists_the_printed_metrics(self):
        spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
        self.assertEqual(set(spec), {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"})
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]], list(END_TO_END))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]], list(tracing.PER_LAYER))

    def _assert_metrics(self, result, printed, expected):
        self.assertTrue(result["correct"], result)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(list(result["metrics"]), [name for name, _, _ in expected])
        for name, unit, _ in expected:
            self.assertEqual(result["metrics"][name]["unit"], unit, name)
            self.assertEqual(printed[name], (result["metrics"][name]["value"], unit), name)

    def test_end_to_end_metrics_on_every_workload(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                result, printed = bench(name, 0)
                self._assert_metrics(result, printed, END_TO_END)
                for metric, _, _ in END_TO_END:
                    self.assertGreater(result["metrics"][metric]["value"], 0, metric)
                for metric, unit in (("setup_wall_s", "s"), ("run_s", "s"), ("probe_ms", "ms"),
                                     ("estimates_per_s", "1/s")):
                    self.assertEqual(printed[metric][1], unit)
                    self.assertGreater(printed[metric][0], 0)
                for metric in ("estimate_us_p50", "estimate_us_p90"):  # timed one-row calls: calibrate only
                    self.assertEqual(metric in printed, name == "calibrate")
                    if name == "calibrate":
                        self.assertEqual(printed[metric][1], "us")
                        self.assertGreater(printed[metric][0], 0)
                self.assertEqual(printed["failed_ratio"], (0.0, "ratio"))
                flat = 2 * 3 / (20 * 5 * 3) if name == "csv-roundtrip" else 0.0
                self.assertEqual(printed["skipped_ratio"], (flat, "ratio"))
                self.assertEqual("csv_rows_per_s" in printed, name == "csv-roundtrip")

    def test_per_layer_metrics_on_every_workload(self):
        layers = {}
        for name in workloads.WORKLOADS:
            result, printed = bench(name, 1)
            self._assert_metrics(result, printed, tracing.PER_LAYER)
            layers[name] = {k: v["value"] for k, v in result["metrics"].items()}
        scan, roundtrip, calibrate = layers["scan-default"], layers["csv-roundtrip"], layers["calibrate"]
        self.assertEqual(scan["estimators.calls"], 6 * (17 + 14) * 3)
        self.assertEqual(scan["series.ols_fits"], scan["estimators.calls"])
        self.assertEqual(scan["pipeline.observations"], scan["estimators.calls"])
        self.assertGreater(scan["estimators.busy_s"], 0.5 * scan["pipeline.scan_s"])
        self.assertEqual(scan["ingest.read_s"], 0.0)
        self.assertEqual(roundtrip["estimators.failed.DegenerateRegression"], 6)
        self.assertEqual(roundtrip["estimators.skipped_ratio"], 0.02)
        self.assertEqual(roundtrip["synthetic.paths"], 20)  # the cohort is built in set-up
        self.assertGreater(roundtrip["ingest.read_rows_per_s"], 0)
        self.assertEqual(calibrate["estimators.calls"], 2 * 3 * 12 * 3)
        self.assertEqual(calibrate["synthetic.paths"], 2 * 3 * 12)
        self.assertEqual(calibrate["pipeline.scan_s"], 0.0)
        self.assertGreater(calibrate["estimators.ghe.L128.us_per_call"], 0)


class ChecksRejectCorruption(unittest.TestCase):
    def setUp(self):
        WORK.mkdir(exist_ok=True)
        self.work_dir = Path(tempfile.mkdtemp(dir=WORK))

    def tearDown(self):
        shutil.rmtree(self.work_dir, ignore_errors=True)

    def _op(self, workload, seed=1):
        inputs = workload.setup(seed, self.work_dir)
        return inputs, workload.run(inputs)

    def _corrupt_sampled_row(self, wl, result, column: int, change) -> list[str]:
        """Change one column of a row the check samples in observations_dfa_w64.csv; return the check's problems."""
        inputs = {"seed": 1, "work_dir": self.work_dir}
        self.assertEqual(wl.check(inputs, result).problems, [])
        path = result.out_dir / "observations_dfa_w64.csv"
        header, *rows = path.read_text(encoding="utf-8").splitlines()
        victim = ",".join(workloads.sample_rows([r.split(",") for r in rows], wl.SAMPLE_PER_FILE, 1, path.name)[0])
        fields = victim.split(",")
        fields[column] = change(fields[column])
        rows[rows.index(victim)] = ",".join(fields)
        path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
        return wl.check(inputs, result).problems

    def test_scan_default_rejects_perturbed_h(self):
        wl = workloads.ScanDefault("tiny")
        _, result = self._op(wl)
        problems = self._corrupt_sampled_row(wl, result, 3, lambda h: format(float(h) * (1 + 1e-7), ".9g"))
        self.assertTrue(any("recomputed" in p for p in problems), problems)

    def test_scan_default_rejects_flipped_suspect(self):
        wl = workloads.ScanDefault("tiny")
        _, result = self._op(wl)
        problems = self._corrupt_sampled_row(wl, result, 4, lambda s: "true" if s == "false" else "false")
        self.assertTrue(any("suspect=" in p for p in problems), problems)

    def test_scan_default_rejects_perturbed_forward_return(self):
        wl = workloads.ScanDefault("tiny")
        _, result = self._op(wl)
        problems = self._corrupt_sampled_row(wl, result, 5, lambda f: format(float(f) + 1e-6, ".9g"))
        self.assertTrue(any("1 forward log returns differ" in p for p in problems), problems)

    def test_scan_default_rejects_changed_report(self):
        wl = workloads.ScanDefault("tiny")
        inputs, result = self._op(wl)
        for scheme in ("quintile", "tail"):
            path = result.out_dir / f"{scheme}_gm2_w32.txt"
            original = path.read_text(encoding="utf-8")
            lines = original.splitlines()
            label, value = lines[2].rsplit(None, 1)
            lines[2] = f"{label} {float(value.rstrip('%')) + 0.01:.2f}%"
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            problems = wl.check(inputs, result).problems
            self.assertTrue(any(p.startswith(f"{path.name}: rows") for p in problems), problems)
            path.write_text(original, encoding="utf-8")

    def test_expected_report_buckets_ties_upward(self):
        hs = np.arange(11.0)  # percentiles 20, 90 and 95 fall on h = 2, 9 and 9.5
        forwards = np.where((hs == 2) | (hs == 9), 0.1, 0.0)
        pct = lambda mean: f"{(math.exp(mean) - 1) * 100:.2f}%"  # window 252: one year per window
        rows = dict(workloads.expected_report(hs, forwards, 252, "quintile"))
        self.assertEqual((rows["very low"], rows["low"]), (pct(0.0), pct(0.05)))  # h = 2 goes up, to "low"
        tail = dict(workloads.expected_report(hs, forwards, 252, "tail"))
        self.assertEqual(tail, {"p90–95": pct(0.1), "p>95": pct(0.0), "any": pct(0.2 / 11)})
        tail = dict(workloads.expected_report(hs[:9], forwards[:9], 252, "tail"))
        self.assertEqual(tail["p90–95"], "n/a")  # 7.2 <= h < 7.6 holds for none of 0..8

    def test_scan_default_rejects_dropped_observation_file(self):
        wl = workloads.ScanDefault("tiny")
        inputs, result = self._op(wl)
        (result.out_dir / "observations_gm2_w32.csv").unlink()
        problems = wl.check(inputs, result).problems
        self.assertTrue(any("files written" in p for p in problems), problems)
        self.assertTrue(any("missing" in p for p in problems), problems)

    def test_scan_default_rejects_dropped_observation(self):
        wl = workloads.ScanDefault("tiny")
        inputs, result = self._op(wl)
        path = result.out_dir / "observations_ghe_w32.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
        problems = wl.check(inputs, result).problems
        self.assertTrue(any("1 observations missing" in p for p in problems), problems)

    def test_csv_roundtrip_rejects_changed_price(self):
        wl = workloads.CsvRoundtrip("tiny")
        inputs, result = self._op(wl)
        csv_path = result.op_dir / "universe.csv"
        lines = csv_path.read_text(encoding="utf-8").splitlines()
        instrument, date, price = lines[7].split(",")
        lines[7] = f"{instrument},{date},{float(price) * (1 + 1e-12)!r}"
        csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        problems = wl.check(inputs, result).problems
        self.assertTrue(any("differs from the written one" in p for p in problems), problems)

    def test_csv_roundtrip_counts_skips_against_the_halt_layout(self):
        wl = workloads.CsvRoundtrip("tiny")
        inputs, result = self._op(wl)
        outcome = wl.check(inputs, result)
        self.assertEqual(outcome.problems, [])
        self.assertEqual((outcome.skipped, outcome.estimates), (6, 300))
        inputs["flat"] = set(list(inputs["flat"])[1:])
        self.assertTrue(any("predicted 1 flat" in p for p in wl.check(inputs, result).problems))

    def test_calibrate_rejects_changed_sum_and_non_finite(self):
        wl = workloads.Calibrate("tiny")
        inputs, result = self._op(wl, seed=workloads.DEFAULT_SEED)
        self.assertEqual(wl.check(inputs, result).problems, [])
        key = next(iter(result.sums))
        result.sums[key] *= 1 + 1e-8
        self.assertTrue(any("recorded" in p for p in wl.check(inputs, result).problems))
        result.nonfinite = 1
        self.assertTrue(any("non-finite" in p for p in wl.check(inputs, result).problems))


class Tracer(unittest.TestCase):
    @staticmethod
    def _program(with_estimator: bool):
        ns = types.SimpleNamespace()

        def work():
            time.sleep(0.02)

        def scan():
            (ns.estimate if with_estimator else work)()

        ns.scan, ns.estimate = scan, work
        return ns

    def test_self_time_excludes_children(self):
        ns = self._program(with_estimator=True)
        original = ns.scan
        tracer = tracing.Tracer()
        entries = [(ns, "scan", "pipeline.scan", None, None), (ns, "estimate", "estimators.estimate", None, None)]
        with tracer.operation("op0", entries):
            ns.scan()
        self.assertIs(ns.scan, original)
        m = tracing.layer_metrics(tracer.spans, 1)
        self.assertGreaterEqual(m["estimators.busy_s"], 0.02)
        self.assertLess(m["pipeline.scan_self_s"], 0.01)

    def test_boundary_no_longer_called_reads_zero(self):
        ns = self._program(with_estimator=False)
        del ns.estimate
        tracer = tracing.Tracer()
        entries = [(ns, "scan", "pipeline.scan", None, None), (ns, "estimate", "estimators.estimate", None, None)]
        with tracer.operation("op0", entries):
            ns.scan()
        m = tracing.layer_metrics(tracer.spans, 1)
        self.assertEqual((m["estimators.busy_s"], m["estimators.calls"]), (0.0, 0.0))
        self.assertGreaterEqual(m["pipeline.scan_self_s"], 0.02)
        self.assertEqual(m["pipeline.scan_self_s"], m["pipeline.scan_s"])

    def test_real_boundaries_all_exist(self):
        hurstlab = run.import_package()
        missing = [(getattr(o, "__name__", o), a) for o, a, *_ in tracing.boundaries(hurstlab) if not hasattr(o, a)]
        self.assertEqual(missing, [])


class SpeedProbe(unittest.TestCase):
    def test_samples_during_the_block_and_restores_the_handler(self):
        before = signal.getsignal(signal.SIGALRM)
        with speed.SpeedProbe() as probe:
            end = time.perf_counter() + 0.35
            while time.perf_counter() < end:
                pass
        self.assertIs(signal.getsignal(signal.SIGALRM), before)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))
        self.assertGreaterEqual(len(probe.samples), 2 + 2)
        self.assertAlmostEqual(probe.inside_s, math.fsum(probe.samples[1:-1]))


class RefusesWithoutPackage(unittest.TestCase):
    def test_exits_nonzero_without_src(self):
        WORK.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=WORK) as bare:
            shutil.copytree(Path(run.__file__).parent, Path(bare) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(BENCHMARK_JSON, bare)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "calibrate", "--seed", "0",
                 "--seconds", "1", "--trace", "0"],
                capture_output=True, text=True, timeout=60, cwd=bare,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
