"""Pinned ``hurstscan run`` output trees: the configurations, how to run them, and their digests.

Each configuration is one ``hurstscan run``; its record is the sha256 of
every file it writes and the summary's skip-count line.  Running this file
writes those records to ``trees.json`` next to it::

    PYTHONPATH=src python tests/fixtures/make_trees.py

``tests/test_trees.py`` reruns every configuration against that file, so a
change that should not change any output can be checked byte for byte.
Regenerate the file only for a change that is meant to change outputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from hurstlab import PriceSeries, generate_drifted_cohort, write_csv
from hurstlab.cli import main

TREES = Path(__file__).with_name("trees.json")

COHORT = ["--synthetic-cohort", "--n", "6", "--len", "400"]
HALTED = "<halted>"  # stands for the path of the halted cohort's CSV file

CONFIGS = {
    # the default run: 60 series of 2048 days, windows 32-512, roll 20; unlike the 6 x 400 runs
    # below, its scan spans several batches and fit chunks
    "default": ["--synthetic-cohort"],
    "seed0": [*COHORT, "--windows", "32,64", "--seed", "0"],
    "seed1": [*COHORT, "--windows", "32,64", "--seed", "1"],
    "seed2": [*COHORT, "--windows", "32,64", "--seed", "2"],
    "dfa-raw": [*COHORT, "--windows", "32,64", "--dfa-profile", "raw"],
    "exclude-suspect": [*COHORT, "--windows", "32,64", "--exclude-suspect"],
    "q0.5": [*COHORT, "--windows", "32,64", "--q", "0.5"],
    "format-csv": [*COHORT, "--windows", "32,64", "--format", "csv"],
    # at 32,64 the w64 tail pool holds 30 < 40 observations and the run fails
    "non-overlapping": [*COHORT, "--windows", "32", "--non-overlapping"],
    "halted": ["--input", HALTED, "--windows", "32,64"],
    "halted-non-overlapping": ["--input", HALTED, "--windows", "32", "--non-overlapping"],
}


def write_halted_cohort(path: Path) -> None:
    """The seed-0 cohort of ``COHORT``, with series 0, 2 and 4 halted (flat) on days 130-260."""
    cohort = generate_drifted_cohort(6, 400, (0.3, 0.5, 0.7), {0.3: 0.0, 0.5: 0.0002, 0.7: 0.0004}, seed=0)
    halted = []
    for i, series in enumerate(cohort):
        prices = series.prices.copy()
        if i % 2 == 0:
            prices[130:261] = prices[130]
        halted.append(PriceSeries(series.instrument_id, series.dates, prices))
    write_csv(halted, path)


def run_tree(name: str, scratch: Path) -> dict:
    """Run configuration ``name`` with its output under ``scratch``; its files' sha256 and skip line."""
    halted = scratch / "halted.csv"
    if HALTED in CONFIGS[name] and not halted.exists():
        write_halted_cohort(halted)
    out = scratch / name
    args = ["run", *(str(halted) if arg == HALTED else arg for arg in CONFIGS[name]), "--out", str(out)]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(args)
    if code != 0:
        raise RuntimeError(f"{name}: hurstscan run exited {code}")
    skips = next(line for line in stdout.getvalue().splitlines() if "skipped estimates/series" in line)
    files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}
    return {"files": files, "skips": skips}


def main_write() -> int:
    with tempfile.TemporaryDirectory() as scratch:
        trees = {name: run_tree(name, Path(scratch)) for name in CONFIGS}
    TREES.write_text(json.dumps(trees, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(trees)} trees to {TREES}")
    return 0


if __name__ == "__main__":
    sys.exit(main_write())
