"""Hand mutations of ``src/`` that tier-1 must kill: each, applied alone, must fail a test.

Each mutant is one (old text, new text) replacement in one file.  For each
mutant the script copies ``src/``, ``tests/`` and ``pyproject.toml`` into a
temporary directory, applies the replacement there, and runs tier-1 on the
copy with ``-x``.  It exits 1 naming every mutant that survives, and every
mutant whose old text does not occur exactly once in its file, so the list
cannot go stale as the code changes.  It first runs tier-1 on an unmutated
copy, and stops there if that fails, since then every mutant would seem
killed::

    python tests/fixtures/mutants.py              # every mutant
    python tests/fixtures/mutants.py NAME [NAME]  # only these

A mutant found to be equivalent (no output can tell it apart) is taken out
of the list, with the reason written where it stood.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
TIER1 = ["-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--continue-on-collection-errors"]

# name: (file under src/hurstlab, old text, new text)
MUTANTS = {
    # the scan and the report
    "dropped-last-window-end": (
        "pipeline.py", "range(window - 1, last + 1, roll_step)", "range(window - 1, last, roll_step)"),
    "quintile-ties-to-lower-bucket": (
        "pipeline.py", "[20, 40, 60, 80]), pool.h, side=\"right\")", "[20, 40, 60, 80]), pool.h, side=\"left\")"),
    "251-trading-days": ("pipeline.py", "TRADING_DAYS_PER_YEAR = 252", "TRADING_DAYS_PER_YEAR = 251"),
    "forward-window-one-day-short": (
        "pipeline.py", "values[ends + spec.window] - values[ends]", "values[ends + spec.window - 1] - values[ends]"),
    "series-of-2-windows-skipped": (
        "pipeline.py", "if len(series) >= 2 * spec.window:", "if len(series) > 2 * spec.window:"),
    "p96-tail-threshold": ("pipeline.py", "np.percentile(pool.h, [90, 95])", "np.percentile(pool.h, [90, 96])"),
    "bucket-mean-by-plain-sum": ("pipeline.py", "math.fsum(forwards.tolist())", "sum(forwards.tolist())"),
    "forward-returns-at-8-digits": (
        "reporting.py", "{pool.method.value},%.9g,%s,%.9g\\n", "{pool.method.value},%.9g,%s,%.8g\\n"),
    # the estimators and the fit
    "ghe-mean-over-n-minus-tau-plus-1": (
        "estimators.py", "sums / (n - np.arange(1, tau_max + 1))", "sums / (n + 1 - np.arange(1, tau_max + 1))"),
    "suspect-band-closed-at-2": ("estimators.py", "(h < 2.0)", "(h <= 2.0)"),
    "dfa-mean-over-blocks-minus-1": (
        "estimators.py", "block_power.sum(axis=-1) / block_power.shape[-1]",
        "block_power.sum(axis=-1) / (block_power.shape[-1] - 1)"),
    "ghe-default-tau-max-18": ("estimators.py", "tau_max = max(2, min(19, length - 1))",
                               "tau_max = max(2, min(18, length - 1))"),
    "gm2-k-min-one-lower": ("estimators.py", "k_min = max(2, k_max - 3)", "k_min = max(2, k_max - 4)"),
    "dfa-detrended-by-block-mean-only": (
        "estimators.py",
        "        np.subtract(flat, np.multiply(slopes.reshape(-1, 1), dt, order=order), out=flat, order=order)\n", ""),
    # the same arithmetic, rounded once less: the block mean and the ramp are summed before they are subtracted
    "dfa-mean-and-ramp-removed-in-one-step": (
        "estimators.py",
        "        np.subtract(flat, (resid @ ones / m).reshape(-1, 1), out=flat, order=order)\n"
        "        np.subtract(flat, np.multiply(slopes.reshape(-1, 1), dt, order=order), out=flat, order=order)\n",
        "        np.subtract(flat, (resid @ ones / m).reshape(-1, 1) + slopes.reshape(-1, 1) * dt, out=flat, order=order)\n"),
    "ghe-divided-by-q-twice": ("estimators.py", "h = fits.slope / cfg.q if", "h = fits.slope / cfg.q / cfg.q if"),
    "r2-zero-for-a-horizontal-line": (
        "series.py", "np.where(syy == 0.0, 1.0, slope * sxy / syy)", "np.where(syy == 0.0, 0.0, slope * sxy / syy)"),
    # synthesis and ingest
    "drift-from-day-1": (
        "synthetic.py", "t = np.arange(length, dtype=np.float64)", "t = np.arange(1, length + 1, dtype=np.float64)"),
    "duplicate-date-check-off-by-one": (
        "ingest.py", "np.flatnonzero(keys[1:] == keys[:-1])", "np.flatnonzero(keys[2:] == keys[:-2])"),
}


def stale(names) -> list[str]:
    """The mutants whose old text does not occur exactly once in their file."""
    return [
        name for name in names
        if (ROOT / "src" / "hurstlab" / MUTANTS[name][0]).read_text(encoding="utf-8").count(MUTANTS[name][1]) != 1
    ]


def passes(file: str | None = None, old: str = "", new: str = "") -> bool:
    """Run tier-1 on a copy of the tree, ``old`` replaced by ``new`` in ``file`` if given; True if all tests pass."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", copy)
        if file:
            target = copy / "src" / "hurstlab" / file
            target.write_text(target.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
        run = subprocess.run([sys.executable, *TIER1], cwd=copy, env=env, capture_output=True, text=True)
    return run.returncode == 0


def main(argv: list[str]) -> int:
    names = argv or list(MUTANTS)
    unknown = [name for name in names if name not in MUTANTS]
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}", file=sys.stderr)
        return 2
    gone = stale(names)
    if not passes():
        print("tier-1 fails on the unmutated copy", file=sys.stderr)
        return 1
    failed = [f"{name}: old text not found exactly once" for name in gone]
    for name in (name for name in names if name not in gone):
        start = time.perf_counter()
        alive = passes(*MUTANTS[name])
        print(f"{'SURVIVED' if alive else 'killed'}  {name}  ({time.perf_counter() - start:.0f} s)", flush=True)
        if alive:
            failed.append(f"{name}: survived tier-1")
    for line in failed:
        print(line, file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
