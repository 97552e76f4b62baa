"""Command-line surface: ingest prices, scan, and write bucket reports.

Two subcommands:

* ``run``   -- ingest a CSV file or a directory of them (or synthesize a
  universe) and, for every (window, method) pair, write the raw
  observation CSV plus one quintile and one tail bucket report into the
  output directory.
* ``synth`` -- dump a drifted synthetic cohort in the ingestion CSV
  format.

All randomness flows through ``--seed``; outputs contain no timestamps
or environment state, so identical invocations produce byte-identical
output trees.
"""

from __future__ import annotations

import argparse
import functools
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

from .errors import HurstLabError
from .estimators import DFA_MODE_PROFILE, DFA_MODE_RAW, Method, default_config
from .ingest import ingest_csv, ingest_dir, write_csv
from .pipeline import ScanSpec, scan, report
from .reporting import observations_csv, render_method_table, report_csv
from .synthetic import generate_drifted_cohort

_DEFAULT_WINDOWS = "32,64,128,256,512"
_DEFAULT_METHODS = "ghe,dfa,gm2"
_DEFAULT_H_VALUES = "0.3,0.5,0.7"
_DEFAULT_DRIFTS = "0,0.0002,0.0004"


def _parse_ints(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def _parse_floats(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part.strip()]


def _parse_methods(text: str) -> list[Method]:
    methods = []
    for part in text.split(","):
        name = part.strip().upper()
        if not name:
            continue
        try:
            methods.append(Method[name])
        except KeyError:
            raise argparse.ArgumentTypeError(f"unknown method {part!r} (expected ghe, dfa, gm2)")
    if not methods:
        raise argparse.ArgumentTypeError("at least one method required")
    return methods


class _CohortOption(argparse.Action):
    """Store the value and record the first cohort option given, which ``run --input`` refuses."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.cohort_option = namespace.cohort_option or option_string


def _add_cohort_options(parser: argparse.ArgumentParser) -> None:
    option = functools.partial(parser.add_argument, action=_CohortOption)
    option("--n", type=int, default=60, help="number of synthetic series")
    option("--len", dest="length", type=int, default=2048, help="series length")
    option("--h-values", type=_parse_floats, default=_DEFAULT_H_VALUES, help="cycled roughness values")
    option("--drifts", type=_parse_floats, default=_DEFAULT_DRIFTS, help="per-step drift for each h value")
    option("--fbm-scale", type=float, default=0.005, help="fBm step std dev")
    option("--seed", type=int, default=0, help="cohort seed")
    parser.set_defaults(cohort_option=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hurstscan", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="scan a universe and write bucket reports")
    src = run.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="long-format CSV file (instrument,date,price) or a directory of them")
    src.add_argument(
        "--synthetic-cohort",
        action="store_true",
        help="scan a generated drifted cohort instead of reading files",
    )
    run.add_argument("--windows", type=_parse_ints, default=_DEFAULT_WINDOWS,
                     help="comma-separated window sizes")
    run.add_argument("--roll", type=int, default=20, help="roll step in trading days")
    run.add_argument("--methods", type=_parse_methods, default=_DEFAULT_METHODS,
                     help="comma-separated estimators")
    run.add_argument("--tau-max", type=int, default=None, help="override GHE maximum lag")
    run.add_argument("--k-min", type=int, default=None, help="override smallest block exponent")
    run.add_argument("--k-max", type=int, default=None, help="override largest block exponent")
    run.add_argument("--q", type=float, default=None, help="override moment order")
    run.add_argument(
        "--dfa-profile",
        choices=(DFA_MODE_PROFILE, DFA_MODE_RAW),
        default=DFA_MODE_PROFILE,
        help="detrend the return profile (default) or the raw log prices",
    )
    run.add_argument(
        "--non-overlapping",
        action="store_true",
        help="roll by one full window instead of --roll days",
    )
    run.add_argument(
        "--exclude-suspect",
        action="store_true",
        help="drop estimates outside (0, 2) before bucketing",
    )
    run.add_argument("--format", choices=("table", "csv"), default="table", help="report file format")
    run.add_argument("--out", required=True, help="output directory")
    _add_cohort_options(run)
    run.set_defaults(func=cmd_run)

    synth = sub.add_parser("synth", help="write a synthetic cohort in ingestion CSV format")
    _add_cohort_options(synth)
    synth.add_argument("--out", required=True, help="output CSV path")
    synth.set_defaults(func=cmd_synth)
    return parser


def _cohort_from_args(args: argparse.Namespace):
    h_values, drifts = args.h_values, args.drifts
    if len(drifts) != len(h_values):
        raise HurstLabError("--drifts must list one value per --h-values entry")
    if len(set(h_values)) != len(h_values):
        raise HurstLabError("each --h-values entry may appear only once")
    drift_per_h = dict(zip(h_values, drifts))
    return generate_drifted_cohort(
        args.n, args.length, h_values, drift_per_h, seed=args.seed, scale=args.fbm_scale
    )


def _overrides(args: argparse.Namespace) -> dict:
    """The estimator settings the user set on the command line."""
    names = ("q", "tau_max", "k_min", "k_max")
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def cmd_run(args: argparse.Namespace) -> int:
    if args.input and args.cohort_option:
        raise HurstLabError(f"{args.cohort_option} applies only to --synthetic-cohort, not to --input")
    methods = args.methods
    windows = sorted(set(args.windows))
    if not windows:
        raise HurstLabError("at least one window size required")
    # every setting is checked against its window before any data is read
    overrides = _overrides(args)
    specs = [
        ScanSpec(
            window=window,
            roll_step=window if args.non_overlapping else args.roll,
            methods=tuple(methods),
            configs={
                m: replace(default_config(m, window, dfa_mode=args.dfa_profile), **overrides) for m in methods
            },
        )
        for window in windows
    ]
    if args.input:
        universe = ingest_dir(args.input) if Path(args.input).is_dir() else ingest_csv(args.input)
    else:
        universe = _cohort_from_args(args)
    out_dir = Path(args.out)
    # Groups are written into a directory beside --out's nearest existing ancestor and moved into
    # --out only once every group has succeeded, so a failed run creates no directory and leaves --out as it was.
    target = out_dir.resolve()
    stage_in = next((p for p in target.parents if p.is_dir()), target)
    with tempfile.TemporaryDirectory(prefix=f".{target.name}.", dir=stage_in) as staging:
        summary_reports, total_diagnostics = _write_groups(args, universe, specs, Path(staging))
        target.mkdir(parents=True, exist_ok=True)
        for path in sorted(Path(staging).iterdir()):
            path.replace(target / path.name)
    for method in methods:
        print(render_method_table(summary_reports[method]))
    print(f"universe: {len(universe)} instruments; skipped estimates/series: {total_diagnostics}")
    print(f"reports written to {out_dir}")
    return 0


def _write_groups(args: argparse.Namespace, universe, specs: list[ScanSpec], out_dir: Path):
    """Scan each spec and write every (window, method) group's files into ``out_dir``.

    Returns the quintile reports per method and the number of skipped
    estimates and series.  An error names the group it came from.
    """
    methods = args.methods
    ext = "txt" if args.format == "table" else "csv"
    render = (lambda rep: render_method_table([rep])) if args.format == "table" else report_csv
    summary_reports: dict[Method, list] = {m: [] for m in methods}
    total_diagnostics = 0
    for spec in specs:
        result = scan(universe, spec)
        total_diagnostics += len(result.diagnostics)
        for method, pool in result.pools.items():
            tag = f"{method.value.lower()}_w{spec.window}"
            if args.exclude_suspect:
                pool = pool.select(~pool.suspect)
            (out_dir / f"observations_{tag}.csv").write_text(observations_csv(pool), encoding="utf-8")
            try:
                quintile = report(pool, scheme="quintile")
                tail = report(pool, scheme="tail")
            except HurstLabError as exc:
                # an empty or thin pool is the symptom; the first skip in this group names its cause
                skip = next((d.reason for d in result.diagnostics if d.method in (method, None)), None)
                cause = f" (first skip: {skip})" if skip else ""
                raise HurstLabError(f"{tag}: {exc}{cause}") from exc
            summary_reports[method].append(quintile)
            (out_dir / f"quintile_{tag}.{ext}").write_text(render(quintile), encoding="utf-8")
            (out_dir / f"tail_{tag}.{ext}").write_text(render(tail), encoding="utf-8")
    return summary_reports, total_diagnostics


def cmd_synth(args: argparse.Namespace) -> int:
    cohort = _cohort_from_args(args)
    write_csv(cohort, args.out)
    print(f"wrote {len(cohort)} series of length {args.length} to {args.out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (HurstLabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
