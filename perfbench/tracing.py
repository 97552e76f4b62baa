"""In-memory span tracer for hurstlab, and the per-layer metrics read from its spans.

The tracer records nothing inside the package.  It replaces public names
that callers look up (``hurstlab.cli.scan``, ``hurstlab.estimators.ghe``,
...) with wrappers that record one span per call, and puts the original
objects back when the traced operation ends.  A name that no longer
exists is skipped, so a boundary a later version stops calling reads as
count 0 and its time shows up in the caller's self time.

A span is ``[parent, run, name, tag, start, end, error, size]``: ``parent``
is the index of the enclosing span (-1 for none), ``run`` names the timed
operation (``op0``, ``op1``, ...) or ``setup``, ``tag`` a (method, length)
label for estimator spans, ``error`` the class name of an exception that
left the call, and ``size`` a count the boundary produced (observations,
rows, bytes).
"""

from __future__ import annotations

import contextlib
import csv
import functools
import math
from time import perf_counter

from workloads import METHODS, Calibrate, ScanDefault

PARENT, RUN, NAME, TAG, START, END, ERROR, SIZE = range(8)
WINDOWS = ScanDefault.SIZES["full"]["windows"]
LENGTHS = Calibrate.SIZES["full"]["lengths"]
FAILURE_CLASSES = ("DegenerateRegression", "SeriesTooShort", "ZeroSignal", "NonFiniteInput")
METHOD_SPANS = tuple(f"estimators.{m}" for m in METHODS)


def _measure(fn, *args):
    """A tag or size, or None when the call no longer has the shape ``fn`` expects."""
    try:
        return fn(*args)
    except (AttributeError, IndexError, TypeError):
        return None


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def _rows(universe) -> int:
    return sum(len(series) for series in universe)


def _rows_returned(args, result) -> int:
    return _rows(result)


def _rows_passed(args, result) -> int:
    return _rows(args[0])


def _observations(args, result) -> int:
    return len(result.observations)


def _utf8_bytes(args, result) -> int:
    return len(result.encode("utf-8"))


def _estimate_tag(args) -> str:
    method, series = args[0], args[1]
    return f"{method.value.lower()}.w{len(series)}"


def _length_tag(args) -> str:
    return f"L{len(args[0])}"


def boundaries(hurstlab) -> list[tuple]:
    """(owner, attribute, span name, tag(args), size(args, result)) of every wrapped name.

    Each entry is a name some caller looks up at call time.
    """
    cli, pipeline = hurstlab.cli, hurstlab.pipeline
    estimators, ingest, synthetic = hurstlab.estimators, hurstlab.ingest, hurstlab.synthetic
    scan_result = getattr(pipeline, "ScanResult", None)
    return [
        (cli, "main", "cli.main", None, None),
        (cli, "scan", "pipeline.scan", None, _observations),
        (pipeline, "scan", "pipeline.scan", None, _observations),
        (cli, "report", "pipeline.report", None, None),
        (pipeline, "report", "pipeline.report", None, None),
        (pipeline, "bucketize", "pipeline.bucketize", None, None),
        (scan_result, "for_group", "pipeline.for_group", None, None),
        (pipeline, "estimate", "estimators.estimate", _estimate_tag, None),
        (estimators, "ghe", "estimators.ghe", _length_tag, None),
        (estimators, "dfa", "estimators.dfa", _length_tag, None),
        (estimators, "gm2", "estimators.gm2", _length_tag, None),
        (estimators, "ols_slope_xy", "series.ols_slope_xy", None, None),
        (pipeline, "to_log_prices", "series.to_log_prices", None, None),
        (cli, "generate_drifted_cohort", "synthetic.cohort", None, None),
        (synthetic, "generate_drifted_cohort", "synthetic.cohort", None, None),
        (synthetic, "generate_fbm", "synthetic.fbm", None, None),
        (cli, "ingest_csv", "ingest.read", None, _rows_returned),
        (ingest, "write_csv", "ingest.write", None, _rows_passed),
        (cli, "observations_csv", "reporting.observations_csv", None, _utf8_bytes),
        (cli, "render_report_table", "reporting.render_report_table", None, _utf8_bytes),
        (cli, "render_method_table", "reporting.render_method_table", None, _utf8_bytes),
        (cli, "report_csv", "reporting.report_csv", None, _utf8_bytes),
    ]


class Tracer:
    """Spans in memory, written out once at the end of a run."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._run = "setup"
        self._patches: list[tuple] = []

    @contextlib.contextmanager
    def operation(self, run: str, entries):
        """Wrap ``entries`` and record a root span named ``run``; calls inside become its descendants."""
        self._install(entries)
        self._run = run
        span = self._open(run, None)
        span[START] = perf_counter()
        try:
            yield
        finally:
            span[END] = perf_counter()
            self._stack.pop()
            self._uninstall()

    def _install(self, entries) -> None:
        for owner, attr, name, tag_of, size_of in entries:
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                continue
            setattr(owner, attr, self._wrap(original, name, tag_of, size_of))
            self._patches.append((owner, attr, original))

    def _uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _open(self, name: str, tag) -> list:
        span = [self._stack[-1] if self._stack else -1, self._run, name, tag, 0.0, 0.0, None, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _wrap(self, original, name, tag_of, size_of):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = self._open(name, _measure(tag_of, args) if tag_of else None)
            span[START] = perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                span[END] = perf_counter()
                span[ERROR] = type(exc).__name__
                raise
            finally:
                self._stack.pop()
            span[END] = perf_counter()
            if size_of is not None:
                span[SIZE] = _measure(size_of, args, result)
            return result

        return traced

    def write_csv(self, path) -> None:
        """One line per span; times in microseconds from the first span's start."""
        origin = self.spans[0][START] if self.spans else 0.0
        with open(path, "w", newline="", encoding="utf-8") as f:
            out = csv.writer(f)
            out.writerow(("id", "parent", "run", "name", "tag", "start_us", "end_us", "error", "size"))
            for i, s in enumerate(self.spans):
                out.writerow((
                    i, s[PARENT], s[RUN], s[NAME], s[TAG] or "",
                    f"{(s[START] - origin) * 1e6:.3f}", f"{(s[END] - origin) * 1e6:.3f}",
                    s[ERROR] or "", "" if s[SIZE] is None else s[SIZE],
                ))


# (name, unit, better) of every per-layer metric, in the order they are printed.
PER_LAYER = (
    [
        ("estimators.busy_s", "s", "lower"),
        ("estimators.calls", "count", "lower"),
    ]
    + [(f"estimators.{m}.w{w}.us_per_estimate", "us", "lower") for m in METHODS for w in WINDOWS]
    + [(f"estimators.{m}.L{n}.us_per_call", "us", "lower") for m in METHODS for n in LENGTHS]
    + [(f"estimators.failed.{c}", "count", "lower") for c in FAILURE_CLASSES]
    + [
        ("estimators.failed.other", "count", "lower"),
        ("estimators.skipped_ratio", "ratio", "lower"),
        ("series.ols_fits", "count", "lower"),
        ("pipeline.scan_s", "s", "lower"),
        ("pipeline.scan_self_s", "s", "lower"),
        ("pipeline.for_group_s", "s", "lower"),
        ("pipeline.report_s", "s", "lower"),
        ("pipeline.bucketize_s", "s", "lower"),
        ("pipeline.observations", "count", "higher"),
        ("ingest.write_s", "s", "lower"),
        ("ingest.write_rows_per_s", "rows/s", "higher"),
        ("ingest.read_s", "s", "lower"),
        ("ingest.read_rows_per_s", "rows/s", "higher"),
        ("synthetic.fbm_us", "us", "lower"),
        ("synthetic.paths", "count", "lower"),
        ("synthetic.cohort_s", "s", "lower"),
        ("reporting.render_s", "s", "lower"),
        ("reporting.bytes", "B", "lower"),
        ("cli.self_s", "s", "lower"),
        ("trace.overhead", "ratio", "lower"),
    ]
)


def layer_metrics(spans: list[list], n_ops: int) -> dict[str, float]:
    """Per-layer values for one traced operation, plus set-up.

    Sums and counts are averaged over the ``n_ops`` traced operations; spans
    recorded during set-up are added once on top.  Per-call figures are
    means over every matching span.  A boundary never called reads 0.
    Leaves ``estimators.skipped_ratio`` and ``trace.overhead`` to the caller.
    """
    weight = [1.0 if s[RUN] == "setup" else 1.0 / n_ops for s in spans]
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]

    def total(pick, value=lambda i, s: s[END] - s[START]) -> float:
        return float(sum(weight[i] * value(i, s) for i, s in enumerate(spans) if pick(i, s)))

    def mean_us(pick) -> float:
        durations = [s[END] - s[START] for i, s in enumerate(spans) if pick(i, s)]
        return 1e6 * math.fsum(durations) / len(durations) if durations else 0.0

    def named(*names):
        return lambda i, s: s[NAME] in names

    def self_time(i, s):
        return (s[END] - s[START]) - child_time[i]

    def count(i, s):
        return 1.0

    def size(i, s):
        return s[SIZE] or 0

    def outermost_estimator(i, s):
        return _layer(s[NAME]) == "estimators" and (
            s[PARENT] < 0 or _layer(spans[s[PARENT]][NAME]) != "estimators"
        )

    def direct_call(i, s):
        return s[NAME] in METHOD_SPANS and s[PARENT] >= 0 and spans[s[PARENT]][PARENT] < 0

    out = {
        "estimators.busy_s": total(outermost_estimator),
        "estimators.calls": total(named(*METHOD_SPANS), count),
    }
    for m in METHODS:
        for w in WINDOWS:
            tag = f"{m}.w{w}"
            out[f"estimators.{m}.w{w}.us_per_estimate"] = mean_us(
                lambda i, s, tag=tag: s[NAME] == "estimators.estimate" and s[TAG] == tag
            )
    for m in METHODS:
        for n in LENGTHS:
            name, tag = f"estimators.{m}", f"L{n}"
            out[f"estimators.{m}.L{n}.us_per_call"] = mean_us(
                lambda i, s, name=name, tag=tag: direct_call(i, s) and s[NAME] == name and s[TAG] == tag
            )
    failed = lambda i, s: outermost_estimator(i, s) and s[ERROR] is not None
    for cls in FAILURE_CLASSES:
        out[f"estimators.failed.{cls}"] = total(lambda i, s, cls=cls: failed(i, s) and s[ERROR] == cls, count)
    out["estimators.failed.other"] = total(
        lambda i, s: failed(i, s) and s[ERROR] not in FAILURE_CLASSES, count
    )
    out["series.ols_fits"] = total(named("series.ols_slope_xy"), count)
    out["pipeline.scan_s"] = total(named("pipeline.scan"))
    out["pipeline.scan_self_s"] = total(named("pipeline.scan"), self_time)
    out["pipeline.for_group_s"] = total(named("pipeline.for_group"))
    out["pipeline.report_s"] = total(named("pipeline.report"))
    out["pipeline.bucketize_s"] = total(named("pipeline.bucketize"))
    out["pipeline.observations"] = total(named("pipeline.scan"), size)
    for side in ("write", "read"):
        seconds = total(named(f"ingest.{side}"))
        rows = total(named(f"ingest.{side}"), size)
        out[f"ingest.{side}_s"] = seconds
        out[f"ingest.{side}_rows_per_s"] = rows / seconds if seconds > 0 else 0.0
    out["synthetic.fbm_us"] = mean_us(named("synthetic.fbm"))
    out["synthetic.paths"] = total(named("synthetic.fbm"), count)
    out["synthetic.cohort_s"] = total(named("synthetic.cohort"))
    reporting = lambda i, s: _layer(s[NAME]) == "reporting"
    out["reporting.render_s"] = total(reporting)
    out["reporting.bytes"] = total(reporting, size)
    out["cli.self_s"] = total(named("cli.main"), self_time)
    return out
