"""Rolling-window protocol: exponent scan, forward returns, percentile buckets.

For every instrument the scanner walks window-end positions spaced
``roll_step`` trading days apart.  At each position it estimates the
self-similarity exponent on the trailing ``window`` log prices and pairs
it with the log price change over the *next* ``window`` days; positions
without a complete forward window yield no observation.  Observations
are then pooled per (window, method), bucketed by percentiles of the
exponent, and summarized as annualized expected returns per bucket next
to an unconditional benchmark row.

Everything here is a pure function of its inputs.  Observations are
independent across (instrument, window-end) pairs, and all aggregations
are order-independent (compensated sums, canonical sorting), so a
permuted universe produces bit-identical reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DuplicateInstrument, EmptyUniverse, HurstLabError, TooFewObservations
from .estimators import (
    EstimatorConfig, Method, check_length, default_config, fit_statistic, is_suspect, require_integers, statistic
)
from .series import PriceSeries

__all__ = [
    "TRADING_DAYS_PER_YEAR",
    "QUINTILE_LABELS",
    "TAIL_LABELS",
    "ANY_LABEL",
    "ScanSpec",
    "Diagnostic",
    "ObservationPool",
    "ScanResult",
    "scan",
    "bucketize",
    "annualize",
    "report",
    "BucketRow",
    "BucketReport",
]

TRADING_DAYS_PER_YEAR = 252

QUINTILE_LABELS = ("very low", "low", "normal", "high", "very high")
TAIL_LABELS = ("p90–95", "p>95")
ANY_LABEL = "any"

_MIN_OBS = {"quintile": 20, "tail": 40}
_LABELS = {"quintile": QUINTILE_LABELS, "tail": TAIL_LABELS}


@dataclass(frozen=True)
class ScanSpec:
    """One scan's geometry and estimator configs, each checked against ``window`` when built.

    ``configs`` keeps a read-only copy of those given; ``scan`` derives the
    others' defaults for ``window``.  Equal specs hash equal.
    """

    window: int
    roll_step: int = 20
    methods: tuple[Method, ...] = (Method.GHE, Method.DFA, Method.GM2)
    configs: Mapping[Method, EstimatorConfig] = field(default_factory=dict)

    def __post_init__(self):
        require_integers(self, "window", "roll_step")
        if self.roll_step < 1:
            raise ValueError(f"roll_step must be >= 1, got {self.roll_step}")
        if not self.methods:
            raise ValueError("at least one method required")
        object.__setattr__(self, "methods", tuple(self.methods))
        if len(set(self.methods)) != len(self.methods):
            raise ValueError("each method may appear only once")
        object.__setattr__(self, "configs", MappingProxyType(dict(self.configs)))
        for method in self.methods:
            if method in self.configs:
                check_length(method, self.configs[method], self.window)
            else:
                default_config(method, self.window)

    def __hash__(self) -> int:
        return hash((self.window, self.roll_step, self.methods, frozenset(self.configs.items())))

    def __reduce__(self):
        # a mappingproxy does not pickle; the spec pickles and copies through its fields
        return ScanSpec, (self.window, self.roll_step, self.methods, dict(self.configs))


@dataclass(frozen=True)
class Diagnostic:
    """A skipped series or estimate, with the reason it was skipped."""

    instrument_id: str
    window_end: int | None
    method: Method | None
    reason: str


@dataclass(frozen=True, eq=False)
class ObservationPool:
    """The observations of one (window, method) pool, one array per column.

    Rows are in canonical (instrument id, window end) order.  Pools compare
    equal when their window, method and every column are equal.
    """

    window: int
    method: Method
    instrument_id: np.ndarray  # of str
    window_end: np.ndarray
    h: np.ndarray
    forward_log_return: np.ndarray

    def __len__(self) -> int:
        return len(self.h)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ObservationPool):
            return NotImplemented
        return (self.window, self.method) == (other.window, other.method) and all(
            np.array_equal(getattr(self, column), getattr(other, column)) for column in _COLUMNS
        )

    @property
    def suspect(self) -> np.ndarray:
        """``is_suspect`` of each row's exponent."""
        return is_suspect(self.h)

    def select(self, keep: np.ndarray) -> ObservationPool:
        """The rows ``keep`` marks, in the same order."""
        return replace(self, **{column: getattr(self, column)[keep] for column in _COLUMNS})


_COLUMNS = ("instrument_id", "window_end", "h", "forward_log_return")


@dataclass(frozen=True)
class ScanResult:
    """One scan's pool per method, in the spec's order, and what it skipped."""

    pools: dict[Method, ObservationPool]
    diagnostics: tuple[Diagnostic, ...] = field(default=())


def window_end_positions(length: int, window: int, roll_step: int) -> list[int]:
    """0-based window-end indices with a full trailing and forward window."""
    last = length - 1 - window
    return list(range(window - 1, last + 1, roll_step))


# Window points per batch of instruments, the one cutting rule of a scan: a few hundred
# rows amortize each statistic and fit call, and a batch's matrix stays in cache.
_BATCH_POINTS = 2**15


def scan(universe: Iterable[PriceSeries], spec: ScanSpec) -> ScanResult:
    """Run the rolling protocol over every instrument in the universe.

    A series too short for even one observation (fewer than ``2*window``
    points) gives a single diagnostic.  The rest are taken in id order, in
    the batches of ``_batches``.  Each method's statistic is computed and
    fitted once per batch, then dropped, so memory grows with the longest
    series and not with the universe.  The rows a fit keeps extend that
    method's pool, so each pool is in canonical order without a sort.  The
    spec has checked each config against the window, so an estimator fails
    one row at a time: that (window end, method) pair is skipped with a
    diagnostic.  Diagnostics come in instrument, window-end and method
    order.  Ids must be unique.
    """
    series_list = sorted(universe, key=lambda s: s.instrument_id)
    if not series_list:
        raise EmptyUniverse("scan requires at least one price series")
    for a, b in zip(series_list, series_list[1:]):
        if a.instrument_id == b.instrument_id:
            raise DuplicateInstrument(
                f"instrument {a.instrument_id} appears more than once in the universe", a.instrument_id
            )
    diagnostics, scannable = [], []
    for series in series_list:
        if len(series) >= 2 * spec.window:
            scannable.append(series)
        else:
            reason = f"series of {len(series)} points is shorter than 2*window={2 * spec.window}"
            diagnostics.append(Diagnostic(series.instrument_id, None, None, reason))
    configs = {m: spec.configs[m] if m in spec.configs else default_config(m, spec.window) for m in spec.methods}
    empty = (np.empty(0, object), np.empty(0, np.int64), np.empty(0), np.empty(0))
    columns = {method: [empty] for method in spec.methods}  # (id, window end, h, forward) parts
    # DFA and GM2 read a batch's windows joined into one matrix; when windows overlap, GHE reads each
    # instrument's view in place instead, so each lag's increments are computed once per series
    in_place = (Method.GHE,) if spec.roll_step < spec.window else ()
    for ids, window_ends, forwards, windows, views in _batches(scannable, spec):
        for method in spec.methods:
            blocks = views if method in in_place else [windows]
            stat = np.concatenate([statistic(method, block, configs[method]) for block in blocks])
            h, fits = fit_statistic(method, stat, configs[method])
            keep = ~np.isnan(h)
            columns[method].append((ids[keep], window_ends[keep], h[keep], forwards[keep]))
            diagnostics += [
                Diagnostic(ids[i], int(window_ends[i]), method, str(exc)) for i, exc in fits.errors.items()
            ]
    # a short series has no other diagnostic under its id, so its window end and method rank are moot
    rank = {method: k for k, method in enumerate(spec.methods)}
    diagnostics.sort(key=lambda d: (d.instrument_id, d.window_end or 0, rank.get(d.method, 0)))
    pools = {}
    for method, parts in columns.items():
        ids, window_end, h, forward = (np.concatenate(column) for column in zip(*parts))
        pools[method] = ObservationPool(spec.window, method, ids, window_end, h, forward)
    return ScanResult(pools, tuple(diagnostics))


def _batches(series_list: list[PriceSeries], spec: ScanSpec):
    """Yield ``(ids, window ends, forward returns, windows, views)`` per batch of consecutive instruments.

    Each series has at least ``2*window`` points.  A batch takes instruments
    until the next would take it past ``_BATCH_POINTS`` window points.  Its
    columns hold one entry per row of ``windows``, its matrix of log-price
    windows; ``views`` holds the same rows as one view per instrument.
    """
    parts, rows = [], 0
    for series in series_list:
        values = np.log(series.prices)
        ends = np.array(window_end_positions(len(values), spec.window, spec.roll_step))
        if parts and (rows + len(ends)) * spec.window > _BATCH_POINTS:
            yield *map(np.concatenate, zip(*parts)), [part[3] for part in parts]
            parts, rows = [], 0
        ids = np.full(len(ends), series.instrument_id, dtype=object)
        windows = sliding_window_view(values, spec.window)[:: spec.roll_step][: len(ends)]
        parts.append((ids, series.dates[ends], values[ends + spec.window] - values[ends], windows))
        rows += len(ends)
    if parts:
        yield *map(np.concatenate, zip(*parts)), [part[3] for part in parts]


def bucketize(pool: ObservationPool, scheme: str = "quintile") -> np.ndarray:
    """Index into the scheme's labels of each row's exponent bucket; -1 for none.

    Percentiles are linear interpolations between order statistics over
    the pooled exponents.  The index counts the thresholds at or below the
    exponent, so boundary ties go to the upper bucket.  The quintile scheme
    covers every row; the tail scheme buckets only rows at or above the
    90th percentile.
    """
    if scheme not in _MIN_OBS:
        raise ValueError(f"unknown scheme {scheme!r}")
    if len(pool) < _MIN_OBS[scheme]:
        raise TooFewObservations(
            f"{scheme} bucketing needs >= {_MIN_OBS[scheme]} observations, got {len(pool)}"
        )
    if scheme == "quintile":
        return np.searchsorted(np.percentile(pool.h, [20, 40, 60, 80]), pool.h, side="right")
    return np.searchsorted(np.percentile(pool.h, [90, 95]), pool.h, side="right") - 1


def annualize(mean_log_return: float, window: int) -> float:
    """Geometric annualization of a mean per-window log return, in percent."""
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    try:
        growth = math.exp(mean_log_return * TRADING_DAYS_PER_YEAR / window)
    except OverflowError:
        message = f"annualizing mean log return {mean_log_return:.6g} per {window} days overflows"
        raise HurstLabError(message) from None
    return (growth - 1.0) * 100.0


@dataclass(frozen=True)
class BucketRow:
    label: str
    count: int
    annualized_return: float


@dataclass(frozen=True)
class BucketReport:
    """Annualized expected return per exponent bucket for one (window, method)."""

    window: int
    method: Method
    scheme: str
    rows: tuple[BucketRow, ...]
    benchmark_row: BucketRow


def _bucket_row(label: str, forwards: np.ndarray, window: int) -> BucketRow:
    if len(forwards) == 0:
        return BucketRow(label, 0, math.nan)
    mean = math.fsum(forwards.tolist()) / len(forwards)
    return BucketRow(label, len(forwards), annualize(mean, window))


def report(pool: ObservationPool, scheme: str = "quintile") -> BucketReport:
    """Bucketed annualized-return table of one pool plus the unconditional "any" row."""
    indices = bucketize(pool, scheme)
    forwards = pool.forward_log_return
    rows = tuple(
        _bucket_row(label, forwards[indices == i], pool.window) for i, label in enumerate(_LABELS[scheme])
    )
    benchmark = _bucket_row(ANY_LABEL, forwards, pool.window)
    return BucketReport(pool.window, pool.method, scheme, rows, benchmark)
