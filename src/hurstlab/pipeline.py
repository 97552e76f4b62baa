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
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DuplicateInstrument, EmptyUniverse, HurstLabError, TooFewObservations
from .estimators import DFA_MODE_PROFILE, EstimatorConfig, Method, default_config, estimate_rows, is_suspect
from .series import PriceSeries, to_log_prices

__all__ = [
    "TRADING_DAYS_PER_YEAR",
    "QUINTILE_LABELS",
    "TAIL_LABELS",
    "ANY_LABEL",
    "ScanSpec",
    "Observation",
    "Diagnostic",
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
    """One scan's geometry and estimator selection."""

    window: int
    roll_step: int = 20
    methods: tuple[Method, ...] = (Method.GHE, Method.DFA, Method.GM2)
    configs: Mapping[Method, EstimatorConfig] | None = None
    dfa_mode: str = DFA_MODE_PROFILE

    def __post_init__(self):
        if self.window < 32:
            raise ValueError(f"window must be >= 32, got {self.window}")
        if self.roll_step < 1:
            raise ValueError(f"roll_step must be >= 1, got {self.roll_step}")
        if not self.methods:
            raise ValueError("at least one method required")
        object.__setattr__(self, "methods", tuple(self.methods))

    def config_for(self, method: Method) -> EstimatorConfig:
        if self.configs is not None and method in self.configs:
            return self.configs[method]
        return default_config(method, self.window, dfa_mode=self.dfa_mode)


@dataclass(frozen=True)
class Observation:
    """One (instrument, window-end, method) record of the protocol."""

    instrument_id: str
    window_end: int
    method: Method
    h: float
    suspect: bool
    forward_log_return: float
    forward_days: int


@dataclass(frozen=True)
class Diagnostic:
    """A skipped series or estimate, with the reason it was skipped."""

    instrument_id: str
    window_end: int | None
    method: Method | None
    reason: str


@dataclass(frozen=True)
class ScanResult:
    observations: tuple[Observation, ...]
    diagnostics: tuple[Diagnostic, ...] = field(default=())

    def for_group(self, window: int, method: Method) -> tuple[Observation, ...]:
        return tuple(
            o for o in self.observations if o.method is method and o.forward_days == window
        )


def window_end_positions(length: int, window: int, roll_step: int) -> list[int]:
    """0-based window-end indices with a full trailing and forward window."""
    last = length - 1 - window
    return list(range(window - 1, last + 1, roll_step))


def scan(universe: Iterable[PriceSeries], spec: ScanSpec) -> ScanResult:
    """Run the rolling protocol over every instrument in the universe.

    Each instrument's windows form one ``(n_windows, window)`` matrix of
    log prices, and every method estimates all of its rows in one call.
    Estimator failures at a position skip that (position, method) pair and
    are tallied as diagnostics; series too short for even one observation
    produce a single diagnostic.  Instrument ids must be unique.
    """
    series_list = sorted(universe, key=lambda s: s.instrument_id)
    if not series_list:
        raise EmptyUniverse("scan requires at least one price series")
    for a, b in zip(series_list, series_list[1:]):
        if a.instrument_id == b.instrument_id:
            raise DuplicateInstrument(
                f"instrument {a.instrument_id} appears more than once in the universe", a.instrument_id
            )
    configs = {method: spec.config_for(method) for method in spec.methods}
    observations: list[Observation] = []
    diagnostics: list[Diagnostic] = []
    for series in series_list:
        log = to_log_prices(series)
        values = log.values
        if len(values) < 2 * spec.window:
            diagnostics.append(
                Diagnostic(
                    series.instrument_id,
                    None,
                    None,
                    f"series of {len(values)} points is shorter than 2*window={2 * spec.window}",
                )
            )
            continue
        ends = np.array(window_end_positions(len(values), spec.window, spec.roll_step))
        windows = sliding_window_view(values, spec.window)[ends - spec.window + 1]
        forwards = (values[ends + spec.window] - values[ends]).tolist()
        per_method = []
        for method in spec.methods:
            try:
                h, fits = estimate_rows(method, windows, configs[method], dfa_mode=spec.dfa_mode)
            except HurstLabError as exc:
                h, errors = [math.nan] * len(ends), dict.fromkeys(range(len(ends)), exc)
            else:
                h, errors = h.tolist(), fits.errors
            per_method.append((method, h, errors))
        for i, window_end in enumerate(log.dates[ends].tolist()):
            for method, h, errors in per_method:
                if i in errors:
                    diagnostics.append(Diagnostic(series.instrument_id, window_end, method, str(errors[i])))
                    continue
                observations.append(
                    Observation(
                        instrument_id=series.instrument_id,
                        window_end=window_end,
                        method=method,
                        h=h[i],
                        suspect=is_suspect(h[i]),
                        forward_log_return=forwards[i],
                        forward_days=spec.window,
                    )
                )
    observations.sort(key=lambda o: (o.instrument_id, o.window_end, o.method.value))
    return ScanResult(tuple(observations), tuple(diagnostics))


def _pooled(observations: Iterable[Observation]) -> list[Observation]:
    obs = list(observations)
    if obs:
        methods = {o.method for o in obs}
        windows = {o.forward_days for o in obs}
        if len(methods) > 1 or len(windows) > 1:
            raise ValueError("observations must share one (window, method) pool")
    return obs


def _bucket_indices(hs: np.ndarray, scheme: str) -> np.ndarray:
    """Index into the scheme's labels of each exponent's bucket; -1 for none.

    The index counts the percentile thresholds at or below the exponent,
    so boundary ties go to the upper bucket.
    """
    if scheme not in _MIN_OBS:
        raise ValueError(f"unknown scheme {scheme!r}")
    if len(hs) < _MIN_OBS[scheme]:
        raise TooFewObservations(
            f"{scheme} bucketing needs >= {_MIN_OBS[scheme]} observations, got {len(hs)}"
        )
    if scheme == "quintile":
        return np.searchsorted(np.percentile(hs, [20, 40, 60, 80]), hs, side="right")
    return np.searchsorted(np.percentile(hs, [90, 95]), hs, side="right") - 1


def bucketize(observations: Iterable[Observation], scheme: str = "quintile") -> dict[Observation, str]:
    """Assign each observation a percentile bucket of its exponent.

    Percentiles are linear interpolations between order statistics over
    the pooled exponents; boundary ties go to the upper bucket.  The
    quintile scheme covers every observation; the tail scheme labels only
    observations at or above the 90th percentile.
    """
    obs = _pooled(observations)
    indices = _bucket_indices(np.array([o.h for o in obs]), scheme)
    labels = _LABELS[scheme]
    return {o: labels[i] for o, i in zip(obs, indices.tolist()) if i >= 0}


def annualize(mean_log_return: float, window: int) -> float:
    """Geometric annualization of a mean per-window log return, in percent."""
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    return (math.exp(mean_log_return * TRADING_DAYS_PER_YEAR / window) - 1.0) * 100.0


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
    degenerate: bool


def _bucket_row(label: str, forwards: np.ndarray, window: int) -> BucketRow:
    if len(forwards) == 0:
        return BucketRow(label, 0, math.nan)
    mean = math.fsum(forwards.tolist()) / len(forwards)
    return BucketRow(label, len(forwards), annualize(mean, window))


def report(
    observations: Iterable[Observation],
    window: int,
    method: Method,
    scheme: str = "quintile",
) -> BucketReport:
    """Bucketed annualized-return table plus the unconditional "any" row."""
    obs = _pooled(observations)
    for o in obs:
        if o.method is not method or o.forward_days != window:
            raise ValueError(
                f"observation {o.instrument_id}@{o.window_end} does not belong to "
                f"({window}, {method.value})"
            )
    indices = _bucket_indices(np.array([o.h for o in obs]), scheme)
    forwards = np.array([o.forward_log_return for o in obs])
    rows = tuple(
        _bucket_row(label, forwards[indices == i], window) for i, label in enumerate(_LABELS[scheme])
    )
    benchmark = _bucket_row(ANY_LABEL, forwards, window)
    degenerate = any(row.count == 0 for row in rows)
    return BucketReport(window, method, scheme, rows, benchmark, degenerate)
