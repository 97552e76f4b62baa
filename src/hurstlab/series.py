"""Core series data model and the least-squares slope primitive.

``PriceSeries`` holds one instrument's positive price history on integer
trading-day ordinals, ``LogSeries`` its natural-log transform, and
``fit_rows`` the row-wise least-squares line every log-log scaling fit in
this package reduces to (``ols_slope_xy`` and ``ols_slope`` are its
one-row calls).  All types are immutable after construction and
all operations are pure functions, so values can be shared freely across
threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .errors import DegenerateRegression, HurstLabError, NonFiniteInput, NonPositivePrice, SeriesTooShort

__all__ = [
    "PriceSeries",
    "LogSeries",
    "RegressionFit",
    "RowFits",
    "to_log_prices",
    "log_returns",
    "ols_slope",
    "ols_slope_xy",
    "fit_rows",
]


def _frozen_array(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype, copy=True)
    if arr.ndim != 1:
        raise ValueError("series data must be one-dimensional")
    arr.flags.writeable = False
    return arr


def _check_dates(dates: np.ndarray) -> None:
    if len(dates) > 1 and not np.all(np.diff(dates) > 0):
        raise ValueError("dates must be strictly increasing with no duplicates")


@dataclass(frozen=True, eq=False)
class PriceSeries:
    """One instrument's gap-free, date-ordered positive price history."""

    instrument_id: str
    dates: np.ndarray = field(repr=False)
    prices: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "dates", _frozen_array(self.dates, np.int64))
        object.__setattr__(self, "prices", _frozen_array(self.prices, np.float64))
        if len(self.dates) != len(self.prices):
            raise ValueError("dates and prices must have equal length")
        _check_dates(self.dates)
        if not np.all(np.isfinite(self.prices)):
            raise NonFiniteInput(f"{self.instrument_id}: non-finite price")
        if np.any(self.prices <= 0.0):
            raise NonPositivePrice(f"{self.instrument_id}: prices must be strictly positive")

    def __len__(self) -> int:
        return len(self.prices)


@dataclass(frozen=True, eq=False)
class LogSeries:
    """Natural-log price values on the same date index as the source prices."""

    instrument_id: str
    dates: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "dates", _frozen_array(self.dates, np.int64))
        object.__setattr__(self, "values", _frozen_array(self.values, np.float64))
        if len(self.dates) != len(self.values):
            raise ValueError("dates and values must have equal length")
        _check_dates(self.dates)

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class RegressionFit:
    """Least-squares line through n_points (x, y) pairs."""

    slope: float
    intercept: float
    r_squared: float
    n_points: int


def to_log_prices(series: PriceSeries) -> LogSeries:
    """Natural log of each price; dates carried through unchanged."""
    if np.any(series.prices <= 0.0):
        raise NonPositivePrice(f"{series.instrument_id}: prices must be strictly positive")
    return LogSeries(series.instrument_id, series.dates, np.log(series.prices))


def log_returns(series: LogSeries) -> np.ndarray:
    """First differences of the log values; output is one element shorter."""
    if len(series) < 2:
        raise SeriesTooShort(f"{series.instrument_id}: need at least 2 points, got {len(series)}")
    return np.diff(series.values)


@dataclass(frozen=True, eq=False)
class RowFits:
    """Least-squares lines through every row of a ``(rows, points)`` table.

    A row without a line holds NaN, and ``errors`` maps its index to the
    exception the one-row ``ols_slope_xy`` raises for it.
    """

    slope: np.ndarray
    intercept: np.ndarray
    r_squared: np.ndarray
    n_points: np.ndarray
    errors: dict[int, HurstLabError]

    def row(self, i: int) -> RegressionFit:
        """Row ``i`` as a ``RegressionFit``; raises that row's error if it has one."""
        if i in self.errors:
            raise self.errors[i]
        return RegressionFit(
            float(self.slope[i]), float(self.intercept[i]), float(self.r_squared[i]), int(self.n_points[i])
        )


def fit_rows(x, y, keep=None) -> RowFits:
    """Least-squares line of each row of ``y`` on ``x`` over the points ``keep`` marks.

    ``x`` is one row shared by every row of the 2-D ``y``; ``keep`` (same
    shape as ``y``, default all) drops points per row, and dropped points
    may hold any value.  ``r_squared = 1 - SSres/SStot`` is defined as 1
    when both sums of squares vanish (all points on a horizontal line) and
    clamped into [0, 1] against rounding.  Each row is computed on its own:
    its result does not depend on the other rows.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if keep is None:
        n = np.full(len(y), y.shape[1])
    else:
        x = np.where(keep, x, 0.0)
        y = np.where(keep, y, 0.0)
        n = keep.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x_mean = x.sum(axis=-1) / n
        y_mean = y.sum(axis=1) / n
        dx = x - x_mean[:, None]
        dy = y - y_mean[:, None]
        if keep is not None:
            dx *= keep
            dy *= keep
        sxx = (dx * dx).sum(axis=-1)
        slope = (dx * dy).sum(axis=1) / sxx
        intercept = y_mean - slope * x_mean
        resid = y - (slope[:, None] * x + intercept[:, None])
        if keep is not None:
            resid *= keep
        ss_res = (resid * resid).sum(axis=1)
        ss_tot = (dy * dy).sum(axis=1)
        r_squared = np.minimum(1.0, np.maximum(0.0, np.where(ss_tot == 0.0, 1.0, 1.0 - ss_res / ss_tot)))
    errors: dict[int, HurstLabError] = {}
    # each failure below leaves a non-finite slope
    for i in np.flatnonzero(~np.isfinite(slope)).tolist():
        if not (np.isfinite(x[i] if x.ndim == 2 else x).all() and np.isfinite(y[i]).all()):
            errors[i] = NonFiniteInput("regression input contains NaN or infinity")
        elif n[i] < 2:
            errors[i] = DegenerateRegression(f"need at least 2 points, got {n[i]}")
        elif sxx[i] == 0.0:
            errors[i] = DegenerateRegression("all x values identical")
    return RowFits(slope, intercept, r_squared, n, errors)


def ols_slope_xy(x, y) -> RegressionFit:
    """``fit_rows`` on one row: the least-squares line of y on x, raising its error."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be one-dimensional and equally long")
    return fit_rows(x, y[None, :]).row(0)


def ols_slope(points: Iterable[tuple[float, float]]) -> RegressionFit:
    """``ols_slope_xy`` over a sequence of (x, y) pairs."""
    pts = np.array(list(points), dtype=np.float64)
    if pts.size == 0:
        raise DegenerateRegression("need at least 2 points, got 0")
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must be (x, y) pairs")
    return ols_slope_xy(pts[:, 0], pts[:, 1])
