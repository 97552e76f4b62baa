"""Core series data model and the least-squares slope primitive.

``PriceSeries`` holds one instrument's positive price history on integer
trading-day ordinals, ``LogSeries`` its natural-log transform, and
``fit_rows`` the row-wise least-squares line every log-log scaling fit in
this package reduces to (``RowFits.row`` gives one row's line).  All
types are immutable after construction and all operations are pure
functions, so values can be shared freely across threads.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateRegression, HurstLabError, InvalidSetting, NonFiniteInput, NonPositivePrice

__all__ = [
    "PriceSeries",
    "LogSeries",
    "RegressionFit",
    "RowFits",
    "fit_rows",
]


def _freeze(series, name: str) -> None:
    """Store ``series.dates`` and ``series.<name>`` as read-only 1-D copies that pair up day by day."""
    for attr, dtype in (("dates", np.int64), (name, np.float64)):
        arr = np.array(getattr(series, attr), dtype=dtype, copy=True)
        if arr.ndim != 1:
            raise InvalidSetting("series data must be one-dimensional")
        arr.flags.writeable = False
        object.__setattr__(series, attr, arr)
    dates = series.dates
    if len(dates) != len(getattr(series, name)):
        raise InvalidSetting(f"dates and {name} must have equal length")
    if len(dates) > 1 and not np.all(np.diff(dates) > 0):
        raise InvalidSetting("dates must be strictly increasing with no duplicates")


@dataclass(frozen=True, eq=False)
class PriceSeries:
    """One instrument's gap-free, date-ordered positive price history."""

    instrument_id: str
    dates: np.ndarray = field(repr=False)
    prices: np.ndarray = field(repr=False)

    def __post_init__(self):
        _freeze(self, "prices")
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
        _freeze(self, "values")

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class RegressionFit:
    """Least-squares line through n_points (x, y) pairs."""

    slope: float
    intercept: float
    r_squared: float
    n_points: int


@dataclass(frozen=True, eq=False)
class RowFits:
    """Least-squares lines through every row of a ``(rows, points)`` table.

    A row without a line holds NaN, and ``errors`` maps its index to the
    exception ``row`` raises for it.
    """

    slope: np.ndarray
    intercept: np.ndarray
    r_squared: np.ndarray
    n_points: np.ndarray
    errors: dict[int, HurstLabError]

    def row(self, i: int) -> RegressionFit:
        """Row ``i`` (negative counts from the end) as a ``RegressionFit``; raises that row's error if it has one."""
        i = range(len(self.slope))[operator.index(i)]
        if i in self.errors:
            raise self.errors[i]
        return RegressionFit(
            float(self.slope[i]), float(self.intercept[i]), float(self.r_squared[i]), int(self.n_points[i])
        )


def fit_rows(x, y) -> RowFits:
    """Least-squares line of each row of the 2-D ``y`` on the one row ``x``.

    ``r_squared = slope * Sxy / Syy``, the squared correlation, from the
    sums the slope uses; it is defined as 1 when Syy vanishes (all points
    on a horizontal line) and clamped into [0, 1] against rounding.  Each
    row is computed on its own: its result does not depend on the other rows.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or y.ndim != 2 or len(x) != y.shape[1]:
        raise InvalidSetting(f"fit_rows needs a 1-D x and a 2-D y with len(x) columns, got shapes {x.shape} and {y.shape}")
    n = y.shape[1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # x is one row: its mean, centred values and Sxx are computed once, not per row
        x_mean = x.sum() / n
        y_mean = y.sum(axis=1) / n
        dx = x - x_mean
        dy = y - y_mean[:, None]
        sxx = (dx * dx).sum()
        sxy = (dx * dy).sum(axis=1)
        slope = sxy / sxx
        intercept = y_mean - slope * x_mean
        syy = (dy * dy).sum(axis=1)
        r_squared = np.minimum(1.0, np.maximum(0.0, np.where(syy == 0.0, 1.0, slope * sxy / syy)))
    errors: dict[int, HurstLabError] = {}
    # each failure below leaves a non-finite slope or sum of squares
    for i in np.flatnonzero(~(np.isfinite(slope) & np.isfinite(sxx))).tolist():
        if not (np.isfinite(x).all() and np.isfinite(y[i]).all()):
            errors[i] = NonFiniteInput("regression input contains NaN or infinity")
        elif n < 2:
            errors[i] = DegenerateRegression(f"need at least 2 points, got {n}")
        elif sxx == 0.0:
            errors[i] = DegenerateRegression("all x values identical")
        else:
            slope[i] = np.nan
            errors[i] = NonFiniteInput("regression sums overflow float64")
    return RowFits(slope, intercept, r_squared, np.full(len(y), n), errors)
