"""Self-similarity exponent estimators: GHE, detrended fluctuation, block ranges.

All three estimators reduce to the same recipe, computed for every row
of a ``(rows, length)`` matrix of log-price windows at once: a row-wise
kernel builds a ``(rows, scales)`` statistic, one row-wise least-squares
fit (``series.fit_rows``) regresses its log against the log of the
scale, and the exponent is read off each row's slope.

* GHE  -- q-th order moment of lagged increments; the exponent is
  slope / q.  Lags whose moment is exactly zero are left out of that
  row's fit.
* DFA  -- fluctuation function of block-wise linearly detrended data
  (multifractal DFA with q = 2 giving the classical variant).  It
  detrends the log prices from their second point on: the
  classical cumulative profile of mean-centered log returns is ``x[1:]``
  less the offset ``x[0]`` and a linear ramp, and linear detrending
  removes both.
* GM2  -- mean max-min range of non-overlapping log-price blocks.

``estimate_rows`` runs one method over a window matrix: ``fit_statistic``
of ``statistic``.  A row whose statistic or fit is degenerate gets its
own error and does not fail the matrix.  ``ghe``, ``dfa``, ``gm2`` and
``estimate`` are one-row calls and raise that error.  Each stage computes
every row on its own, so an exponent is bit-identical whichever matrix
its window sits in, and whichever stacked statistics it is fitted in.

Block sizes are powers of two, ``m = 2**k`` for ``k_min <= k <= k_max``;
blocks never overlap and any tail remainder shorter than ``m`` is
discarded.  Estimates are deterministic functions of (input, config);
values outside (0, 2) are flagged suspect but still returned.
"""

from __future__ import annotations

import enum
import functools
import operator
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import DegenerateRegression, InvalidSetting, SeriesTooShort
from .series import LogSeries, RegressionFit, RowFits, fit_rows

__all__ = [
    "Method",
    "EstimatorConfig",
    "HEstimate",
    "default_config",
    "estimate",
    "estimate_rows",
    "is_suspect",
    "ghe",
    "dfa",
    "gm2",
]


class Method(enum.Enum):
    GHE = "GHE"
    DFA = "DFA"
    GM2 = "GM2"


# entries kept by each per-config cache: every (method, config) a run or a calibration uses
_CONFIG_CACHE = 64


def _integer(name: str, value) -> int:
    """``value`` as an int; numpy integers pass, others raise ``TypeError`` naming ``name``."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


def require_integers(obj, *names: str) -> None:
    """Store each named field of the frozen dataclass ``obj`` as an int; numpy integers pass, others raise."""
    for name in names:
        object.__setattr__(obj, name, _integer(name, getattr(obj, name)))


@dataclass(frozen=True)
class EstimatorConfig:
    """Every estimator setting; ``default_config`` derives the defaults for a window length.

    ``q`` is the moment order (1 for GHE, 2 for DFA; unused by GM2),
    ``tau_max`` the largest increment lag considered by GHE,
    and ``k_min``/``k_max`` bound the dyadic block sizes used by DFA and GM2.
    """

    q: float = 1.0
    tau_max: int = 19
    k_min: int = 2
    k_max: int = 8

    def __post_init__(self):
        require_integers(self, "tau_max", "k_min", "k_max")
        if not 0.0 < self.q < np.inf:
            raise InvalidSetting(f"q must be positive and finite, got {self.q}")
        if self.tau_max < 2:
            raise InvalidSetting(f"tau_max must be >= 2, got {self.tau_max}")
        if 2 ** self.k_min < 4:
            raise InvalidSetting(f"smallest block 2**k_min must be >= 4, got k_min={self.k_min}")
        if self.k_max - self.k_min < 2:
            raise InvalidSetting("need k_max - k_min >= 2 (at least 3 regression points)")

    def scales(self) -> tuple[int, ...]:
        return tuple(2 ** k for k in range(self.k_min, self.k_max + 1))


@dataclass(frozen=True)
class HEstimate:
    """One estimator's exponent together with the regression it came from."""

    h: float
    fit: RegressionFit
    method: Method
    window_length: int

    @property
    def suspect(self) -> bool:
        """True when the estimate falls outside the plausible (0, 2) band."""
        return bool(is_suspect(self.h))


def is_suspect(h):
    """True where an exponent, a float or an array of them, falls outside the plausible (0, 2) band."""
    return np.logical_not((0.0 < h) & (h < 2.0))


def default_config(method: Method, length: int) -> EstimatorConfig:
    """Default configuration for a window of ``length`` points; the only source of defaults.

    GHE's ``tau_max`` is 19, or ``length - 1`` (at least 2) on shorter
    windows, and ``k_max`` the largest k with ``2**k <= length / 2``, at
    least 4; ``check_length``'s error is raised where no valid config fits.
    DFA keeps every dyadic scale from ``k_min = 2`` up (the coarsest may
    cover a single block, which costs variance but no bias).  GM2 drops scales below
    ``2**(k_max - 3)``: the mean block range of a sampled path sits below
    its continuum scaling law by a near-constant deficit, which at small
    block sizes inflates the log-log slope, so the small scales carry
    mostly bias.  The bias shrinks as the blocks grow: at H = 0.3 the
    mean over 200 fBm paths is about 0.38 at 512 points and falls within
    0.05 of H from 8192 points (blocks of 512-4096).  A config is frozen,
    so each (method, length) is derived once and then shared.
    """
    return _default_config(method, _integer("length", length))


@functools.lru_cache(maxsize=_CONFIG_CACHE)
def _default_config(method: Method, length: int) -> EstimatorConfig:
    """``default_config`` of an int length, memoized; an error is raised again on every call."""
    q = 2.0 if method is Method.DFA else 1.0
    tau_max = max(2, min(19, length - 1))
    k_max = max((length // 2).bit_length() - 1, 4)
    k_min = max(2, k_max - 3) if method is Method.GM2 else 2
    cfg = EstimatorConfig(q=q, tau_max=tau_max, k_min=k_min, k_max=k_max)
    check_length(method, cfg, length)
    return cfg


def check_length(method: Method, cfg: EstimatorConfig, length: int) -> None:
    """Raise ``SeriesTooShort`` unless ``cfg`` fits windows of ``length`` points: the one length rule."""
    if not isinstance(method, Method):
        raise InvalidSetting(f"unknown method {method!r}")
    if method is Method.GHE:
        if length <= cfg.tau_max:
            raise SeriesTooShort(f"ghe: need more than tau_max={cfg.tau_max} points, got {length}")
        return
    # DFA detrends x[1:], one point fewer
    partition = max(length - 1, 0) if method is Method.DFA else length
    if 2 ** cfg.k_max >= partition:
        label = method.value.lower()
        raise SeriesTooShort(f"{label}: largest block 2**{cfg.k_max} does not fit in {partition} points")


def _blocks(values: np.ndarray, m: int) -> np.ndarray:
    """Non-overlapping length-m blocks of the last axis, ``(..., d, m)``; tail remainder dropped."""
    d = values.shape[-1] // m
    return values[..., : d * m].reshape(*values.shape[:-1], d, m)


def _lag_moments(v: np.ndarray, q: float, tau_max: int) -> np.ndarray:
    """``(rows, tau_max)`` mean |X(t+tau)-X(t)|**q over overlapping increments, lags 1..tau_max.

    ``v`` is a ``(rows, n)`` matrix with ``n > tau_max``.  Rows that start
    ``step`` points apart on one stretch of a series, ``0 < step <= n``
    (overlapping windows, or a C-contiguous matrix), share that stretch:
    each lag's |increments| are computed once over it, so the temporary
    holds about one stretch, and each row sums its own through a strided
    view.  Other layouts are first copied into a C-contiguous matrix.  A
    row's sum runs over the same values in the same order whatever the
    layout, so its statistic is bit-identical to that row's alone.
    """
    rows, n = v.shape
    item = v.itemsize
    step = v.strides[0] // item if rows > 1 else n
    if v.strides[1] != item or v.strides[0] % item or not 0 < step <= n:
        v, step = np.ascontiguousarray(v), n
    # one row takes no strided view; zero rows span zero points
    stretch = v[0] if rows == 1 else as_strided(v, ((rows - 1) * step + n,), (item,))
    increments = np.empty(len(stretch))
    if rows == 1:
        per_row = increments[None]
    else:
        per_row = np.ndarray((rows, n - 1), buffer=increments, strides=(step * item, item))
    sums = np.empty((rows, tau_max))
    # positional outputs and a reduce straight into sums keep one row as cheap as a plain difference
    for t in range(1, tau_max + 1):
        moments = increments[: len(stretch) - t]
        np.subtract(stretch[t:], stretch[:-t], moments)
        np.abs(moments, moments)
        if q != 1.0:
            moments **= q
        np.add.reduce(per_row[:, : n - t], axis=-1, out=sums[:, t - 1])
    return sums / (n - np.arange(1, tau_max + 1))


# Largest block, in points, that DFA updates across blocks: 8 float64s fill one cache line.  numpy
# runs a broadcast update of a (blocks, m) array as one inner loop of m points per block; order="F"
# runs one loop over all blocks per block position instead.  On the default run's batches (2 cores,
# numpy 2.4) bounds of 4 and 8 points measured the same, and 16 was slower than no bound at all.
_SHORT_BLOCK = 8


def _detrended_fluctuations(signal: np.ndarray, scales, q: float) -> np.ndarray:
    """``(rows, scales)`` DFA fluctuation ``(mean over blocks of B_i) ** (1/q)`` of each row.

    Sums within blocks are matrix-vector products, one per row: fast for
    short blocks, and a row's result does not depend on the other rows.
    Each block is first shifted by its first value, which detrending
    cancels, so a constant block detrends to exactly 0.  The products
    read a C-contiguous copy of the blocks; the elementwise updates view it
    as one block per row and, for blocks of at most ``_SHORT_BLOCK``
    points, run one block position at a time across all blocks.  Each
    element gets the same operations in any iteration order, so the
    order changes no bit.
    """
    fluct = np.empty((signal.shape[0], len(scales)))
    for i, m in enumerate(scales):
        resid = _blocks(signal, m).copy()
        flat = resid.reshape(-1, m)
        order = "F" if m <= _SHORT_BLOCK else "K"
        dt, dt_norm, ones = _block_ramp(m)
        # the first values are copied, so the in-place update does not read what it writes
        np.subtract(flat, flat[:, :1].copy(), out=flat, order=order)
        slopes = (resid @ dt) / dt_norm
        np.subtract(flat, (resid @ ones / m).reshape(-1, 1), out=flat, order=order)
        np.subtract(flat, np.multiply(slopes.reshape(-1, 1), dt, order=order), out=flat, order=order)
        block_power = np.square(resid, out=resid) @ ones / m
        if q != 2.0:
            block_power **= q / 2.0
        fluct[:, i] = (block_power.sum(axis=-1) / block_power.shape[-1]) ** (1.0 / q)
    return fluct


@functools.lru_cache(maxsize=32)
def _block_ramp(m: int):
    """Centered ramp over a block of m points, its squared norm and ones, as read-only arrays."""
    dt = np.arange(m, dtype=np.float64)
    dt -= dt.mean()
    ones = np.ones(m)
    dt.flags.writeable = ones.flags.writeable = False
    return dt, float(dt @ dt), ones


def _mean_block_ranges(values: np.ndarray, scales) -> np.ndarray:
    """``(rows, scales)`` mean max-min range of the non-overlapping blocks of each row.

    The smallest scale's extremes come from a block-major copy: one
    elementwise max or min per block position over all blocks at once,
    not one short reduction per block.  Each larger dyadic scale pairs
    blocks of the scale below.  Max and min are exact.  Each scale's
    ranges are summed in sorted order (zero-padded to the most numerous
    scale), so each mean is exactly independent of the order of the blocks.
    """
    counts = [values.shape[-1] // m for m in scales]
    ranges = np.zeros((values.shape[0], len(scales), counts[0]))
    blocks = np.ascontiguousarray(_blocks(values, scales[0]).transpose(2, 0, 1))
    high, low = blocks.max(axis=0), blocks.min(axis=0)
    for i, d in enumerate(counts):
        if i:
            high = np.maximum(high[:, 0 : 2 * d : 2], high[:, 1 : 2 * d : 2])
            low = np.minimum(low[:, 0 : 2 * d : 2], low[:, 1 : 2 * d : 2])
        np.subtract(high, low, out=ranges[:, i, :d])
    ranges.sort(axis=-1)
    return ranges.sum(axis=-1) / counts


def statistic(method: Method, windows: np.ndarray, cfg: EstimatorConfig) -> np.ndarray:
    """The ``(rows, scales)`` statistic of every row of ``windows``: the first stage of ``estimate_rows``."""
    check_length(method, cfg, windows.shape[1])
    if method is Method.GHE:
        return _lag_moments(windows, cfg.q, cfg.tau_max)
    if method is Method.GM2:
        return _mean_block_ranges(windows, cfg.scales())
    # detrending absorbs the return profile's offset and mean-return ramp
    return _detrended_fluctuations(windows[:, 1:], cfg.scales(), cfg.q)


_ZERO_STATISTIC = {
    Method.GHE: "ghe: every lag statistic is zero (constant series)",
    Method.DFA: "dfa: zero fluctuation at some scale (block-wise linear input)",
    Method.GM2: "gm2: zero mean range at some scale (constant blocks)",
}


def _statistic_error(method: Method, stat: np.ndarray):
    """Why one row's statistic admits no log-log fit, in the estimator's words; None if it does."""
    return DegenerateRegression(_ZERO_STATISTIC[method]) if (stat == 0.0).any() else None


@functools.lru_cache(maxsize=_CONFIG_CACHE)
def _log_scales(method: Method, cfg: EstimatorConfig) -> np.ndarray:
    """Log of the lags (GHE) or block sizes that ``method``'s fit regresses on, as a read-only array."""
    log_scales = np.log(np.arange(1, cfg.tau_max + 1) if method is Method.GHE else cfg.scales())
    log_scales.flags.writeable = False
    return log_scales


def fit_statistic(method: Method, stat: np.ndarray, cfg: EstimatorConfig) -> tuple[np.ndarray, RowFits]:
    """Exponent and log-log fit of each row of a ``statistic``, the second stage of ``estimate_rows``."""
    with np.errstate(divide="ignore", invalid="ignore"):
        fits = fit_rows(_log_scales(method, cfg), np.log(stat))
    # a zero statistic fails its row's fit, as its log is -inf; the failure is named the estimator's way
    for i in list(fits.errors):
        kept = stat[i] != 0.0
        if method is Method.GHE and 0 < kept.sum() < len(kept):
            # GHE's lags whose moment is exactly zero carry no scaling information: the row is fitted without them
            refit = fit_rows(_log_scales(method, cfg)[kept], np.log(stat[i, kept])[None])
            for name in ("slope", "intercept", "r_squared", "n_points"):
                getattr(fits, name)[i] = getattr(refit, name)[0]
            if refit.errors:
                fits.errors[i] = refit.errors[0]
            else:
                del fits.errors[i]
        else:
            fits.errors[i] = _statistic_error(method, stat[i]) or fits.errors[i]
    h = fits.slope / cfg.q if method is Method.GHE else fits.slope.copy()
    if fits.errors:
        h[list(fits.errors)] = np.nan
    return h, fits


def estimate_rows(
    method: Method, windows: np.ndarray, cfg: EstimatorConfig | None = None
) -> tuple[np.ndarray, RowFits]:
    """Exponent and log-log fit of every row of a ``(rows, length)`` matrix of log prices.

    Returns ``(h, fits)``.  Every setting comes from ``cfg``, by default
    ``default_config(method, length)``.  Exactly the rows whose statistic
    or fit is degenerate hold NaN in ``h``, each with its error in
    ``fits.errors``, the one the one-row estimator raises; a length that
    ``check_length`` rejects for the config raises for the whole matrix.
    ``windows`` may be any 2-D float array: a C-contiguous matrix, or a
    view whose rows are overlapping windows of one series, such as
    ``sliding_window_view(x, n)[::step]``.  GHE reads such a view in place
    and computes each lag's increments once for all its rows; DFA copies
    each scale's blocks out of it, and GM2 its smallest blocks.  Rows are
    computed independently of each other, in both stages.
    """
    windows = np.asarray(windows, dtype=np.float64)
    if windows.ndim != 2:
        raise InvalidSetting(f"windows must be a 2-D (rows, length) matrix, got shape {windows.shape}")
    if cfg is None:
        cfg = default_config(method, windows.shape[1])
    return fit_statistic(method, statistic(method, windows, cfg), cfg)


def ghe(x: LogSeries, cfg: EstimatorConfig | None = None) -> HEstimate:
    """Generalized Hurst exponent from the scaling of lagged q-th moments.

    For each lag tau in 1..tau_max the statistic is the mean of
    ``|X(t+tau) - X(t)|**q`` over all overlapping increments; the exponent
    is the log-log slope across lags divided by q.  Lags whose statistic is
    exactly zero carry no scaling information and are dropped before the
    fit; if fewer than two survive the regression degenerates.
    """
    return estimate(Method.GHE, x, cfg)


def dfa(x: LogSeries, cfg: EstimatorConfig | None = None) -> HEstimate:
    """Detrended fluctuation analysis of the log-price window.

    The signal is the standard construction, the cumulative sum of
    mean-centered log returns.  That profile differs from ``x[1:]`` by an
    offset and a linear ramp, which block-wise linear detrending removes,
    so DFA detrends ``x[1:]``.  To detrend all of the log prices instead,
    prepend any one point to ``x``.
    Each dyadic scale m yields the fluctuation ``F_m = (mean over blocks
    of B_i) ** (1/q)`` with ``B_i = (mean squared residual) ** (q/2)``;
    the exponent is the slope of ``log F_m`` against ``log m``.
    """
    return estimate(Method.DFA, x, cfg)


def gm2(x: LogSeries, cfg: EstimatorConfig | None = None) -> HEstimate:
    """Block-range estimator on log prices.

    Each dyadic scale m partitions the values into non-overlapping
    blocks; the statistic is the mean of per-block max-min ranges and
    the exponent is its log-log slope against m.  The mean is exactly
    independent of block order.
    """
    return estimate(Method.GM2, x, cfg)


def estimate(method: Method, x: LogSeries, cfg: EstimatorConfig | None = None) -> HEstimate:
    """The estimator named by ``method``, on one series."""
    h, fits = estimate_rows(method, x.values[None, :], cfg)
    return HEstimate(float(h[0]), fits.row(0), method, len(x))
