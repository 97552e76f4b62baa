"""Self-similarity exponent estimators: GHE, detrended fluctuation, block ranges.

All three estimators reduce to the same recipe, computed for every row
of a ``(rows, length)`` matrix of log-price windows at once: a row-wise
kernel builds a ``(rows, scales)`` statistic, one row-wise least-squares
fit (``series.fit_rows``) regresses its log against the log of the
scale, and the exponent is read off each row's slope.

* GHE  -- q-th order moment of lagged increments, normalized by the
  q-th moment of the signal level; the exponent is slope / q.  Lags
  whose moment is exactly zero are left out of that row's fit.
* DFA  -- fluctuation function of block-wise linearly detrended data,
  by default applied to the cumulative profile of mean-centered log
  returns (multifractal DFA with q = 2 giving the classical variant).
* GM2  -- mean max-min range of non-overlapping log-price blocks.

``estimate_rows`` runs one method over a window matrix.  A row whose
statistic or fit is degenerate gets its own error and does not fail the
matrix.  ``ghe``, ``dfa``, ``gm2`` and ``estimate`` are one-row calls of
the same kernels and raise that error.  Each row is computed
independently of the others, so its exponent is bit-identical whichever
matrix it sits in.

Block sizes are powers of two, ``m = 2**k`` for ``k_min <= k <= k_max``;
blocks never overlap and any tail remainder shorter than ``m`` is
discarded.  Estimates are deterministic functions of (input, config);
values outside (0, 2) are flagged suspect but still returned.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateRegression, SeriesTooShort, ZeroSignal
from .series import LogSeries, RegressionFit, RowFits, fit_rows

__all__ = [
    "Method",
    "EstimatorConfig",
    "HEstimate",
    "DFA_MODE_PROFILE",
    "DFA_MODE_RAW",
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

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


DFA_MODE_PROFILE = "profile"
DFA_MODE_RAW = "raw"


@dataclass(frozen=True)
class EstimatorConfig:
    """Shared estimator knobs.

    ``q`` is the moment order (1 for GHE, 2 for DFA; unused by GM2),
    ``tau_max`` the largest increment lag considered by GHE, and
    ``k_min``/``k_max`` bound the dyadic block sizes used by DFA and GM2.
    ``detrend_order`` is fixed to 1 (linear detrending).
    """

    q: float = 1.0
    tau_max: int = 19
    k_min: int = 2
    k_max: int = 8
    detrend_order: int = 1

    def __post_init__(self):
        if self.q <= 0:
            raise ValueError(f"q must be positive, got {self.q}")
        if self.tau_max < 2:
            raise ValueError(f"tau_max must be >= 2, got {self.tau_max}")
        if 2 ** self.k_min < 4:
            raise ValueError(f"smallest block 2**k_min must be >= 4, got k_min={self.k_min}")
        if self.k_max - self.k_min < 2:
            raise ValueError("need k_max - k_min >= 2 (at least 3 regression points)")
        if self.detrend_order != 1:
            raise ValueError("only linear detrending (detrend_order=1) is supported")

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
        return is_suspect(self.h)


def is_suspect(h: float) -> bool:
    """True when an exponent falls outside the plausible (0, 2) band."""
    return not (0.0 < h < 2.0)


def default_config(method: Method, length: int, dfa_mode: str = DFA_MODE_PROFILE) -> EstimatorConfig:
    """Default configuration for a window of ``length`` points.

    ``k_max`` is the largest k with ``2**k <= length / 2``.  DFA keeps
    every dyadic scale from ``k_min = 2`` up (the coarsest may cover a
    single block of the return profile, which costs variance but no
    bias).  GM2 drops scales below ``2**(k_max - 3)``: the mean block
    range of a sampled path sits below its continuum scaling law by a
    near-constant deficit, which at small block sizes inflates the
    log-log slope, so the small scales carry mostly bias.  The bias
    shrinks as the blocks grow: at H = 0.3 the mean over 200 fBm paths
    is about 0.38 at 512 points and falls within 0.05 of H from 8192
    points (blocks of 512-4096).
    """
    q = 2.0 if method is Method.DFA else 1.0
    partition = length - 1 if (method is Method.DFA and dfa_mode == DFA_MODE_PROFILE) else length
    k_max = max((length // 2).bit_length() - 1, 4)
    while 2 ** k_max >= partition:
        k_max -= 1
    if k_max < 4:
        raise SeriesTooShort(f"window of {length} points is too short for {method.value}")
    k_min = max(2, k_max - 3) if method is Method.GM2 else 2
    return EstimatorConfig(q=q, k_min=k_min, k_max=k_max)


def _check_scales(cfg: EstimatorConfig, partition_length: int, label: str) -> None:
    if 2 ** cfg.k_max >= partition_length:
        raise SeriesTooShort(
            f"{label}: largest block 2**{cfg.k_max} does not fit in {partition_length} points"
        )
    if partition_length < 2 ** (cfg.k_min + 2):
        raise SeriesTooShort(
            f"{label}: need at least {2 ** (cfg.k_min + 2)} points, got {partition_length}"
        )


def _blocks(values: np.ndarray, m: int) -> np.ndarray:
    """Non-overlapping length-m blocks of the last axis, ``(..., d, m)``; tail remainder dropped."""
    d = values.shape[-1] // m
    return values[..., : d * m].reshape(*values.shape[:-1], d, m)


def _lag_moment_ratio(v: np.ndarray, q: float, tau_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean |X(t+tau)-X(t)|**q over overlapping increments, over mean |X(t)|**q.

    Works along the last axis: ``v`` of shape ``(..., n)`` gives a
    ``(..., tau_max)`` statistic.  An all-zero signal gives NaN or infinity.
    """
    n = v.shape[-1]
    taus = np.arange(1, tau_max + 1)
    sums = np.empty((*v.shape[:-1], tau_max))
    for i, t in enumerate(taus.tolist()):
        increments = v[..., t:] - v[..., :-t]
        sums[..., i] = (np.abs(increments, out=increments) ** q).sum(axis=-1)
    level = (np.abs(v) ** q).sum(axis=-1, keepdims=True) / n
    with np.errstate(divide="ignore", invalid="ignore"):
        return taus, sums / (n - taus) / level


def _detrended_fluctuations(signal: np.ndarray, scales, q: float) -> np.ndarray:
    """``(rows, scales)`` DFA fluctuation ``(mean over blocks of B_i) ** (1/q)`` of each row.

    Sums within blocks are matrix-vector products, one per row: fast for
    short blocks, and a row's result does not depend on the other rows.
    """
    fluct = np.empty((signal.shape[0], len(scales)))
    for i, m in enumerate(scales):
        blocks = _blocks(signal, m)
        t = np.arange(m, dtype=np.float64)
        dt = t - t.mean()
        ones = np.ones(m)
        slopes = (blocks @ dt) / float(dt @ dt)
        resid = blocks - (blocks @ ones / m)[..., None]
        resid -= slopes[..., None] * dt
        block_power = ((resid * resid) @ ones / m) ** (q / 2.0)
        fluct[:, i] = (block_power.sum(axis=-1) / block_power.shape[-1]) ** (1.0 / q)
    return fluct


def _mean_block_ranges(values: np.ndarray, scales) -> np.ndarray:
    """``(rows, scales)`` mean max-min range of the non-overlapping blocks of each row.

    Block extremes at each dyadic scale come from pairs of blocks at the
    scale below.  Each scale's ranges are summed in sorted order
    (zero-padded to the most numerous scale), so each mean is exactly
    independent of the order of the blocks.
    """
    counts = [values.shape[-1] // m for m in scales]
    ranges = np.zeros((values.shape[0], len(scales), counts[0]))
    blocks = _blocks(values, scales[0])
    high, low = blocks.max(axis=-1), blocks.min(axis=-1)
    for i, d in enumerate(counts):
        if i:
            high = np.maximum(high[:, 0 : 2 * d : 2], high[:, 1 : 2 * d : 2])
            low = np.minimum(low[:, 0 : 2 * d : 2], low[:, 1 : 2 * d : 2])
        np.subtract(high, low, out=ranges[:, i, :d])
    ranges.sort(axis=-1)
    return ranges.sum(axis=-1) / counts


def _statistic(method: Method, windows: np.ndarray, cfg: EstimatorConfig, dfa_mode: str):
    """Scales, the ``(rows, scales)`` statistic, and which points to fit (None: all)."""
    if method is Method.GHE:
        if windows.shape[1] <= cfg.tau_max:
            raise SeriesTooShort(f"ghe: need more than tau_max={cfg.tau_max} points, got {windows.shape[1]}")
        taus, stat = _lag_moment_ratio(windows, cfg.q, cfg.tau_max)
        # lags whose statistic is exactly zero carry no scaling information
        return taus, stat, stat > 0.0
    scales = cfg.scales()
    if method is Method.GM2:
        _check_scales(cfg, windows.shape[1], "gm2")
        return np.array(scales), _mean_block_ranges(windows, scales), None
    if dfa_mode == DFA_MODE_PROFILE:
        if windows.shape[1] < 2:
            raise SeriesTooShort("dfa: need at least 2 points to form returns")
        increments = np.diff(windows, axis=1)
        signal = np.cumsum(increments - increments.mean(axis=1, keepdims=True), axis=1)
    else:
        signal = windows
    _check_scales(cfg, signal.shape[1], "dfa")
    return np.array(scales), _detrended_fluctuations(signal, scales, cfg.q), None


_ZERO_STATISTIC = {
    Method.GHE: "ghe: every lag statistic is zero (constant series)",
    Method.DFA: "dfa: zero fluctuation at some scale (block-wise linear input)",
    Method.GM2: "gm2: zero mean range at some scale (constant blocks)",
}


def _statistic_error(method: Method, window: np.ndarray, stat: np.ndarray):
    """Why one row's statistic admits no log-log fit, in the estimator's words; None if it does."""
    if method is Method.GHE:
        if not window.any():
            return ZeroSignal("ghe: all signal values are zero")
        degenerate = not (stat > 0.0).any()
    else:
        degenerate = (stat == 0.0).any()
    return DegenerateRegression(_ZERO_STATISTIC[method]) if degenerate else None


def estimate_rows(
    method: Method,
    windows: np.ndarray,
    cfg: EstimatorConfig | None = None,
    dfa_mode: str = DFA_MODE_PROFILE,
) -> tuple[np.ndarray, RowFits]:
    """Exponent and log-log fit of every row of a ``(rows, length)`` matrix of log prices.

    Returns ``(h, fits)``.  A row whose statistic or fit is degenerate
    holds NaN in ``h`` and its error in ``fits.errors``, with the message
    the one-row estimator raises; a length too short for ``cfg`` raises
    for the whole matrix.  Rows are computed independently of each other.
    """
    if not isinstance(method, Method):
        raise ValueError(f"unknown method {method!r}")
    if method is Method.DFA and dfa_mode not in (DFA_MODE_PROFILE, DFA_MODE_RAW):
        raise ValueError(f"unknown dfa mode {dfa_mode!r}")
    windows = np.ascontiguousarray(windows, dtype=np.float64)
    if cfg is None:
        cfg = default_config(method, windows.shape[1], dfa_mode=dfa_mode)
        if method is Method.GHE:
            cfg = replace(cfg, tau_max=min(19, windows.shape[1] - 1))
    scales, stat, keep = _statistic(method, windows, cfg, dfa_mode)
    with np.errstate(divide="ignore", invalid="ignore"):
        fits = fit_rows(np.log(scales), np.log(stat), keep)
    # a degenerate statistic always fails the fit; name that failure the estimator's way
    for i in list(fits.errors):
        fits.errors[i] = _statistic_error(method, windows[i], stat[i]) or fits.errors[i]
    h = fits.slope / cfg.q if method is Method.GHE else fits.slope.copy()
    if fits.errors:
        h[list(fits.errors)] = np.nan
    return h, fits


def _one_row(method: Method, x: LogSeries, cfg: EstimatorConfig | None, dfa_mode: str) -> HEstimate:
    h, fits = estimate_rows(method, x.values[None, :], cfg, dfa_mode)
    return HEstimate(float(h[0]), fits.row(0), method, len(x))


def ghe(x: LogSeries, cfg: EstimatorConfig | None = None) -> HEstimate:
    """Generalized Hurst exponent from the scaling of lagged q-th moments.

    For each lag tau in 1..tau_max the statistic is the mean of
    ``|X(t+tau) - X(t)|**q`` over all overlapping increments, divided by
    the (lag-independent) mean of ``|X(t)|**q``; the exponent is the
    log-log slope across lags divided by q.  Lags whose statistic is
    exactly zero carry no scaling information and are dropped before the
    fit; if none survive the regression degenerates.
    """
    return _one_row(Method.GHE, x, cfg, DFA_MODE_PROFILE)


def dfa(x: LogSeries, cfg: EstimatorConfig | None = None, mode: str = DFA_MODE_PROFILE) -> HEstimate:
    """Detrended fluctuation analysis of the log-price window.

    ``mode="profile"`` (default) runs the standard construction: the
    signal is the cumulative sum of mean-centered log returns.
    ``mode="raw"`` detrends the log prices directly.  Each dyadic scale m
    yields the fluctuation ``F_m = (mean over blocks of B_i) ** (1/q)``
    with ``B_i = (mean squared residual) ** (q/2)``; the exponent is the
    slope of ``log F_m`` against ``log m``.
    """
    return _one_row(Method.DFA, x, cfg, mode)


def gm2(x: LogSeries, cfg: EstimatorConfig | None = None) -> HEstimate:
    """Block-range estimator on log prices.

    Each dyadic scale m partitions the values into non-overlapping
    blocks; the statistic is the mean of per-block max-min ranges and
    the exponent is its log-log slope against m.  The mean is exactly
    independent of block order.
    """
    return _one_row(Method.GM2, x, cfg, DFA_MODE_PROFILE)


def estimate(
    method: Method,
    x: LogSeries,
    cfg: EstimatorConfig | None = None,
    dfa_mode: str = DFA_MODE_PROFILE,
) -> HEstimate:
    """The estimator named by ``method``, on one series."""
    return _one_row(method, x, cfg, dfa_mode)
