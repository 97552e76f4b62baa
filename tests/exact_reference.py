"""Exponents built from their published definitions, for judging ``hurstlab.estimators`` to 1e-12.

Nothing here calls ``hurstlab.estimators`` or takes its shortcuts: the
default scales are derived again from the rule the estimator documents,
every float sum is a ``math.fsum`` of Python floats, block extremes are
plain ``max`` and ``min`` over each block, and DFA's profile and block
detrending are exact ``fractions.Fraction`` arithmetic.  The code is slow
and plain on purpose; it is a judge, not an implementation.

* GM2 (Sanchez-Granero, Trinidad Segovia & Garcia Perez 2008, Physica A
  387): for each dyadic block size m, the mean over the non-overlapping
  blocks of the series (tail remainder dropped) of each block's max-min
  range; the exponent is the least-squares slope of log mean range
  against log m.
* GHE (Di Matteo 2007, Quantitative Finance 7): for each lag
  tau = 1..tau_max, the mean over the n - tau increments of
  |X(t+tau) - X(t)|**q; lags whose moment is zero are dropped, and the
  exponent is the least-squares slope of log moment against log tau,
  divided by q.
* DFA (Peng et al. 1994, Phys. Rev. E 49; Kantelhardt et al. 2002,
  Physica A 316): the signal is the cumulative profile of the mean-centred
  log returns (n - 1 points), or the log prices themselves in raw mode.
  For each dyadic scale m it is cut into non-overlapping blocks from its
  start (tail remainder dropped); B is the mean squared residual of each
  block's least-squares line, and F_m = (mean over blocks of
  B**(q/2))**(1/q).  The exponent is the least-squares slope of log F_m
  against log m.

The report of a pool (``hurstlab.pipeline.report``) is built here from its
definition too: percentile thresholds by linear interpolation between
order statistics, in ``Fraction``; each row's bucket by exact comparison
with them, ties going up; each bucket's forward log returns summed in
``Fraction`` and rounded once, the mean annualized over 252 trading days.
"""

from __future__ import annotations

import math
from fractions import Fraction

from hurstlab.errors import DegenerateRegression


def largest_block_exponent(length: int) -> int:
    """The default ``k_max`` for ``length`` points: the largest k with ``2**k <= length / 2``, and at least 4."""
    k_max = 0
    while 2 ** (k_max + 1) <= length / 2:
        k_max += 1
    return max(k_max, 4)


def gm2_block_sizes(length: int) -> list[int]:
    """GM2's default block sizes for ``length`` points: 2**k for k_max - 3 <= k <= k_max, k >= 2."""
    k_max = largest_block_exponent(length)
    return [2**k for k in range(max(2, k_max - 3), k_max + 1)]


def mean_block_range(values: list[float], m: int) -> float:
    """The mean max-min range of the non-overlapping ``m``-point blocks of ``values``."""
    blocks = [values[start : start + m] for start in range(0, len(values) - m + 1, m)]
    return math.fsum(max(block) - min(block) for block in blocks) / len(blocks)


def least_squares_slope(x: list[float], y: list[float]) -> float:
    """The least-squares slope of ``y`` on ``x``, every sum a ``math.fsum``."""
    x_mean = math.fsum(x) / len(x)
    y_mean = math.fsum(y) / len(y)
    sxy = math.fsum((a - x_mean) * (b - y_mean) for a, b in zip(x, y))
    sxx = math.fsum((a - x_mean) ** 2 for a in x)
    return sxy / sxx


def gm2(values) -> float:
    """GM2's exponent of one window of log prices at the default block sizes.

    Raises ``DegenerateRegression`` when the mean range at some block size
    is zero (every block of that size is constant), whose log is undefined.
    """
    values = [float(v) for v in values]
    sizes = gm2_block_sizes(len(values))
    ranges = [mean_block_range(values, m) for m in sizes]
    if min(ranges) == 0.0:
        raise DegenerateRegression("zero mean range at some block size")
    return least_squares_slope([math.log(m) for m in sizes], [math.log(r) for r in ranges])


def ghe_tau_max(length: int) -> int:
    """GHE's default largest lag for ``length`` points: 19, or ``length - 1`` if less, and at least 2."""
    tau_max = 19
    if length - 1 < tau_max:
        tau_max = length - 1
    if tau_max < 2:
        tau_max = 2
    return tau_max


def lag_moment(values: list[float], tau: int, q: float) -> float:
    """The mean of ``|X(t+tau) - X(t)|**q`` over the ``n - tau`` increments of ``values`` at lag ``tau``."""
    moments = [abs(values[t + tau] - values[t]) ** q for t in range(len(values) - tau)]
    return math.fsum(moments) / len(moments)


def ghe(values, q: float = 1.0) -> float:
    """GHE's exponent of one window of log prices at the default lags and moment order ``q``.

    Raises ``DegenerateRegression`` when fewer than two lags have a
    non-zero moment (none, for a constant row), so no slope is defined.
    """
    values = [float(v) for v in values]
    lags = range(1, ghe_tau_max(len(values)) + 1)
    moments = [(tau, lag_moment(values, tau, q)) for tau in lags]
    kept = [(tau, m) for tau, m in moments if m != 0.0]
    if len(kept) < 2:
        raise DegenerateRegression("fewer than two lags with a non-zero moment")
    slope = least_squares_slope([math.log(tau) for tau, _ in kept], [math.log(m) for _, m in kept])
    return slope / q


def dfa_scales(length: int) -> list[int]:
    """DFA's default scales for a window of ``length`` log prices: 2**k for 2 <= k <= k_max."""
    return [2**k for k in range(2, largest_block_exponent(length) + 1)]


def dfa_signal(values, mode: str = "profile") -> list[Fraction]:
    """The series DFA detrends, exactly: the cumulative profile of mean-centred log returns, or the log prices."""
    x = [Fraction(float(v)) for v in values]
    if mode == "raw":
        return x
    returns = [b - a for a, b in zip(x, x[1:])]
    mean = sum(returns, Fraction(0)) / len(returns)
    profile, total = [], Fraction(0)
    for r in returns:
        total += r - mean
        profile.append(total)
    return profile


def mean_squared_residual(block: list[Fraction]) -> Fraction:
    """The mean squared residual of ``block`` about its least-squares line over t = 0..m-1, exactly."""
    m = len(block)
    t_mean = Fraction(m - 1, 2)
    y_mean = sum(block, Fraction(0)) / m
    sxx = sum((t - t_mean) ** 2 for t in range(m))
    slope = sum((t - t_mean) * (y - y_mean) for t, y in enumerate(block)) / sxx
    intercept = y_mean - slope * t_mean
    return sum((y - intercept - slope * t) ** 2 for t, y in enumerate(block)) / m


def dfa_block_residuals(values, mode: str = "profile") -> dict[int, list[Fraction]]:
    """Each default scale's exact mean squared residuals B, one per non-overlapping block of the signal."""
    signal = dfa_signal(values, mode)
    return {
        m: [mean_squared_residual(signal[start : start + m]) for start in range(0, len(signal) - m + 1, m)]
        for m in dfa_scales(len(values))
    }


def dfa_from_residuals(residuals: dict[int, list[Fraction]], q: float = 2.0) -> float:
    """DFA's exponent at moment order ``q`` from ``dfa_block_residuals``.

    Raises ``DegenerateRegression`` when the fluctuation at some scale is
    zero (every block of that size is exactly linear), whose log is undefined.
    """
    fluct = [(math.fsum(float(b) ** (q / 2) for b in bs) / len(bs)) ** (1 / q) for bs in residuals.values()]
    if min(fluct) == 0.0:
        raise DegenerateRegression("zero fluctuation at some scale")
    return least_squares_slope([math.log(m) for m in residuals], [math.log(f) for f in fluct])


def dfa(values, q: float = 2.0, mode: str = "profile") -> float:
    """DFA's exponent of one window of log prices at the default scales, moment order ``q`` and ``mode``."""
    return dfa_from_residuals(dfa_block_residuals(values, mode), q)


PERCENTILES = {"quintile": (20, 40, 60, 80), "tail": (90, 95)}
BUCKET_COUNT = {"quintile": 5, "tail": 2}


def percentile(ordered: list[float], p: int) -> Fraction:
    """The ``p``-th percentile of the sorted ``ordered``, exactly, by linear interpolation.

    The virtual index is p/100 * (n - 1), the definition numpy documents for
    its default method; the percentile lies that far between the order
    statistics on either side of it.
    """
    index = Fraction(p, 100) * (len(ordered) - 1)
    below = math.floor(index)
    low = Fraction(ordered[below])
    if below == len(ordered) - 1:
        return low
    return low + (index - below) * (Fraction(ordered[below + 1]) - low)


def buckets(h: list[float], scheme: str) -> tuple[list[Fraction], list[int]]:
    """The scheme's exact thresholds over ``h``, and each row's bucket.

    A row's bucket counts the thresholds at or below its exponent, so a
    tie goes to the upper bucket.  The tail scheme counts from -1: rows
    below its first threshold (the 90th percentile) have no bucket.
    """
    ordered = sorted(h)
    thresholds = [percentile(ordered, p) for p in PERCENTILES[scheme]]
    # a float lies at or above a threshold exactly when it lies at or above the least float that does
    least = [float(t) if float(t) >= t else math.nextafter(float(t), math.inf) for t in thresholds]
    first = 0 if scheme == "quintile" else -1
    return thresholds, [first + sum(1 for t in least if value >= t) for value in h]


def annualized_return(forwards: list[float], window: int) -> float:
    """The annualized return in percent of the mean of ``forwards``, per-``window``-day log returns; NaN if none.

    The sum is exact and rounded once, then divided by the count.
    """
    if not forwards:
        return math.nan
    mean = float(sum(map(Fraction, forwards), Fraction(0))) / len(forwards)
    return (math.exp(mean * 252 / window) - 1) * 100


def report(index: list[int], forwards: list[float], window: int, scheme: str) -> list[tuple[int, float]]:
    """(count, annualized return) of each of the scheme's buckets in order, then of the whole pool.

    ``index`` holds each row's bucket, as ``buckets`` gives it.
    """
    members = [[f for f, i in zip(forwards, index) if i == bucket] for bucket in range(BUCKET_COUNT[scheme])]
    return [(len(fs), annualized_return(fs, window)) for fs in (*members, forwards)]
