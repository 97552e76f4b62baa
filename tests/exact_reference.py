"""Exponents built from their published definitions, for judging ``hurstlab.estimators`` to 1e-12.

Nothing here calls ``hurstlab.estimators`` or takes its shortcuts: the
default scales are derived again from the rule the estimator documents,
every sum is a ``math.fsum`` of Python floats, and block extremes are
plain ``max`` and ``min`` over each block.  The code is slow and plain
on purpose; it is a judge, not an implementation.

* GM2 (Sanchez-Granero, Trinidad Segovia & Garcia Perez 2008, Physica A
  387): for each dyadic block size m, the mean over the non-overlapping
  blocks of the series (tail remainder dropped) of each block's max-min
  range; the exponent is the least-squares slope of log mean range
  against log m.
* GHE (Di Matteo 2007, Journal of Banking & Finance 31): for each lag
  tau = 1..tau_max, the mean over the n - tau increments of
  |X(t+tau) - X(t)|**q; lags whose moment is zero are dropped, and the
  exponent is the least-squares slope of log moment against log tau,
  divided by q.
"""

from __future__ import annotations

import math

from hurstlab.errors import DegenerateRegression


def gm2_block_sizes(length: int) -> list[int]:
    """GM2's default block sizes for ``length`` points: 2**k for k_max - 3 <= k <= k_max, k >= 2.

    ``k_max`` is the largest k with ``2**k <= length / 2``, and at least 4.
    """
    k_max = 0
    while 2 ** (k_max + 1) <= length / 2:
        k_max += 1
    k_max = max(k_max, 4)
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
