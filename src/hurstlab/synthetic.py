"""Exact-covariance fractional Brownian motion for estimator calibration.

Paths are built as partial sums of fractional Gaussian noise whose
autocovariance

    gamma(k) = (scale**2 / 2) * (|k+1|**2H - 2|k|**2H + |k-1|**2H)

is reproduced exactly.  The sampler is circulant embedding
(Davies-Harte): the covariance is embedded in a circulant matrix whose
eigenvalues come from one FFT.  For fGn with H in (0, 1) they are
nonnegative in exact arithmetic, but in floating point the smallest one
can fall below the tolerance when H is close to 1 on long paths (at
H = 0.999 and 262,144 points the min/max ratio is about -1.2e-8).  The
generator then falls back to the sequential conditional-Gaussian
recursion (Hosking / Durbin-Levinson), which is exact for any valid
covariance but quadratic in the path length.  The test suite also uses
the recursion as an independent cross-check of the FFT route.  The
eigenvalues depend only on (length, H, scale): the 16 most recently used
spectra are kept, so each further path costs its draws and one FFT.

Randomness comes from numpy's PCG64 generator seeded with the spec's
64-bit seed, so identical specs yield bit-identical paths.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidH, InvalidSetting
from .estimators import require_integers
from .series import LogSeries, PriceSeries

__all__ = [
    "FbmSpec",
    "fgn_autocovariance",
    "generate_fbm",
    "generate_drifted_cohort",
]

_NEG_EIG_TOL = 1e-9


@dataclass(frozen=True)
class FbmSpec:
    """Parameters of one fractional Brownian motion path."""

    h: float
    length: int
    seed: int
    scale: float = 1.0

    def __post_init__(self):
        require_integers(self, "length", "seed")
        if not 0.0 < self.h < 1.0:
            raise InvalidH(f"h must lie in (0, 1), got {self.h}")
        if self.seed < 0:
            raise InvalidSetting(f"seed must be >= 0, got {self.seed}")
        if self.length < 8:
            raise InvalidSetting(f"length must be >= 8, got {self.length}")
        if not 0.0 < self.scale < np.inf:
            raise InvalidSetting(f"scale must be positive and finite, got {self.scale}")
        # every circulant eigenvalue is at most 2 * length * scale**2
        if not 2.0 * self.length * float(self.scale) * float(self.scale) < np.inf:
            raise InvalidSetting(f"scale {self.scale} overflows the spectrum of {self.length} points")


def fgn_autocovariance(h: float, lags, scale: float = 1.0) -> np.ndarray:
    """Autocovariance of fractional Gaussian noise at the given lags."""
    k = np.abs(np.asarray(lags, dtype=np.float64))
    two_h = 2.0 * h
    return 0.5 * scale * scale * ((k + 1.0) ** two_h - 2.0 * k ** two_h + np.abs(k - 1.0) ** two_h)


@functools.lru_cache(maxsize=16)
def _circulant_roots(n: int, h: float, scale: float):
    """Square roots of the scaled circulant eigenvalues (ends, middle), or None if the embedding fails."""
    gamma = fgn_autocovariance(h, np.arange(n + 1), scale)
    row = np.concatenate([gamma, gamma[-2:0:-1]])  # circulant first row, length 2n
    eig = np.fft.fft(row).real
    if eig.min() < -_NEG_EIG_TOL * max(eig.max(), 1.0):
        return None
    eig = np.clip(eig, 0.0, None)
    m = 2 * n
    roots = np.sqrt(eig[[0, n]] / m), np.sqrt(eig[1:n] / (2.0 * m))
    for r in roots:
        r.flags.writeable = False
    return roots


def _fgn_circulant(n: int, h: float, scale: float, rng: np.random.Generator) -> np.ndarray | None:
    """n fGn samples via circulant embedding, or None if the embedding fails."""
    roots = _circulant_roots(n, h, scale)
    if roots is None:
        return None
    ends, middle = roots
    w = np.empty(2 * n, dtype=np.complex128)
    w[0] = ends[0] * rng.standard_normal()
    w[n] = ends[1] * rng.standard_normal()
    re = rng.standard_normal(n - 1)
    im = rng.standard_normal(n - 1)
    w[1:n] = middle * (re + 1j * im)
    w[n + 1 :] = np.conj(w[1:n][::-1])
    return np.fft.fft(w)[:n].real


def _fgn_hosking(n: int, h: float, scale: float, rng: np.random.Generator) -> np.ndarray:
    """n fGn samples through the exact conditional-Gaussian recursion."""
    gamma = fgn_autocovariance(h, np.arange(n), 1.0)
    z = rng.standard_normal(n)
    out = np.empty(n)
    out[0] = z[0]
    phi = np.empty(n)
    prev = np.empty(n)
    variance = 1.0  # gamma(0) for unit scale
    order = 0
    for t in range(1, n):
        if order == 0:
            reflection = gamma[1]
        else:
            reflection = (gamma[t] - phi[:order] @ gamma[t - 1 : t - 1 - order : -1]) / variance
        prev[:order] = phi[:order]
        phi[:order] = prev[:order] - reflection * prev[:order][::-1]
        phi[order] = reflection
        order += 1
        variance *= 1.0 - reflection * reflection
        mean = phi[:order] @ out[t - 1 :: -1][:order]
        out[t] = mean + np.sqrt(variance) * z[t]
    return scale * out


def generate_fbm(spec: FbmSpec) -> LogSeries:
    """One fBm path X(0)=0, X(1), ..., X(length-1) as a LogSeries.

    The noise comes from circulant embedding, or from the sequential
    recursion when the embedding has a negative eigenvalue.
    """
    n = spec.length - 1
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    noise = _fgn_circulant(n, spec.h, spec.scale, rng)
    if noise is None:  # the circulant route draws nothing before it fails
        noise = _fgn_hosking(n, spec.h, spec.scale, rng)
    path = np.concatenate([[0.0], np.cumsum(noise)])
    name = f"fbm-h{spec.h:g}-seed{spec.seed}"
    return LogSeries(name, np.arange(spec.length), path)


def generate_drifted_cohort(
    n_series: int,
    length: int,
    h_values,
    drift_per_h,
    seed: int,
    scale: float = 0.005,
) -> list[PriceSeries]:
    """Synthetic "stocks" ``price(t) = exp(fbm_h(t) + drift * t)``.

    Series i draws its roughness from ``h_values[i % len(h_values)]`` and
    its per-step drift from ``drift_per_h``.  Per-series seeds are drawn
    from one PCG64 stream keyed on ``seed``, so the whole cohort is a
    deterministic function of its arguments.  The default step scale
    (0.5% a day) keeps the noise small enough that a monotone
    ``drift_per_h`` yields visibly drift-ordered forward returns.
    """
    if n_series < 1:
        raise InvalidSetting(f"n_series must be >= 1, got {n_series}")
    h_values = tuple(float(h) for h in h_values)
    if not h_values:
        raise InvalidSetting("h_values must be non-empty")
    specs = {h: FbmSpec(h=h, length=length, seed=seed, scale=scale) for h in h_values}  # checks h and seed
    drifts = {h: float(drift_per_h.get(h, np.nan)) for h in h_values}
    for h, drift in drifts.items():
        if not np.isfinite(drift):
            raise InvalidSetting(f"drift for h={h:g} must be given and finite, got {drift_per_h.get(h)}")
    seeder = np.random.Generator(np.random.PCG64(seed))
    t = np.arange(length, dtype=np.float64)
    cohort = []
    for i in range(n_series):
        h = h_values[i % len(h_values)]
        sub_seed = int(seeder.integers(0, 2 ** 63, dtype=np.int64))
        path = generate_fbm(replace(specs[h], seed=sub_seed))
        # an overflowing price fails PriceSeries' non-finite check, not as a numpy warning
        with np.errstate(over="ignore"):
            prices = np.exp(path.values + drifts[h] * t)
        cohort.append(PriceSeries(f"SYN{i:03d}", np.arange(length), prices))
    return cohort
