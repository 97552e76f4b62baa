import math
import re

import numpy as np
import pytest

from hurstlab import (
    FbmSpec,
    InvalidH,
    InvalidSetting,
    NonFiniteInput,
    fgn_autocovariance,
    generate_drifted_cohort,
    generate_fbm,
)
from hurstlab import synthetic
from hurstlab.synthetic import _circulant_roots, _fgn_circulant, _fgn_hosking

DRIFTS = {0.3: 0.0, 0.5: 0.0002, 0.7: 0.0004}


class TestFbmSpec:
    def test_invalid_h(self):
        for h in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(InvalidH):
                FbmSpec(h=h, length=64, seed=1)

    def test_invalid_h_is_an_invalid_setting(self):
        # a bad h follows the error contract of every other bad setting
        assert issubclass(InvalidH, InvalidSetting) and issubclass(InvalidH, ValueError)
        with pytest.raises(ValueError, match=r"^h must lie in \(0, 1\), got 1.5$"):
            FbmSpec(h=1.5, length=64, seed=1)

    def test_invalid_length_and_scale(self):
        with pytest.raises(ValueError):
            FbmSpec(h=0.5, length=4, seed=1)
        for scale in (0.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="scale must be positive and finite"):
                FbmSpec(h=0.5, length=64, seed=1, scale=scale)

    @pytest.mark.parametrize("field, value", [("length", 64.0), ("seed", 1.5), ("length", "64"), ("seed", None)])
    def test_non_integer_length_or_seed_raises_when_built(self, field, value):
        with pytest.raises(TypeError, match=f"{field} must be an integer"):
            FbmSpec(h=0.5, **{"length": 64, "seed": 1, field: value})

    def test_negative_seed_raises_when_built(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            FbmSpec(h=0.5, length=64, seed=-1)

    @pytest.mark.parametrize("h, length, scale", [(0.5, 400, 1e155), (0.9, 2048, 1e153)])
    def test_scale_that_overflows_the_spectrum_raises_when_built(self, h, length, scale):
        # unbounded, 1e155 overflows the fGn covariance and 1e153 its FFT
        message = f"scale {scale} overflows the spectrum of {length} points"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            FbmSpec(h=h, length=length, seed=1, scale=scale)

    def test_largest_scale_within_the_bound_gives_a_finite_path(self):
        scale = math.sqrt(np.finfo(float).max / (2 * 2048))
        while not 2.0 * 2048 * scale * scale < math.inf:
            scale = math.nextafter(scale, 0.0)
        assert np.isfinite(generate_fbm(FbmSpec(h=0.9, length=2048, seed=1, scale=scale)).values).all()

    def test_numpy_integer_length_and_seed_are_kept_as_ints(self):
        spec = FbmSpec(h=0.5, length=np.int32(64), seed=np.uint64(3))
        assert type(spec.length) is int and type(spec.seed) is int
        assert spec == FbmSpec(h=0.5, length=64, seed=3)
        assert generate_fbm(spec).values.tobytes() == generate_fbm(FbmSpec(h=0.5, length=64, seed=3)).values.tobytes()


class TestGenerateFbm:
    def test_path_shape_and_origin(self):
        path = generate_fbm(FbmSpec(h=0.5, length=100, seed=1))
        assert len(path) == 100
        assert path.values[0] == 0.0
        assert path.dates.tolist() == list(range(100))

    def test_deterministic_bit_identical(self):
        spec = FbmSpec(h=0.7, length=256, seed=123456789)
        a = generate_fbm(spec)
        b = generate_fbm(spec)
        assert np.array_equal(a.values, b.values)

    def test_different_seeds_differ(self):
        a = generate_fbm(FbmSpec(h=0.7, length=256, seed=1))
        b = generate_fbm(FbmSpec(h=0.7, length=256, seed=2))
        assert not np.array_equal(a.values, b.values)

    def test_brownian_increments_uncorrelated(self):
        # gamma(k) = 0 for k >= 1 at H = 0.5
        path = generate_fbm(FbmSpec(h=0.5, length=4097, seed=123))
        inc = np.diff(path.values)
        r1 = np.corrcoef(inc[:-1], inc[1:])[0, 1]
        assert abs(r1) <= 3.0 / math.sqrt(4096)

    @pytest.mark.parametrize("h", [0.3, 0.5, 0.7])
    def test_sampler_covariance_matches_analytic(self, h):
        # both sampling routes against the closed-form autocovariance oracle
        n, reps = 8, 20000
        analytic = fgn_autocovariance(h, np.arange(n))
        rng = np.random.Generator(np.random.PCG64(1))
        for sampler in (_fgn_circulant, _fgn_hosking):
            draws = np.array([sampler(n, h, 1.0, rng) for _ in range(reps)])
            empirical = np.array([np.mean(draws[:, 0] * draws[:, k]) for k in range(n)])
            assert np.max(np.abs(empirical - analytic)) < 0.04

    @pytest.mark.parametrize("h", [0.3, 0.7])
    def test_hosking_route_agrees_with_circulant(self, h):
        # terminal variance of both routes against self-similar scaling
        reps = 4000
        rng = np.random.Generator(np.random.PCG64(31337))
        var_c = np.var(
            [generate_fbm(FbmSpec(h=h, length=64, seed=800_000 + i)).values[-1] for i in range(reps)]
        )
        var_h = np.var(
            [np.sum(_fgn_hosking(63, h, 1.0, rng)) for _ in range(reps)]
        )
        analytic = 63.0 ** (2.0 * h)
        assert var_c == pytest.approx(analytic, rel=0.10)
        assert var_h == pytest.approx(analytic, rel=0.10)

    def test_forced_methods_and_scale(self):
        spec = FbmSpec(h=0.5, length=64, seed=7, scale=0.01)

        def rng():
            return np.random.Generator(np.random.PCG64(spec.seed))

        path = generate_fbm(spec)  # circulant embedding succeeds for this h
        noise = _fgn_circulant(63, spec.h, spec.scale, rng())
        assert path.values[0] == 0.0
        assert np.array_equal(path.values[1:], np.cumsum(noise))
        hosking = _fgn_hosking(63, spec.h, spec.scale, rng())
        assert hosking.shape == (63,) and np.all(np.isfinite(hosking))
        assert np.array_equal(hosking, spec.scale * _fgn_hosking(63, spec.h, 1.0, rng()))

    def test_hosking_fallback_is_reachable(self):
        # near H = 1 on long paths the smallest circulant eigenvalue rounds
        # below the tolerance (min/max about -1.2e-8), so generate_fbm falls
        # back to the sequential recursion there
        rng = np.random.Generator(np.random.PCG64(0))
        assert _fgn_circulant(262143, 0.999, 1.0, rng) is None

    def test_failed_embedding_falls_back_to_the_recursion(self, monkeypatch):
        spec = FbmSpec(h=0.7, length=64, seed=11, scale=0.5)
        monkeypatch.setattr(synthetic, "_circulant_roots", lambda n, h, scale: None)
        path = generate_fbm(spec)
        noise = _fgn_hosking(63, spec.h, spec.scale, np.random.Generator(np.random.PCG64(spec.seed)))
        assert path.values.tobytes() == np.concatenate([[0.0], np.cumsum(noise)]).tobytes()

    @pytest.mark.parametrize("h,seed", [(0.3, 777), (0.7, 777)])
    def test_stationary_increments_across_halves(self, h, seed):
        path = generate_fbm(FbmSpec(h=h, length=4096, seed=seed))
        inc = np.diff(path.values)
        n = len(inc) // 2
        first, second = inc[:n], inc[n:]
        # long-range dependence inflates the sd of a running mean:
        # Var(m1 - m2) = n**(2H-2) * (4 - 2**2H) for unit-scale increments
        sd_mean_diff = n ** (h - 1.0) * math.sqrt(4.0 - 2.0 ** (2.0 * h))
        assert abs(first.mean() - second.mean()) <= 3.0 * sd_mean_diff
        se_var = math.sqrt(2.0 * (first.var() ** 2 + second.var() ** 2) / (n - 1))
        assert abs(first.var() - second.var()) <= 3.0 * se_var

    @pytest.mark.parametrize("h,base", [(0.3, 310_000), (0.5, 320_000)])
    def test_variance_scaling_law(self, h, base):
        # Var[X(t+tau) - X(t)] ~ tau**2H, slope over lags 1..16 within 0.05
        lags = np.array([1, 2, 4, 8, 16])
        acc = np.zeros((500, len(lags)))
        for i in range(500):
            v = generate_fbm(FbmSpec(h=h, length=1024, seed=base + i)).values
            acc[i] = [np.var(v[lag:] - v[:-lag]) for lag in lags]
        slope = np.polyfit(np.log(lags), np.log(acc.mean(axis=0)), 1)[0]
        assert slope == pytest.approx(2.0 * h, abs=0.05)

    def test_increments_are_gaussian(self):
        pooled = np.concatenate(
            [
                np.diff(generate_fbm(FbmSpec(h=0.7, length=1024, seed=600_000 + i)).values)
                for i in range(500)
            ]
        )
        z = (pooled - pooled.mean()) / pooled.std()
        assert abs(np.mean(z ** 3)) <= 0.2
        assert abs(np.mean(z ** 4) - 3.0) <= 0.5


def _uncached_path(spec: FbmSpec) -> np.ndarray:
    """The circulant-embedding path with its spectrum computed inline, bypassing the cache."""
    n = spec.length - 1
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    gamma = fgn_autocovariance(spec.h, np.arange(n + 1), spec.scale)
    eig = np.clip(np.fft.fft(np.concatenate([gamma, gamma[-2:0:-1]])).real, 0.0, None)
    m = 2 * n
    w = np.empty(m, dtype=np.complex128)
    w[0] = np.sqrt(eig[0] / m) * rng.standard_normal()
    w[n] = np.sqrt(eig[n] / m) * rng.standard_normal()
    re = rng.standard_normal(n - 1)
    im = rng.standard_normal(n - 1)
    w[1:n] = np.sqrt(eig[1:n] / (2.0 * m)) * (re + 1j * im)
    w[n + 1 :] = np.conj(w[1:n][::-1])
    return np.concatenate([[0.0], np.cumsum(np.fft.fft(w)[:n].real)])


class TestSpectrumCache:
    @pytest.mark.parametrize(
        "length,h,scale", [(64, 0.3, 1.0), (300, 0.5, 0.005), (513, 0.7, 2.5), (1000, 0.9, 1.0)]
    )
    def test_cold_warm_and_uncached_paths_are_equal(self, length, h, scale):
        spec = FbmSpec(h=h, length=length, seed=2024, scale=scale)
        _circulant_roots.cache_clear()
        cold = generate_fbm(spec).values
        warm = generate_fbm(spec).values
        assert _circulant_roots.cache_info().hits == 1
        assert np.array_equal(cold, warm)
        assert np.array_equal(cold, _uncached_path(spec))

    def test_cached_spectrum_is_read_only(self):
        for array in _circulant_roots(63, 0.5, 1.0):
            with pytest.raises(ValueError):
                array[0] = 1.0

    def test_failed_embedding_is_cached_and_still_falls_back(self):
        _circulant_roots.cache_clear()
        rng = np.random.Generator(np.random.PCG64(0))
        state = rng.bit_generator.state
        for _ in range(2):
            assert _fgn_circulant(262143, 0.999, 1.0, rng) is None
        assert _circulant_roots.cache_info().hits == 1
        assert rng.bit_generator.state == state  # nothing drawn before the recursion runs


class TestDriftedCohort:
    def test_zero_drift_brownian_prices_start_at_one(self):
        (series,) = generate_drifted_cohort(1, 64, [0.5], {0.5: 0.0}, seed=3)
        assert series.prices[0] == 1.0
        assert np.all(series.prices > 0)

    def test_h_values_cycle_across_series(self):
        cohort = generate_drifted_cohort(6, 64, [0.3, 0.5, 0.7], DRIFTS, seed=5)
        assert [s.instrument_id for s in cohort] == [f"SYN{i:03d}" for i in range(6)]
        # series i uses h_values[i % 3]; regenerate singles with the same seed stream
        seeder = np.random.Generator(np.random.PCG64(5))
        for i, series in enumerate(cohort):
            h = (0.3, 0.5, 0.7)[i % 3]
            sub_seed = int(seeder.integers(0, 2 ** 63, dtype=np.int64))
            path = generate_fbm(FbmSpec(h=h, length=64, seed=sub_seed, scale=0.005))
            expected = np.exp(path.values + DRIFTS[h] * np.arange(64))
            assert np.array_equal(series.prices, expected)

    def test_deterministic(self):
        a = generate_drifted_cohort(4, 32, [0.5], {0.5: 0.0}, seed=11)
        b = generate_drifted_cohort(4, 32, [0.5], {0.5: 0.0}, seed=11)
        for s, t in zip(a, b):
            assert s.instrument_id == t.instrument_id
            assert np.array_equal(s.prices, t.prices)

    def test_invalid_inputs(self):
        with pytest.raises(InvalidH):
            generate_drifted_cohort(2, 32, [1.5], {1.5: 0.0}, seed=1)
        with pytest.raises(ValueError):
            generate_drifted_cohort(0, 32, [0.5], {0.5: 0.0}, seed=1)
        with pytest.raises(ValueError):
            generate_drifted_cohort(2, 32, [], {}, seed=1)

    @pytest.mark.parametrize("drift_per_h, seed, error, message", [
        ({0.3: 0.0}, 0, ValueError, "drift for h=0.5 must be given and finite, got None"),
        ({0.3: 0.0, 0.5: math.inf}, 0, ValueError, "drift for h=0.5 must be given and finite, got inf"),
        ({0.3: 0.0, 0.5: math.nan}, 0, ValueError, "drift for h=0.5 must be given and finite, got nan"),
        ({0.3: 0.0, 0.5: 0.0}, -1, ValueError, "seed must be >= 0, got -1"),
        ({0.3: 0.0, 0.5: 0.0}, 1.5, TypeError, "seed must be an integer, got 1.5"),
    ], ids=["missing-drift", "infinite-drift", "nan-drift", "negative-seed", "fractional-seed"])
    def test_settings_fail_before_any_path_is_drawn(self, monkeypatch, drift_per_h, seed, error, message):
        def no_path(spec):
            raise AssertionError("a path was drawn before the settings were checked")

        monkeypatch.setattr(synthetic, "generate_fbm", no_path)
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            generate_drifted_cohort(2, 100, [0.3, 0.5], drift_per_h, seed=seed)

    @pytest.mark.parametrize("drifts, scale", [((10.0, 0.0, 0.0), 0.005), ((0.0, 0.0, 0.0), 100.0)],
                             ids=["steep-drift", "wide-steps"])
    def test_overflowing_prices_fail_the_non_finite_price_check(self, drifts, scale):
        drift_per_h = dict(zip((0.3, 0.5, 0.7), drifts))
        with pytest.raises(NonFiniteInput, match="^SYN000: non-finite price$"):
            generate_drifted_cohort(6, 400, tuple(drift_per_h), drift_per_h, seed=0, scale=scale)
