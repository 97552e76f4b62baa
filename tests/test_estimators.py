import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hurstlab import (
    DegenerateRegression,
    EstimatorConfig,
    FbmSpec,
    LogSeries,
    Method,
    SeriesTooShort,
    ZeroSignal,
    default_config,
    dfa,
    estimate,
    generate_fbm,
    ghe,
    gm2,
)
from hurstlab.estimators import HEstimate, _blocks, _lag_moment_ratio, estimate_rows


def _series(values, name="X"):
    values = np.asarray(values, dtype=float)
    return LogSeries(name, np.arange(len(values)), values)


def _ramp(n=200, c=0.37):
    return _series(c * np.arange(n))


def _fbm_set(h, length, count, base):
    return [generate_fbm(FbmSpec(h=h, length=length, seed=base + i)) for i in range(count)]


class TestConfig:
    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            EstimatorConfig(q=0.0)
        with pytest.raises(ValueError):
            EstimatorConfig(tau_max=1)
        with pytest.raises(ValueError):
            EstimatorConfig(k_min=1)
        with pytest.raises(ValueError):
            EstimatorConfig(k_min=4, k_max=5)
        with pytest.raises(ValueError):
            EstimatorConfig(detrend_order=2)

    def test_default_scale_bounds_per_window(self):
        assert default_config(Method.DFA, 32).scales() == (4, 8, 16)
        assert default_config(Method.DFA, 128).scales() == (4, 8, 16, 32, 64)
        assert default_config(Method.DFA, 512).scales() == (4, 8, 16, 32, 64, 128, 256)
        # gm2 drops the small, bias-dominated scales once the window allows
        assert default_config(Method.GM2, 128).scales() == (8, 16, 32, 64)
        assert default_config(Method.GM2, 512).scales() == (32, 64, 128, 256)

    def test_too_short_window(self):
        with pytest.raises(SeriesTooShort):
            default_config(Method.GM2, 12)


class TestGhe:
    def test_linear_ramp_gives_h_one(self):
        est = ghe(_ramp())
        assert est.h == pytest.approx(1.0, abs=1e-9)
        assert est.method is Method.GHE
        assert est.window_length == 200
        assert not est.suspect

    def test_hand_computed_tiny_case(self):
        # v = [0, 1, 3], q = 1: denominator 4/3; K(1) = 1.5/(4/3), K(2) = 3/(4/3)
        taus, stat = _lag_moment_ratio(np.array([0.0, 1.0, 3.0]), 1.0, 2)
        assert taus.tolist() == [1, 2]
        assert stat == pytest.approx([1.125, 2.25], rel=1e-14)

    def test_lag_statistic_strictly_increasing_on_ramp(self):
        taus, stat = _lag_moment_ratio(_ramp().values, 1.0, 19)
        assert np.all(np.diff(stat) > 0)

    def test_zero_signal(self):
        with pytest.raises(ZeroSignal):
            ghe(_series(np.zeros(64)))

    def test_constant_series_degenerates(self):
        with pytest.raises((ZeroSignal, DegenerateRegression)):
            ghe(_series(np.full(64, 3.0)))

    def test_too_short(self):
        with pytest.raises(SeriesTooShort):
            ghe(_series(np.arange(10.0)), EstimatorConfig(tau_max=19))

    def test_oracle_recomputation(self):
        # independent plain-loop recomputation of the lag statistic
        v = generate_fbm(FbmSpec(h=0.6, length=128, seed=3)).values
        taus, stat = _lag_moment_ratio(v, 1.0, 10)
        denom = sum(abs(x) for x in v) / len(v)
        for tau, s in zip(taus, stat):
            pairs = [abs(v[t + tau] - v[t]) for t in range(len(v) - tau)]
            assert s == pytest.approx((sum(pairs) / len(pairs)) / denom, rel=1e-12)

    def test_calibration_h07(self):
        paths = _fbm_set(0.7, 512, 200, 12_000)
        mean = np.mean([ghe(p).h for p in paths])
        assert 0.65 <= mean <= 0.75


class TestDfa:
    def test_exactly_linear_series_degenerates(self):
        # dyadic slope keeps the ramp exactly linear in floating point
        with pytest.raises(DegenerateRegression):
            dfa(_series(2.0 + 0.25 * np.arange(64)))

    def test_iid_gaussian_returns_give_half(self):
        rng = np.random.Generator(np.random.PCG64(42))
        vals = []
        for _ in range(200):
            walk = np.concatenate([[0.0], np.cumsum(rng.standard_normal(511))])
            vals.append(dfa(_series(walk)).h)
        assert 0.45 <= np.mean(vals) <= 0.58

    def test_calibration_h03(self):
        paths = _fbm_set(0.3, 512, 200, 10_000)
        mean = np.mean([dfa(p).h for p in paths])
        assert 0.22 <= mean <= 0.38

    def test_fluctuation_oracle_polyfit(self):
        # recompute fluctuations per block with numpy.polyfit as an independent route
        x = generate_fbm(FbmSpec(h=0.5, length=256, seed=11))
        cfg = default_config(Method.DFA, 256)
        est = dfa(x, cfg)
        increments = np.diff(x.values)
        signal = np.cumsum(increments - increments.mean())
        expected = []
        for m in cfg.scales():
            blocks = _blocks(signal, m)
            t = np.arange(m, dtype=float)
            powers = []
            for block in blocks:
                coeffs = np.polyfit(t, block, 1)
                resid = block - np.polyval(coeffs, t)
                powers.append(np.mean(resid ** 2) ** (cfg.q / 2.0))
            expected.append(np.mean(powers) ** (1.0 / cfg.q))
        slope = np.polyfit(np.log(cfg.scales()), np.log(expected), 1)[0]
        assert est.h == pytest.approx(slope, abs=1e-9)

    def test_raw_mode_close_to_profile_mode(self):
        x = generate_fbm(FbmSpec(h=0.6, length=512, seed=21))
        assert dfa(x, mode="raw").h == pytest.approx(dfa(x, mode="profile").h, abs=0.15)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            dfa(generate_fbm(FbmSpec(h=0.5, length=64, seed=1)), mode="bogus")


class TestGm2:
    def test_constant_series_degenerates(self):
        with pytest.raises(DegenerateRegression):
            gm2(_series(np.full(64, 1.7)))

    def test_block_range_oracle(self):
        v = np.array([0.0, 2.0, 1.0, 5.0, 4.0, 0.0, 3.0, 1.0])
        blocks = _blocks(v, 4)
        ranges = blocks.max(axis=1) - blocks.min(axis=1)
        assert ranges.tolist() == [5.0, 4.0]
        assert _blocks(np.arange(10.0), 4).shape == (2, 4)  # trailing remainder dropped

    def test_brownian_calibration(self):
        paths = _fbm_set(0.5, 512, 200, 11_000)
        mean = np.mean([gm2(p).h for p in paths])
        assert 0.45 <= mean <= 0.55

    def test_calibration_h07(self):
        paths = _fbm_set(0.7, 512, 200, 12_000)
        mean = np.mean([gm2(p).h for p in paths])
        assert 0.65 <= mean <= 0.75

    def test_short_window_bias_h03_shrinks_with_length(self):
        # the sampled-range deficit biases GM2 upward at H = 0.3, less so on
        # longer paths whose default blocks are larger (512-4096 at 8192)
        short = np.mean([gm2(p).h for p in _fbm_set(0.3, 512, 200, 13_000)])
        long = np.mean([gm2(p).h for p in _fbm_set(0.3, 8192, 200, 13_000)])
        assert short > long > 0.3

    def test_time_reversal_exact_on_block_multiple_length(self):
        rng = np.random.Generator(np.random.PCG64(5))
        values = np.cumsum(rng.integers(-3, 4, size=64)).astype(float)
        values[0] += 1.0  # guard against an all-constant draw
        cfg = EstimatorConfig(q=1.0, k_min=2, k_max=4)  # 64 is a multiple of 4, 8, 16
        forward = gm2(_series(values), cfg)
        backward = gm2(_series(values[::-1].copy()), cfg)
        assert forward.h == backward.h
        assert forward.fit == backward.fit


class TestSharedBehavior:
    def test_determinism_bit_identical(self):
        x = generate_fbm(FbmSpec(h=0.6, length=256, seed=9))
        for est in (ghe, dfa, gm2):
            a, b = est(x), est(x)
            assert a.h == b.h and a.fit == b.fit

    def test_exact_level_shift_leaves_gm2_dfa_bits_and_ghe_1e9(self):
        # price rescaling by exp(shift); values quantized so the shift adds exactly
        grid = 2.0 ** 26
        v = np.round(generate_fbm(FbmSpec(h=0.6, length=512, seed=99)).values * grid) / grid
        shift = np.round(math.log(4.0) * grid) / grid
        assert np.all((v + shift) - shift == v)
        x1, x2 = _series(v), _series(v + shift)
        assert gm2(x1).h == gm2(x2).h
        assert dfa(x1).h == dfa(x2).h
        assert ghe(x1).h == pytest.approx(ghe(x2).h, abs=1e-9)

    def test_suspect_flag_boundaries(self):
        fit = ghe(_ramp()).fit
        assert not HEstimate(1.0, fit, Method.GHE, 10).suspect
        assert HEstimate(0.0, fit, Method.GHE, 10).suspect
        assert HEstimate(2.0, fit, Method.GHE, 10).suspect
        assert HEstimate(-0.3, fit, Method.GHE, 10).suspect
        assert HEstimate(2.4, fit, Method.GHE, 10).suspect

    def test_estimate_dispatch(self):
        x = generate_fbm(FbmSpec(h=0.5, length=128, seed=4))
        from hurstlab import estimate

        assert estimate(Method.GHE, x).h == ghe(x).h
        assert estimate(Method.DFA, x).h == dfa(x).h
        assert estimate(Method.GM2, x).h == gm2(x).h
        with pytest.raises(ValueError):
            estimate("GHE", x)  # not a Method member

    def test_ghe_default_lag_clamp_on_short_series(self):
        # default tau_max shrinks below 19 when the series has fewer points
        x = generate_fbm(FbmSpec(h=0.5, length=18, seed=4))
        est = ghe(x)
        assert est.fit.n_points <= 17


class TestRowIndependence:
    @settings(max_examples=25, deadline=None)
    @given(
        length=st.integers(32, 256),
        rows=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_each_row_equals_that_row_alone(self, length, rows, seed, data):
        rng = np.random.Generator(np.random.PCG64(seed))
        stack = np.cumsum(rng.standard_normal((rows, length)), axis=1)
        order = data.draw(st.permutations(range(rows)))
        for method in Method:
            h, fits = estimate_rows(method, stack)
            permuted_h, permuted_fits = estimate_rows(method, stack[order])
            for i in range(rows):
                alone = estimate(method, _series(stack[i]))
                j = order.index(i)
                assert h[i] == alone.h and fits.row(i) == alone.fit
                assert permuted_h[j] == alone.h and permuted_fits.row(j) == alone.fit
