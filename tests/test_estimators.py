import math
import re
from dataclasses import astuple, replace

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from hypothesis import given, settings
from hypothesis import strategies as st

from hurstlab import (
    DegenerateRegression,
    EstimatorConfig,
    FbmSpec,
    HurstLabError,
    InvalidSetting,
    LogSeries,
    Method,
    NonFiniteInput,
    PriceSeries,
    ScanSpec,
    SeriesTooShort,
    default_config,
    dfa,
    estimate,
    generate_fbm,
    ghe,
    gm2,
    scan,
)
from hurstlab.estimators import (
    HEstimate,
    _block_ramp,
    _blocks,
    _detrended_fluctuations,
    _lag_moments,
    _log_scales,
    check_length,
    estimate_rows,
    fit_statistic,
    statistic,
)
from hurstlab.series import fit_rows


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
        for q in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="q must be positive and finite"):
                EstimatorConfig(q=q)
        with pytest.raises(ValueError):
            EstimatorConfig(tau_max=1)
        with pytest.raises(ValueError):
            EstimatorConfig(k_min=1)
        with pytest.raises(ValueError):
            EstimatorConfig(k_min=4, k_max=5)

    @pytest.mark.parametrize("field, value", [("k_min", 2.5), ("k_max", 6.0), ("tau_max", "9"), ("k_max", None)])
    def test_non_integer_lag_or_block_exponent_raises_when_built(self, field, value):
        with pytest.raises(TypeError, match=f"^{field} must be an integer, got {value!r}$"):
            EstimatorConfig(**{field: value})

    def test_numpy_integer_settings_are_kept_as_ints(self):
        cfg = EstimatorConfig(tau_max=np.int64(9), k_min=np.int32(2), k_max=np.uint8(6))
        assert cfg == EstimatorConfig(tau_max=9, k_min=2, k_max=6)
        assert all(type(getattr(cfg, name)) is int for name in ("tau_max", "k_min", "k_max"))

    @pytest.mark.parametrize("length", [5, 32])
    def test_method_that_is_not_a_method_raises_at_the_length_rule(self, length):
        # a name is not a Method; it fails at any length, before any estimator runs
        for call in (
            lambda: check_length("ghe", EstimatorConfig(), length),
            lambda: default_config("ghe", length),
            lambda: estimate_rows("ghe", np.zeros((2, length)), EstimatorConfig(tau_max=2)),
        ):
            with pytest.raises(ValueError, match="^unknown method 'ghe'$"):
                call()

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

    # the signal each method reads: the log prices, or DFA's return profile x[1:]
    @pytest.mark.parametrize("method, signal, shortest", [
        (Method.GHE, "prices", 3),  # reads lags, not blocks
        (Method.GM2, "prices", 17),
        (Method.DFA, "profile", 18),
    ])
    def test_default_config_raises_below_its_shortest_length(self, method, signal, shortest):
        # lengths 0 and 1 included: they must raise, not loop; the messages are check_length's
        for length in range(shortest):
            if method is Method.GHE:
                message = f"ghe: need more than tau_max=2 points, got {length}"
            else:
                # x[1:] of an empty window is empty, not -1 points long
                partition = max(length - 1, 0) if signal == "profile" else length
                message = f"{method.value.lower()}: largest block 2**4 does not fit in {partition} points"
            with pytest.raises(SeriesTooShort) as err:
                default_config(method, length)
            assert str(err.value) == message
        check_length(method, default_config(method, shortest), shortest)

    @pytest.mark.parametrize("method", list(Method))
    def test_default_config_raises_only_where_check_length_does(self, method):
        for length in range(41):
            # the config the docstring derives, whether or not it fits
            k_max = max((length // 2).bit_length() - 1, 4)
            derived = EstimatorConfig(
                q=2.0 if method is Method.DFA else 1.0,
                tau_max=max(2, min(19, length - 1)),
                k_min=max(2, k_max - 3) if method is Method.GM2 else 2,
                k_max=k_max,
            )
            rejection = _rejection(method, derived, length)
            try:
                assert default_config(method, length) == derived and rejection is None, length
            except SeriesTooShort as exc:
                assert str(exc) == rejection, length
            # so it raises exactly where no valid config of the method fits
            valid = [
                EstimatorConfig(tau_max=tau_max, k_max=k_max)
                for tau_max in range(2, 21) for k_max in range(4, 7)
            ]
            fits = any(_rejection(method, cfg, length) is None for cfg in valid)
            assert fits == (rejection is None), length

    def test_default_ghe_fits_short_series(self):
        x = _series(np.cumsum(np.random.Generator(np.random.PCG64(10)).standard_normal(10)))
        assert ghe(x) == ghe(x, EstimatorConfig(tau_max=9))
        assert ghe(x).fit.n_points == 9

    @pytest.mark.parametrize("estimator", [ghe, dfa, gm2])
    def test_empty_series_is_too_short(self, estimator):
        with pytest.raises(SeriesTooShort):
            estimator(_series([]))

    def test_length_rule(self):
        check_length(Method.GHE, EstimatorConfig(tau_max=19), 20)
        with pytest.raises(SeriesTooShort, match=r"^ghe: need more than tau_max=19 points, got 19$"):
            check_length(Method.GHE, EstimatorConfig(tau_max=19), 19)
        # GHE reads no blocks, so k_max does not bind it
        check_length(Method.GHE, EstimatorConfig(k_max=8), 20)
        cfg = EstimatorConfig(k_max=5)
        check_length(Method.GM2, cfg, 33)
        with pytest.raises(SeriesTooShort, match=r"^gm2: largest block 2\*\*5 does not fit in 32 points$"):
            check_length(Method.GM2, cfg, 32)
        check_length(Method.DFA, cfg, 34)
        with pytest.raises(SeriesTooShort, match=r"^dfa: largest block 2\*\*5 does not fit in 32 points$"):
            check_length(Method.DFA, cfg, 33)

    @pytest.mark.parametrize("method", list(Method))
    def test_default_config_is_one_object_per_integer_length(self, method):
        cfg = default_config(method, 512)
        assert default_config(method, np.int64(512)) is cfg
        assert default_config(method, np.int32(512)) is cfg
        assert type(cfg.k_max) is int and cfg == default_config(method, 512)

    @pytest.mark.parametrize("length", [512.0, "512", None])
    def test_default_config_length_must_be_an_integer(self, length):
        with pytest.raises(TypeError, match=rf"^length must be an integer, got {re.escape(repr(length))}$"):
            default_config(Method.GHE, length)

    def test_default_config_raises_on_every_call(self):
        # an error is not memoized: the same arguments raise again
        for _ in range(2):
            with pytest.raises(SeriesTooShort, match="does not fit in 12 points"):
                default_config(Method.GM2, 12)
            with pytest.raises(InvalidSetting, match="^unknown method 'ghe'$"):
                default_config("ghe", 64)

    @pytest.mark.parametrize("method", list(Method))
    def test_log_scales_are_cached_per_config_and_read_only(self, method):
        cfg = default_config(method, 256)
        log_scales = _log_scales(method, cfg)
        assert _log_scales(method, replace(cfg)) is log_scales
        expected = np.arange(1, cfg.tau_max + 1) if method is Method.GHE else np.array(cfg.scales())
        assert log_scales.tobytes() == np.log(expected).tobytes()
        with pytest.raises(ValueError):
            log_scales[0] = 1.0

    @pytest.mark.parametrize("length", [*range(17, 41), 64])
    def test_no_config_means_default_config(self, length):
        # random walks, a constant row and a row constant from its second point
        walks = np.cumsum(np.random.Generator(np.random.PCG64(length)).standard_normal((4, length)), axis=1)
        windows = np.vstack([walks, np.zeros(length), np.r_[0.0, np.ones(length - 1)]])
        for method in Method:
            assert _outcome(lambda: estimate_rows(method, windows)) == _outcome(
                lambda: estimate_rows(method, windows, default_config(method, length))
            ), method
        # DFA of all the points of a window is DFA of the window after any one more leading point
        cfg = default_config(Method.DFA, length + 1)
        every_point = lambda: fit_statistic(Method.DFA, _detrended_fluctuations(windows, cfg.scales(), cfg.q), cfg)
        for lead in (np.full((len(windows), 1), 7.0), windows[:, :1]):
            leading = np.hstack([lead, windows])
            assert _outcome(lambda: estimate_rows(Method.DFA, leading)) == _outcome(every_point)


def _rejection(method, cfg, length):
    """``check_length``'s message for ``cfg`` at ``length``, or None when it fits."""
    try:
        check_length(method, cfg, length)
    except SeriesTooShort as exc:
        return str(exc)
    return None


def _outcome(run):
    """Every array and row error of an ``estimate_rows`` call, or the class it raised."""
    try:
        h, fits = run()
    except HurstLabError as exc:
        return type(exc)
    arrays = [a.tobytes() for a in (h, fits.slope, fits.intercept, fits.r_squared, fits.n_points)]
    return arrays + sorted((i, type(e), str(e)) for i, e in fits.errors.items())


class TestGhe:
    def test_linear_ramp_gives_h_one(self):
        est = ghe(_ramp())
        assert est.h == pytest.approx(1.0, abs=1e-9)
        assert est.method is Method.GHE
        assert est.window_length == 200
        assert not est.suspect

    def test_hand_computed_tiny_case(self):
        # v = [0, 1, 3], q = 1: K(1) = (1 + 2) / 2, K(2) = 3 / 1
        stat = _lag_moments(np.array([[0.0, 1.0, 3.0]]), 1.0, 2)
        assert stat.tolist() == [[1.5, 3.0]]

    def test_lag_statistic_strictly_increasing_on_ramp(self):
        stat = _lag_moments(_ramp().values[None], 1.0, 19)
        assert np.all(np.diff(stat[0]) > 0)

    def test_constant_series_degenerates(self):
        for level in (0.0, 3.0):
            with pytest.raises(DegenerateRegression, match="every lag statistic is zero"):
                ghe(_series(np.full(64, level)))

    def test_too_short(self):
        with pytest.raises(SeriesTooShort):
            ghe(_series(np.arange(10.0)), EstimatorConfig(tau_max=19))

    @pytest.mark.parametrize("q", [1.0, 2.0, 0.5])
    def test_oracle_recomputation(self, q):
        # independent plain-loop recomputation of the lag statistic
        v = generate_fbm(FbmSpec(h=0.6, length=128, seed=3)).values
        stat = _lag_moments(v[None], q, 10)
        for tau, s in enumerate(stat[0], start=1):
            pairs = [abs(v[t + tau] - v[t]) ** q for t in range(len(v) - tau)]
            assert s == pytest.approx(sum(pairs) / len(pairs), rel=1e-12)


def _periodic_log_prices(period, length, seed=0):
    """Log prices that repeat every ``period`` points: each lag that is a multiple of it has a zero moment."""
    cycle = 4.0 + 0.01 * np.random.Generator(np.random.PCG64(seed)).standard_normal(period)
    return np.resize(cycle, length)


PERIODIC = [(period, length) for period in (2, 3, 5) for length in (128, 512)]


def _bits(*values):
    return np.array(values, dtype=np.float64).tobytes()


class TestGheZeroLags:
    """GHE leaves the lags whose moment is exactly zero out of a row's fit (Di Matteo 2007)."""

    @pytest.mark.parametrize("period, length", PERIODIC)
    def test_a_periodic_window_is_fitted_on_its_nonzero_lags(self, period, length):
        values = _periodic_log_prices(period, length)
        cfg = default_config(Method.GHE, length)
        stat = statistic(Method.GHE, values[None], cfg)[0]
        kept = stat != 0.0
        assert np.flatnonzero(~kept).tolist() == list(range(period - 1, cfg.tau_max, period))
        fit = fit_rows(_log_scales(Method.GHE, cfg)[kept], np.log(stat[kept])[None]).row(0)
        est = ghe(_series(values))
        assert est.fit.n_points == kept.sum() == cfg.tau_max - cfg.tau_max // period
        assert _bits(est.h, *astuple(est.fit)) == _bits(fit.slope / cfg.q, *astuple(fit))

    @pytest.mark.parametrize("period, length", PERIODIC)
    def test_the_batch_the_one_row_call_and_the_scan_agree(self, period, length):
        prices = np.exp(_periodic_log_prices(period, 3 * length, seed=period))
        spec = ScanSpec(window=length, methods=(Method.GHE,))
        pool = scan([PriceSeries("P", np.arange(len(prices)), prices)], spec).pools[Method.GHE]
        log_prices = np.log(prices)
        windows = [log_prices[end - length + 1 : end + 1] for end in pool.window_end.tolist()]
        assert len(windows) > 1
        # batched with a walk and a constant row, which fit as they do alone
        walk = np.cumsum(np.random.Generator(np.random.PCG64(length)).standard_normal(length))
        h, fits = estimate_rows(Method.GHE, np.vstack([*windows, walk, np.full(length, 2.0)]))
        tau_max = default_config(Method.GHE, length).tau_max
        for i, values in enumerate([*windows, walk]):
            alone = ghe(_series(values))
            assert _bits(h[i], *astuple(fits.row(i))) == _bits(alone.h, *astuple(alone.fit)), i
            if i < len(windows):
                assert _bits(pool.h[i]) == _bits(alone.h), i
                assert alone.fit.n_points == tau_max - tau_max // period
        constant = len(windows) + 1
        assert list(fits.errors) == [constant]
        assert str(fits.errors[constant]) == "ghe: every lag statistic is zero (constant series)"

    def test_a_row_left_with_one_lag_fails_as_a_one_point_fit(self):
        # period 2 with tau_max 2 keeps lag 1 alone
        cfg = EstimatorConfig(tau_max=2)
        h, fits = estimate_rows(Method.GHE, _periodic_log_prices(2, 32)[None], cfg)
        assert np.isnan(h[0]) and fits.n_points.tolist() == [1]
        assert type(fits.errors[0]) is DegenerateRegression
        assert str(fits.errors[0]) == "need at least 2 points, got 1"


class TestDfa:
    def test_exactly_linear_series_degenerates(self):
        windows = (
            2.0 + 0.25 * np.arange(64),  # dyadic slope keeps the ramp exactly linear
            # exactly linear only after the first point, as when a halt starts on
            # the window's second day: the return profile detrends to zero too
            np.r_[0.0, np.ones(63)],
            np.r_[math.log(100.0), np.full(511, math.log(101.5))],
        )
        for values in windows:
            with pytest.raises(DegenerateRegression, match="zero fluctuation"):
                dfa(_series(values))

    def test_iid_gaussian_returns_give_half(self):
        rng = np.random.Generator(np.random.PCG64(42))
        vals = []
        for _ in range(200):
            walk = np.concatenate([[0.0], np.cumsum(rng.standard_normal(511))])
            vals.append(dfa(_series(walk)).h)
        assert 0.45 <= np.mean(vals) <= 0.58

    @pytest.mark.parametrize("q", [2.0, 1.0, 3.0])
    def test_fluctuation_oracle_polyfit(self, q):
        # recompute fluctuations per block with numpy.polyfit as an independent route
        x = generate_fbm(FbmSpec(h=0.5, length=256, seed=11))
        increments = np.diff(x.values)
        profile = np.cumsum(increments - increments.mean())
        # all of the log prices are detrended after one more leading point
        leading = _series(np.r_[0.0, x.values])
        for window, signal in ((x, profile), (leading, x.values)):
            cfg = replace(default_config(Method.DFA, len(window)), q=q)
            est = dfa(window, cfg)
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
            assert est.h == pytest.approx(slope, abs=1e-9), len(window)

    def test_cached_block_ramp_is_read_only(self):
        dt, dt_norm, ones = _block_ramp(16)
        assert dt_norm == float(dt @ dt) and dt.sum() == 0.0 and ones.sum() == 16.0
        for array in (dt, ones):
            with pytest.raises(ValueError):
                array[0] = 1.0



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


    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.integers(1, 40),
        length=st.integers(17, 300),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_block_extremes_equal_per_block_reductions(self, rows, length, seed, data):
        # every row of the stack equals, bit for bit, its mean ranges from one max and one min per block
        # and the same row alone; rows may hold a NaN, halt into constant blocks or hold signed zeros
        rng = np.random.Generator(np.random.PCG64(seed))
        stack = np.cumsum(rng.standard_normal((rows, length)), axis=1)
        kinds = data.draw(st.lists(st.sampled_from(["walk", "nan", "halted", "zeros"]), min_size=rows, max_size=rows))
        for i, kind in enumerate(kinds):
            at = int(rng.integers(length))
            if kind == "nan":
                stack[i, at] = np.nan
            elif kind == "halted":
                stack[i, at:] = stack[i, at]
            elif kind == "zeros":
                stack[i] = rng.choice([0.0, -0.0, 1.0, -1.0], size=length, p=[0.45, 0.45, 0.05, 0.05])
        cfg = default_config(Method.GM2, length)
        stat = statistic(Method.GM2, stack, cfg)
        assert stat.tobytes() == _per_block_mean_ranges(stack, cfg.scales()).tobytes()
        for i in range(rows):
            assert statistic(Method.GM2, stack[i : i + 1], cfg).tobytes() == stat[i].tobytes(), (i, kinds[i])


def _per_block_mean_ranges(values, scales):
    """GM2's statistic with each smallest-scale block reduced on its own, as ``_mean_block_ranges`` once did."""
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
        assert ghe(x1).h == ghe(x2).h

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

    @settings(max_examples=30, deadline=None)
    @given(
        h=st.floats(0.05, 0.95),
        length=st.integers(64, 1024),
        seed=st.integers(0, 2**63 - 1),
        shift=st.floats(-20.0, 20.0),
    )
    def test_representable_shift_leaves_every_estimate_bit_identical(self, h, length, seed, shift):
        # a price rescaling whose log shift adds exactly to every value on a 2**-26 grid
        grid = 2.0 ** 26
        v = np.round(generate_fbm(FbmSpec(h=h, length=length, seed=seed)).values * grid) / grid
        shift = np.round(shift * grid) / grid
        assert np.all((v + shift) - shift == v)
        x1, x2 = _series(v), _series(v + shift)
        # DFA of all of the log prices: the prepended point is the same in both
        every_point = lambda x: dfa(_series(np.r_[0.0, x.values]))
        for est in (ghe, gm2, dfa, every_point):
            assert est(x1).h == est(x2).h


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

    @pytest.mark.parametrize("method", list(Method), ids=lambda m: m.value)
    def test_stacked_statistics_fit_as_each_matrix_alone(self, method):
        # a walk, a walk halted from its 17th point, a constant row, a walk, a row of period 2 (GHE's even
        # lags have zero moment and leave its fit) and a row of zeros
        length = 64
        walks = np.cumsum(np.random.Generator(np.random.PCG64(7)).standard_normal((3, length)), axis=1)
        halted = np.r_[walks[1, :16], np.full(length - 16, walks[1, 15])]
        first = np.vstack([walks[0], halted, np.full(length, 2.0)])
        second = np.vstack([walks[2], np.tile([0.0, 1.0], length // 2), np.zeros(length)])
        cfg = default_config(method, length)
        stats = [statistic(method, matrix, cfg) for matrix in (first, second)]
        stacked_h, stacked = fit_statistic(method, np.concatenate(stats), cfg)
        columns = ("slope", "intercept", "r_squared", "n_points")
        offset = 0
        for stat in stats:
            h, fits = fit_statistic(method, stat, cfg)
            rows = slice(offset, offset + len(stat))
            assert stacked_h[rows].tobytes() == h.tobytes()
            for column in columns:
                assert getattr(stacked, column)[rows].tobytes() == getattr(fits, column).tobytes(), column
            errors = {i - offset: e for i, e in stacked.errors.items() if rows.start <= i < rows.stop}
            assert [(i, type(e), str(e)) for i, e in sorted(errors.items())] == [
                (i, type(e), str(e)) for i, e in sorted(fits.errors.items())
            ]
            offset += len(stat)
        # both constant rows fail as the one-row estimator does; the halted and period-2 rows are fitted
        assert sorted(stacked.errors) == [2, 5]
        assert all(isinstance(e, DegenerateRegression) for e in stacked.errors.values())
        if method is Method.GHE:
            assert stacked.n_points[4] == cfg.tau_max // 2 + cfg.tau_max % 2
        # estimate_rows is the two stages over one matrix
        for matrix, stat in zip((first, second), stats):
            assert _outcome(lambda: estimate_rows(method, matrix, cfg)) == _outcome(
                lambda: fit_statistic(method, stat, cfg)
            )

    @pytest.mark.parametrize("est", [ghe, dfa, gm2], ids=lambda est: est.__name__)
    def test_a_nan_window_is_non_finite_input(self, est):
        # one NaN reaches every lag, scale and block; GHE must not take its NaN lags for zero ones
        stack = np.cumsum(np.random.Generator(np.random.PCG64(5)).standard_normal((4, 128)), axis=1)
        stack[2, 50] = np.nan
        with pytest.raises(NonFiniteInput, match="NaN or infinity"):
            est(_series(stack[2]))
        method = Method(est.__name__.upper())
        h, fits = estimate_rows(method, stack)
        assert list(fits.errors) == [2] and type(fits.errors[2]) is NonFiniteInput and np.isnan(h[2])
        for i in (0, 1, 3):
            alone = est(_series(stack[i]))
            assert h[i : i + 1].tobytes() == np.float64(alone.h).tobytes() and fits.row(i) == alone.fit


def _layouts(rng, window, rows, roll, start):
    """Windows of one random walk laid out in memory every way a caller might pass them."""
    walk = np.cumsum(rng.standard_normal(start + (rows - 1) * roll + 2 * window))
    overlapping = sliding_window_view(walk, window)[start::roll][:rows]
    return walk, {
        "overlapping": overlapping,
        "broadcast": np.broadcast_to(overlapping[0], (rows, window)),
        "reversed rows": overlapping[::-1],
        "reversed columns": overlapping[:, ::-1],
        "fortran": np.asfortranarray(overlapping),
        "inner stride 2": sliding_window_view(walk, 2 * window - 1)[start::roll, ::2][:rows],
    }


class TestRowLayouts:
    CONFIGS = [(Method.GHE, q) for q in (1.0, 2.0, 0.5)] + [(Method.DFA, 2.0), (Method.GM2, 1.0)]

    @settings(max_examples=30, deadline=None)
    @given(
        window=st.integers(32, 96),
        rows=st.integers(1, 8),
        start=st.integers(0, 7),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_each_row_of_any_layout_equals_that_row_alone(self, window, rows, start, seed, data):
        roll = data.draw(st.integers(1, window + 7), label="roll")
        walk, layouts = _layouts(np.random.Generator(np.random.PCG64(seed)), window, rows, roll, start)
        walk_before = walk.copy()
        alone = {}
        for name, matrix in layouts.items():
            before = np.array(matrix)
            for method, q in self.CONFIGS:
                cfg = replace(default_config(method, window), q=q)
                h, fits = estimate_rows(method, matrix, cfg)
                for i, row in enumerate(matrix):
                    key = (method, q, row.tobytes())
                    if key not in alone:
                        alone[key] = estimate(method, _series(row), cfg)
                    assert h[i] == alone[key].h and fits.row(i) == alone[key].fit, (name, method, q, i)
            assert np.array_equal(matrix, before), name
        assert np.array_equal(walk, walk_before)

    @pytest.mark.parametrize("method", list(Method), ids=lambda m: m.value)
    def test_one_dimensional_input_names_its_shape(self, method):
        with pytest.raises(ValueError, match=r"got shape \(64,\)"):
            estimate_rows(method, np.cumsum(np.ones(64)))

    @pytest.mark.parametrize("method", list(Method), ids=lambda m: m.value)
    def test_zero_rows_give_empty_results(self, method):
        walk = np.cumsum(np.random.Generator(np.random.PCG64(2)).standard_normal(200))
        for empty in (np.empty((0, 64)), sliding_window_view(walk, 64)[5:5], sliding_window_view(walk, 64)[300::3]):
            h, fits = estimate_rows(method, empty)
            assert h.shape == fits.slope.shape == fits.n_points.shape == (0,)
            assert fits.errors == {}
