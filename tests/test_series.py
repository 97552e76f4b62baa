import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from hurstlab import (
    DegenerateRegression,
    HurstLabError,
    InvalidSetting,
    NonFiniteInput,
    NonPositivePrice,
    PriceSeries,
)
from hurstlab.series import fit_rows


def _fit_one(x, y):
    return fit_rows(x, np.asarray(y, dtype=np.float64)[None, :]).row(0)


def _prices(values, name="TEST"):
    return PriceSeries(name, np.arange(len(values)), np.asarray(values, dtype=float))


class TestPriceSeries:
    def test_basic_construction(self):
        s = _prices([1.0, 2.0, 4.0])
        assert len(s) == 3
        assert s.dates.tolist() == [0, 1, 2]

    def test_rejects_nonpositive_price(self):
        with pytest.raises(NonPositivePrice):
            _prices([1.0, 0.0, 2.0])
        with pytest.raises(NonPositivePrice):
            _prices([1.0, -5.0])

    def test_rejects_duplicate_or_unsorted_dates(self):
        with pytest.raises(ValueError):
            PriceSeries("X", np.array([0, 1, 1]), np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError):
            PriceSeries("X", np.array([2, 1, 0]), np.array([1.0, 2.0, 3.0]))

    def test_rejects_non_finite_price(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(NonFiniteInput, match="^TEST: non-finite price$"):
                _prices([1.0, bad, 2.0])

    def test_rejects_two_dimensional_data(self):
        with pytest.raises(ValueError, match="^series data must be one-dimensional$"):
            PriceSeries("X", np.arange(4).reshape(2, 2), np.ones((2, 2)))
        with pytest.raises(ValueError, match="^series data must be one-dimensional$"):
            PriceSeries("X", np.arange(4), np.ones((2, 2)))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            PriceSeries("X", np.array([0, 1]), np.array([1.0, 2.0, 3.0]))

    def test_arrays_are_read_only(self):
        s = _prices([1.0, 2.0])
        with pytest.raises(ValueError):
            s.prices[0] = 9.0


class TestOlsSlope:
    def test_identity_line(self):
        fit = _fit_one([0, 1, 2], [0, 1, 2])
        assert fit.slope == pytest.approx(1.0, abs=1e-14)
        assert fit.intercept == pytest.approx(0.0, abs=1e-14)
        assert fit.r_squared >= 1.0 - 1e-12
        assert fit.n_points == 3

    def test_horizontal_line(self):
        fit = _fit_one([0, 1, 2], [5, 5, 5])
        assert fit.slope == 0.0
        assert fit.intercept == 5.0
        assert fit.r_squared == 1.0  # SS_tot = SS_res = 0 by definition

    def test_three_point_tent(self):
        # normal equations by hand: slope 0, intercept 1/3, r^2 = 0
        fit = _fit_one([0, 1, 2], [0, 1, 0])
        assert fit.slope == pytest.approx(0.0, abs=1e-15)
        assert fit.intercept == pytest.approx(1.0 / 3.0, rel=1e-14)
        assert fit.r_squared == pytest.approx(0.0, abs=1e-14)

    def test_collinear_exactness(self):
        x = np.linspace(-3.0, 11.0, 40)
        fit = _fit_one(x, 3.0 * x - 7.0)
        assert abs(fit.slope - 3.0) <= 1e-10 * 3.0
        assert abs(fit.intercept + 7.0) <= 1e-10 * 7.0
        assert fit.r_squared >= 1.0 - 1e-12

    def test_y_shift_moves_intercept_only(self):
        rng = np.random.Generator(np.random.PCG64(17))
        x = rng.standard_normal(25)
        y = rng.standard_normal(25)
        base = _fit_one(x, y)
        for c in (-4.5, 0.25, 1e3):
            shifted = _fit_one(x, y + c)
            assert shifted.slope == pytest.approx(base.slope, rel=1e-9, abs=1e-12)
            assert shifted.intercept == pytest.approx(base.intercept + c, rel=1e-9)

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateRegression):
            _fit_one([1.0], [2.0])
        with pytest.raises(DegenerateRegression):
            _fit_one([1.0, 1.0, 1.0], [2.0, 3.0, 4.0])
        with pytest.raises(DegenerateRegression):
            _fit_one([], [])

    def test_non_finite_input(self):
        with pytest.raises(NonFiniteInput):
            _fit_one([0.0, 1.0], [1.0, math.nan])
        with pytest.raises(NonFiniteInput):
            _fit_one([0.0, math.inf], [1.0, 2.0])

    @pytest.mark.parametrize("x, y, failed", [
        ([0.0, 1.0, 2.0], [1e308] * 3, [1]),  # the sum of y overflows: slope NaN
        ([0.0, 1e200, 2e200], [0.0, 1.0, 2.0], [0, 1]),  # the shared sxx overflows: slope 0.0
    ])
    def test_overflowing_sums_raise(self, x, y, failed):
        with pytest.raises(NonFiniteInput, match="overflow"):
            _fit_one(x, y)
        fits = fit_rows(x, np.array([[0.0, 1.0, 2.0], y]))
        assert sorted(fits.errors) == failed
        assert np.isnan(fits.slope[failed]).all()


def _fit_table(seed):
    """Log-log-like rows with a constant row, a NaN row and a row whose sums overflow, and their x."""
    rng = np.random.Generator(np.random.PCG64(seed))
    x = np.log(np.arange(1.0, 20.0))
    y = 0.5 * x + rng.standard_normal((7, len(x)))
    y[2] = -1.5
    y[4, 3] = math.nan
    y[5] = 1e308
    y[6] = -0.0
    return x, y


class TestRowFitsRow:
    def test_negative_indices_count_from_the_end(self):
        fits = fit_rows(np.arange(4.0), [[1, 2, 3, 5], [math.nan, 1, 2, 3]])
        with pytest.raises(NonFiniteInput):
            fits.row(-1)
        assert fits.row(-2) == fits.row(0)
        assert fits.row(np.int64(0)) == fits.row(0)

    def test_index_out_of_range_or_not_an_integer_raises(self):
        fits = fit_rows(np.arange(4.0), [[1, 2, 3, 5]])
        for i in (1, -2):
            with pytest.raises(IndexError):
                fits.row(i)
        with pytest.raises(TypeError):
            fits.row(0.0)


def _per_row_fit(x, y):
    """The fit that centres x and sums residuals once per row of ``y``: the reference for the shared x side."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = np.full(len(y), y.shape[1])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x_mean = x.sum(axis=-1) / n
        y_mean = y.sum(axis=1) / n
        dx = x - x_mean[:, None]
        dy = y - y_mean[:, None]
        sxx = (dx * dx).sum(axis=-1)
        slope = (dx * dy).sum(axis=1) / sxx
        intercept = y_mean - slope * x_mean
    errors: dict[int, HurstLabError] = {}
    for i in np.flatnonzero(~(np.isfinite(slope) & np.isfinite(sxx))).tolist():
        if not (np.isfinite(x).all() and np.isfinite(y[i]).all()):
            errors[i] = NonFiniteInput("regression input contains NaN or infinity")
        elif n[i] < 2:
            errors[i] = DegenerateRegression(f"need at least 2 points, got {n[i]}")
        elif sxx[i] == 0.0:
            errors[i] = DegenerateRegression("all x values identical")
        else:
            slope[i] = np.nan
            errors[i] = NonFiniteInput("regression sums overflow float64")
    return SimpleNamespace(slope=slope, intercept=intercept, n_points=n, errors=errors)


def _line_columns(fits):
    """Slope, intercept and n_points as bytes, and the errors as (row, class, message); r² left out."""
    columns = tuple(getattr(fits, name).tobytes() for name in ("slope", "intercept", "n_points"))
    return columns, [(i, type(e), str(e)) for i, e in sorted(fits.errors.items())]


class TestSharedXSide:
    def test_x_is_one_row_and_y_a_table(self):
        # a square 2-D x would otherwise broadcast its row means across the wrong axis, and a 1-point x
        # across every point of a row
        shapes = ((np.ones((2, 2)), np.ones((2, 2))), (np.arange(3.0), np.arange(3.0)), ([5.0], [[1.0, 2.0, 3.0]]),
                  (np.arange(3.0), np.ones((1, 2))))
        for x, y in shapes:
            with pytest.raises(InvalidSetting, match="^fit_rows needs a 1-D x and a 2-D y"):
                fit_rows(x, y)

    @pytest.mark.parametrize("seed", range(30))
    @pytest.mark.parametrize("subset", [False, True])
    def test_lines_equal_the_per_row_fit_bit_for_bit(self, seed, subset):
        x, y = _fit_table(seed)
        rng = np.random.Generator(np.random.PCG64(1000 + seed))
        # offsets up to 1e6 and scales down to 1e-8 on the ordinary rows
        y[[0, 1, 3]] = y[[0, 1, 3]] * 10.0 ** rng.uniform(-8, 0, (3, 1)) + rng.uniform(-1e6, 1e6, (3, 1))
        if not subset:
            assert _line_columns(fit_rows(x, y)) == _line_columns(_per_row_fit(x, y))
            return
        # each row fitted on a random subset of its points, as GHE refits a row without its zero lags
        keep = rng.random(y.shape) < 0.7
        keep[0] = True
        keep[1] = False
        keep[1, 4] = True  # a single point
        for i, kept in enumerate(keep):
            fits = fit_rows(x[kept], y[i : i + 1, kept])
            assert _line_columns(fits) == _line_columns(_per_row_fit(x[kept], y[i : i + 1, kept])), i

    @pytest.mark.parametrize("keep", [None, np.arange(5), np.array([0, 1, 3, 4])])
    def test_identical_x_values_fail_as_the_per_row_fit_does(self, keep):
        points = slice(None) if keep is None else keep
        x = np.full(5, 2.5)[points]
        y = np.array([[1.0, 2.0, 3.0, 4.0, 6.0], [1e308] * 5])[:, points]
        fits = fit_rows(x, y)
        assert _line_columns(fits) == _line_columns(_per_row_fit(x, y))
        assert type(fits.errors[0]) is DegenerateRegression

    def test_a_shared_overflowing_x_side_fails_every_row(self):
        x = np.array([0.0, 1e200, 2e200])
        y = np.array([[0.0, 1.0, 2.0], [3.0, 1.0, 2.0]])
        fits = fit_rows(x, y)
        assert _line_columns(fits) == _line_columns(_per_row_fit(x, y))
        assert sorted(fits.errors) == [0, 1]


def _exact_r_squared(x, y):
    """Sxy**2 / (Sxx * Syy) of one row, in exact rational arithmetic."""
    xs, ys = [Fraction(float(v)) for v in x], [Fraction(float(v)) for v in y]
    x_mean, y_mean = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((a - x_mean) ** 2 for a in xs)
    syy = sum((b - y_mean) ** 2 for b in ys)
    sxy = sum((a - x_mean) * (b - y_mean) for a, b in zip(xs, ys))
    return sxy * sxy / (sxx * syy)


class TestRSquared:
    @pytest.mark.parametrize("seed", range(12))
    def test_r_squared_matches_exact_arithmetic(self, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        points = int(rng.integers(5, 20))
        x = np.log(np.arange(1.0, points + 1))
        y = rng.uniform(0.2, 1.0) * x + rng.uniform(-3.0, 3.0) + rng.uniform(0.01, 1.0) * rng.standard_normal((6, points))
        fits = fit_rows(x, y)
        for i in range(len(y)):
            assert abs(fits.r_squared[i] - float(_exact_r_squared(x, y[i]))) <= 1e-12, i
        # GHE-like refits: some rows lose a few lags
        keep = rng.random(y.shape) < 0.85
        keep[:, :3] = True
        for i, kept in enumerate(keep):
            r_squared = fit_rows(x[kept], y[i : i + 1, kept]).r_squared[0]
            assert abs(r_squared - float(_exact_r_squared(x[kept], y[i, kept]))) <= 1e-12, i

    def test_a_horizontal_line_has_r_squared_exactly_one(self):
        x = np.log(np.arange(1.0, 8.0))
        assert fit_rows(x, np.full((2, 7), -1.25)).r_squared.tolist() == [1.0, 1.0]
        assert fit_rows(x[::2], np.full((1, 4), -1.25)).r_squared.tolist() == [1.0]
        assert fit_rows(x, np.full((1, 7), 3.0)).r_squared.tolist() == [1.0]
