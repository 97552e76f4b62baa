import math

import numpy as np
import pytest

from hurstlab import (
    DegenerateRegression,
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


def _fit_columns(fits):
    """Every column of a ``RowFits`` as bytes, and its errors as (row, class, message)."""
    columns = tuple(getattr(fits, name).tobytes() for name in ("slope", "intercept", "r_squared", "n_points"))
    return columns, [(i, type(e), str(e)) for i, e in sorted(fits.errors.items())]


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


class TestFitRowsMask:
    @pytest.mark.parametrize("seed", range(4))
    def test_a_mask_that_keeps_every_point_is_no_mask(self, seed):
        x, y = _fit_table(seed)
        assert _fit_columns(fit_rows(x, y, np.ones(y.shape, bool))) == _fit_columns(fit_rows(x, y))

    @pytest.mark.parametrize("seed", range(4))
    def test_rows_that_keep_every_point_in_a_mixed_batch_equal_their_unmasked_fits(self, seed):
        x, y = _fit_table(seed)
        keep = np.ones(y.shape, bool)
        keep[1, ::2] = False  # the masked route runs for the whole batch
        keep[3, -5:] = False
        mixed = fit_rows(x, y, keep)
        for i in range(len(y)):
            row = fit_rows(x, y[i : i + 1])
            if keep[i].all():
                for name in ("slope", "intercept", "r_squared", "n_points"):
                    assert getattr(mixed, name)[i : i + 1].tobytes() == getattr(row, name).tobytes(), (i, name)
                error = mixed.errors.get(i)
                assert (type(error), str(error)) == (type(row.errors.get(0)), str(row.errors.get(0)))
            else:
                kept = fit_rows(x[keep[i]], y[i : i + 1, keep[i]])
                assert mixed.slope[i] == pytest.approx(kept.slope[0], rel=1e-12)
