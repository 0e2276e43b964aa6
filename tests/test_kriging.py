"""Tests for the ordinary kriging interpolator."""

import numpy as np
import pytest

from repro.geo.grid import GridSpec
from repro.rem.kriging import (
    exponential_variogram,
    fit_variogram,
    kriging_interpolate,
)


@pytest.fixture()
def grid():
    return GridSpec.from_extent(20, 20, 1.0)


class TestVariogram:
    def test_exponential_shape(self):
        gamma = exponential_variogram(np.array([0.0, 10.0, 1e6]), sill=4.0, range_m=10.0, nugget=0.5)
        assert gamma[0] == pytest.approx(0.5)
        assert gamma[1] == pytest.approx(0.5 + 4.0 * (1 - np.exp(-3)), rel=1e-6)
        assert gamma[2] == pytest.approx(4.5, rel=1e-3)

    def test_fit_recovers_scale(self, rng):
        # A smooth field with ~unit variance: fitted sill is O(var).
        pts = rng.uniform(0, 100, (400, 2))
        vals = np.sin(pts[:, 0] / 15.0) + 0.1 * rng.standard_normal(400)
        sill, range_m, nugget = fit_variogram(pts, vals)
        assert 0.05 < sill < 5.0
        assert 1.0 <= range_m <= 150.0
        assert 0.0 <= nugget <= sill

    def test_fit_degenerate_inputs(self):
        sill, range_m, nugget = fit_variogram(np.zeros((2, 2)), np.zeros(2))
        assert sill > 0 and range_m > 0


class TestKriging:
    def test_exact_cells_preserved(self, grid):
        values = np.full(grid.shape, np.nan)
        values[3, 3] = 7.0
        values[10, 10] = 9.0
        out = kriging_interpolate(grid, values)
        assert out[3, 3] == 7.0
        assert out[10, 10] == 9.0

    def test_fills_everything(self, grid, rng):
        values = np.full(grid.shape, np.nan)
        idx = rng.choice(grid.num_cells, 30, replace=False)
        values.flat[idx] = rng.uniform(0, 10, 30)
        out = kriging_interpolate(grid, values)
        assert np.isfinite(out).all()

    def test_constant_field_reproduced(self, grid, rng):
        values = np.full(grid.shape, np.nan)
        idx = rng.choice(grid.num_cells, 25, replace=False)
        values.flat[idx] = 5.0
        out = kriging_interpolate(grid, values)
        np.testing.assert_allclose(out, 5.0, atol=1e-6)

    def test_smooth_field_accuracy_comparable_to_idw(self, grid, rng):
        # The paper's footnote: kriging offers marginal improvement
        # over IDW on radio-map-like fields.
        from repro.rem.idw import idw_interpolate

        gx, gy = grid.centers()
        truth = 10.0 * np.sin(gx / 6.0) + 5.0 * np.cos(gy / 8.0)
        values = np.full(grid.shape, np.nan)
        idx = rng.choice(grid.num_cells, 80, replace=False)
        values.flat[idx] = truth.flat[idx]
        krig = kriging_interpolate(grid, values)
        idw = idw_interpolate(grid, values)
        err_k = np.median(np.abs(krig - truth))
        err_i = np.median(np.abs(idw - truth))
        # Same ballpark: within a factor of two of each other.
        assert err_k < 2.0 * err_i + 0.5

    def test_no_measurements_uses_fallback(self, grid):
        values = np.full(grid.shape, np.nan)
        prior = np.full(grid.shape, 3.0)
        out = kriging_interpolate(grid, values, fallback=prior)
        np.testing.assert_allclose(out, 3.0)

    def test_validation(self, grid):
        with pytest.raises(ValueError):
            kriging_interpolate(grid, np.zeros(grid.shape), k_neighbors=0)
        with pytest.raises(ValueError):
            kriging_interpolate(grid, np.zeros((3, 3)))


class TestKrigingRows:
    """Row-band kriging must equal the sliced full interpolation."""

    def _sparse(self, grid, rng, n=30):
        values = np.full(grid.shape, np.nan)
        idx = rng.choice(grid.num_cells, n, replace=False)
        values.flat[idx] = rng.uniform(0, 10, n)
        return values

    @pytest.mark.parametrize("rows", [slice(0, 5), slice(5, 13), slice(17, 20)])
    def test_rows_match_full(self, grid, rng, rows):
        from repro.rem.kriging import kriging_interpolate_rows

        values = self._sparse(grid, rng)
        full = kriging_interpolate(grid, values)
        band = kriging_interpolate_rows(grid, values, rows)
        assert np.array_equal(band, full[rows])

    def test_rows_with_fallback_and_no_measurements(self, grid):
        from repro.rem.kriging import kriging_interpolate_rows

        values = np.full(grid.shape, np.nan)
        prior = np.arange(grid.num_cells, dtype=float).reshape(grid.shape)
        rows = slice(3, 9)
        band = kriging_interpolate_rows(grid, values, rows, fallback=prior)
        assert np.array_equal(band, prior[rows])

    def test_rows_match_interpolator(self, grid, rng):
        from repro.rem.interpolate import KrigingInterpolator
        from repro.rem.kriging import kriging_interpolate_rows

        values = self._sparse(grid, rng, n=20)
        rows = slice(4, 16)
        band = kriging_interpolate_rows(grid, values, rows)
        full = KrigingInterpolator().interpolate(grid, values)
        assert np.array_equal(band, full[rows])
