"""Unit tests for the REM data structure, IDW, gradients and reductions."""

import numpy as np
import pytest

from repro.geo.grid import GridSpec
from repro.rem.accuracy import median_abs_error_db, rem_error_map
from repro.rem.aggregate import aggregate_rem_running, argmax_cell, min_snr_map
from repro.rem.gradient import gradient_map, high_gradient_cells
from repro.rem.idw import idw_interpolate
from repro.rem.map import REM
from tests import rem_oracles


@pytest.fixture()
def grid10():
    return GridSpec.from_extent(10, 10, 1.0)


class TestREM:
    def test_measurements_average_per_cell(self, grid10):
        rem = REM(grid10, np.array([5.0, 5.0, 1.5]), altitude=50.0)
        xy = np.array([[2.2, 3.3], [2.4, 3.6], [7.0, 7.0]])
        rem.add_measurements(xy, np.array([10.0, 20.0, 5.0]))
        vals = rem.measured_values()
        assert vals[3, 2] == pytest.approx(15.0)
        assert vals[7, 7] == pytest.approx(5.0)
        assert rem.n_measured_cells == 2

    def test_unmeasured_cells_nan(self, grid10):
        rem = REM(grid10, np.array([5.0, 5.0, 1.5]), altitude=50.0)
        assert np.isnan(rem.measured_values()).all()

    def test_mismatched_lengths_rejected(self, grid10):
        rem = REM(grid10, np.zeros(3), altitude=50.0)
        with pytest.raises(ValueError):
            rem.add_measurements(np.zeros((2, 2)), np.zeros(3))

    def test_prior_shape_checked(self, grid10):
        with pytest.raises(ValueError):
            REM(grid10, np.zeros(3), 50.0, prior=np.zeros((5, 5)))

    def test_interpolated_uses_prior_when_empty(self, grid10):
        prior = np.full(grid10.shape, 7.0)
        rem = REM(grid10, np.zeros(3), 50.0, prior=prior)
        np.testing.assert_allclose(rem.interpolated(), 7.0)

    def test_interpolated_is_paper_idw(self, grid10):
        """Inverse-square weights over the 12 nearest measured cells."""
        prior = np.full(grid10.shape, -2.0)
        rem = REM(grid10, np.zeros(3), 50.0, prior=prior)
        rng = np.random.default_rng(4)
        rem.add_measurements(rng.uniform(0.0, 10.0, (20, 2)), rng.normal(5.0, 3.0, 20))
        want = idw_interpolate(
            grid10, rem.measured_values(), power=2.0, k_neighbors=12, fallback=prior
        )
        assert rem.interpolated().tobytes() == want.tobytes()

    def test_rekeyed_shares_measurements(self, grid10):
        rem = REM(grid10, np.array([5.0, 5.0, 1.5]), 50.0)
        rem.add_measurements(np.array([[1.0, 1.0]]), np.array([3.0]))
        clone = rem.rekeyed(np.array([6.0, 6.0, 1.5]))
        assert clone.n_measured_cells == 1
        # ... by copy: mutating the clone must not touch the original.
        clone.add_measurements(np.array([[2.0, 2.0]]), np.array([4.0]))
        assert rem.n_measured_cells == 1

    def test_distance_to_position(self, grid10):
        rem = REM(grid10, np.array([0.0, 0.0, 1.5]), 50.0)
        assert rem.distance_to_position(np.array([3.0, 4.0, 1.5])) == pytest.approx(5.0)


class TestIDW:
    def test_exact_cells_preserved(self, grid10):
        values = np.full(grid10.shape, np.nan)
        values[2, 2] = 11.0
        out = idw_interpolate(grid10, values)
        assert out[2, 2] == 11.0

    def test_fills_all_nans(self, grid10):
        values = np.full(grid10.shape, np.nan)
        values[0, 0] = 1.0
        values[9, 9] = 9.0
        out = idw_interpolate(grid10, values)
        assert np.isfinite(out).all()

    def test_interpolation_within_bounds(self, grid10, rng):
        values = np.full(grid10.shape, np.nan)
        idx = rng.choice(100, 20, replace=False)
        values.flat[idx] = rng.uniform(0.0, 10.0, 20)
        out = idw_interpolate(grid10, values)
        assert out.min() >= np.nanmin(values) - 1e-9
        assert out.max() <= np.nanmax(values) + 1e-9

    def test_nearest_dominates(self, grid10):
        values = np.full(grid10.shape, np.nan)
        values[0, 0] = 0.0
        values[0, 1] = 100.0
        out = idw_interpolate(grid10, values, k_neighbors=2)
        # Cell (0, 2) is 1 cell from the 100 and 2 cells from the 0:
        # inverse-square weights give exactly (100/1 + 0/4)/(1 + 1/4).
        assert out[0, 2] == pytest.approx(80.0)

    def test_no_measurements_falls_back_to_prior(self, grid10):
        values = np.full(grid10.shape, np.nan)
        prior = np.full(grid10.shape, -3.0)
        assert np.array_equal(idw_interpolate(grid10, values, fallback=prior), prior)
        # With one measured cell the prior is not used anywhere.
        values[0, 0] = 5.0
        out = idw_interpolate(grid10, values, fallback=prior)
        np.testing.assert_allclose(out, 5.0)

    def test_no_measurements_no_prior_stays_nan(self, grid10):
        values = np.full(grid10.shape, np.nan)
        out = idw_interpolate(grid10, values)
        assert np.isnan(out).all()

    def test_invalid_params(self, grid10):
        values = np.zeros(grid10.shape)
        with pytest.raises(ValueError):
            idw_interpolate(grid10, values, power=0.0)
        with pytest.raises(ValueError):
            idw_interpolate(grid10, values, k_neighbors=0)
        with pytest.raises(ValueError):
            idw_interpolate(grid10, np.zeros((3, 3)))


class TestGradient:
    def test_flat_map_zero_gradient(self):
        g = gradient_map(np.full((5, 5), 3.0))
        np.testing.assert_allclose(g, 0.0)

    def test_step_edge_detected(self):
        m = np.zeros((6, 6))
        m[:, 3:] = 10.0
        g = gradient_map(m)
        assert g[2, 2] == pytest.approx(10.0)
        assert g[2, 3] == pytest.approx(10.0)
        assert g[2, 0] == pytest.approx(0.0)

    def test_diagonal_neighbours_counted(self):
        m = np.zeros((3, 3))
        m[0, 0] = 5.0
        g = gradient_map(m, diagonal=True)
        assert g[1, 1] == pytest.approx(5.0)
        g4 = gradient_map(m, diagonal=False)
        assert g4[1, 1] == pytest.approx(0.0)

    def test_nan_propagates(self):
        m = np.zeros((4, 4))
        m[1, 1] = np.nan
        g = gradient_map(m)
        assert np.isnan(g[1, 1])

    def test_high_gradient_median_threshold(self, rng):
        m = rng.uniform(0, 1, (20, 20))
        g = gradient_map(m)
        iy, ix = high_gradient_cells(g, 0.5)
        assert 0 < len(iy) <= 200 + 40  # about half, borders vary

    def test_threshold_quantile_validated(self):
        with pytest.raises(ValueError):
            high_gradient_cells(np.zeros((3, 3)), 1.0)

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            gradient_map(np.zeros(5))


class TestAggregate:
    def test_sum_and_min(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[4.0, 3.0], [2.0, 1.0]])
        np.testing.assert_allclose(aggregate_rem_running([a, b], a.shape), [[5, 5], [5, 5]])
        np.testing.assert_allclose(min_snr_map([a, b]), [[1, 2], [2, 1]])

    def test_aggregate_ignores_nan(self):
        a = np.array([[1.0, np.nan]])
        b = np.array([[2.0, np.nan]])
        out = aggregate_rem_running([a, b], a.shape)
        assert out[0, 0] == 3.0
        assert np.isnan(out[0, 1])

    def test_running_fold_matches_stacked_oracle(self):
        rng = np.random.default_rng(5)
        maps = [rng.normal(0.0, 10.0, (6, 7)) for _ in range(9)]
        for m in maps[::2]:
            m[rng.random(m.shape) < 0.3] = np.nan
        for m in maps:
            m[1, 1] = np.nan  # NaN in every map stays NaN
        got = aggregate_rem_running(maps, (6, 7))
        assert np.isnan(got[1, 1])
        assert got.tobytes() == rem_oracles.aggregate_rem(maps).tobytes()

    def test_min_map_propagates_nan(self):
        a = np.array([[1.0, 2.0]])
        b = np.array([[np.nan, 1.0]])
        out = min_snr_map([a, b])
        assert np.isnan(out[0, 0])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            aggregate_rem_running([np.zeros((2, 2)), np.zeros((3, 3))], (2, 2))
        with pytest.raises(ValueError):
            aggregate_rem_running([], (2, 2))

    def test_argmax_cell(self):
        m = np.array([[1.0, 2.0], [5.0, 0.0]])
        assert argmax_cell(m) == (1, 0)

    def test_argmax_skips_nan(self):
        m = np.array([[np.nan, 2.0], [np.nan, np.nan]])
        assert argmax_cell(m) == (0, 1)
        with pytest.raises(ValueError):
            argmax_cell(np.full((2, 2), np.nan))


class TestAccuracy:
    def test_perfect_estimate_zero_error(self):
        m = np.random.default_rng(0).uniform(0, 10, (5, 5))
        assert median_abs_error_db(m, m) == 0.0

    def test_constant_bias(self):
        truth = np.zeros((4, 4))
        est = truth + 3.0
        assert median_abs_error_db(est, truth) == pytest.approx(3.0)

    def test_nan_cells_ignored(self):
        truth = np.zeros((2, 2))
        est = np.array([[1.0, np.nan], [1.0, np.nan]])
        assert median_abs_error_db(est, truth) == pytest.approx(1.0)

    def test_all_nan_is_inf(self):
        truth = np.zeros((2, 2))
        est = np.full((2, 2), np.nan)
        assert median_abs_error_db(est, truth) == float("inf")

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            rem_error_map(np.zeros((2, 2)), np.zeros((3, 3)))
