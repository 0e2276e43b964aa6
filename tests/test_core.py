"""Unit tests for placement, REM store, epoch trigger and config."""

import numpy as np
import pytest

from repro.core.config import SkyRANConfig
from repro.core.epoch import EpochTrigger
from repro.core.placement import find_optimal_altitude, max_min_placement
from repro.core.rem_store import REMStore
from repro.geo.grid import GridSpec
from repro.lte.enodeb import ENodeB
from repro.lte.tof import ToFEstimator


@pytest.fixture()
def grid():
    return GridSpec.from_extent(20, 20, 1.0)


class TestConfig:
    def test_defaults_match_paper(self):
        cfg = SkyRANConfig()
        assert cfg.max_altitude_m == 120.0  # FAA ceiling
        assert cfg.reuse_radius_m == 10.0  # R from Fig. 9
        assert cfg.epoch_margin == 0.1
        # The controller's ToF estimator runs the paper's K = 4.
        assert ToFEstimator(ENodeB().srs_config).upsampling == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            SkyRANConfig(min_altitude_m=200.0)
        with pytest.raises(ValueError):
            SkyRANConfig(epoch_margin=0.0)
        with pytest.raises(ValueError):
            SkyRANConfig(reuse_radius_m=-1.0)
        with pytest.raises(ValueError):
            SkyRANConfig(rem_key_pitch_m=0.0)


class TestPlacement:
    def test_max_min_picks_joint_best(self, grid):
        a = np.zeros(grid.shape)
        b = np.zeros(grid.shape)
        a[5, 5] = 30.0
        b[5, 5] = 1.0  # great for A, poor for B
        a[10, 10] = 10.0
        b[10, 10] = 10.0  # decent for both
        result = max_min_placement(grid, [a, b], altitude=50.0)
        assert result.cell == (10, 10)
        assert result.min_snr_db == pytest.approx(10.0)
        assert result.position.z == 50.0

    def test_single_map_is_argmax(self, grid, rng):
        m = rng.uniform(0, 20, grid.shape)
        result = max_min_placement(grid, [m], altitude=40.0)
        iy, ix = np.unravel_index(np.argmax(m), m.shape)
        assert result.cell == (iy, ix)

    def test_requires_maps(self, grid):
        with pytest.raises(ValueError):
            max_min_placement(grid, [], 50.0)


class TestAltitudeSearch:
    def test_finds_interior_minimum(self):
        losses = {a: abs(a - 60.0) * 0.5 + 80.0 for a in range(20, 121, 10)}
        alt = find_optimal_altitude(lambda a: losses[int(a)], 120.0, 20.0, 10.0)
        assert alt == 60.0

    def test_monotone_decreasing_reaches_floor(self):
        alt = find_optimal_altitude(lambda a: a, 120.0, 20.0, 10.0)
        assert alt == 20.0

    def test_monotone_increasing_stays_at_ceiling(self):
        alt = find_optimal_altitude(lambda a: -a, 120.0, 20.0, 10.0)
        assert alt == 120.0

    def test_patience_skips_noise_bump(self):
        # A one-step bump at 100 must not stop the descent.
        def loss(a):
            base = abs(a - 40.0) * 0.5 + 80.0
            return base + (5.0 if int(a) == 100 else 0.0)

        alt = find_optimal_altitude(loss, 120.0, 20.0, 10.0, patience=3)
        assert alt == 40.0

    def test_validation(self):
        with pytest.raises(ValueError):
            find_optimal_altitude(lambda a: a, 50.0, 100.0)
        with pytest.raises(ValueError):
            find_optimal_altitude(lambda a: a, 100.0, 50.0, step_m=0.0)
        with pytest.raises(ValueError):
            find_optimal_altitude(lambda a: a, 100.0, 50.0, patience=0)


class TestREMStore:
    def _prior(self, grid):
        return lambda ue_xyz: np.zeros(grid.shape)

    def test_miss_creates_with_prior(self, grid):
        store = REMStore(grid, reuse_radius_m=10.0)
        rem = store.get_or_create(np.array([5.0, 5.0, 1.5]), 50.0, self._prior(grid))
        assert store.misses == 1 and store.hits == 0
        assert rem.prior is not None

    def test_hit_within_radius_shares_data(self, grid):
        store = REMStore(grid, reuse_radius_m=10.0)
        rem = store.get_or_create(np.array([5.0, 5.0, 1.5]), 50.0, self._prior(grid))
        rem.add_measurements(np.array([[3.0, 3.0]]), np.array([12.0]))
        store.commit(rem)
        again = store.get_or_create(np.array([9.0, 5.0, 1.5]), 50.0, self._prior(grid))
        assert store.hits == 1
        assert again.n_measured_cells == 1

    def test_miss_beyond_radius(self, grid):
        store = REMStore(grid, reuse_radius_m=5.0)
        store.get_or_create(np.array([0.0, 0.0, 1.5]), 50.0, self._prior(grid))
        store.get_or_create(np.array([15.0, 15.0, 1.5]), 50.0, self._prior(grid))
        assert store.misses == 2
        assert len(store) == 2

    def test_lookup_returns_closest(self, grid):
        store = REMStore(grid, reuse_radius_m=10.0)
        a = store.get_or_create(np.array([0.0, 0.0, 1.5]), 50.0, self._prior(grid))
        b = store.get_or_create(np.array([19.0, 19.0, 1.5]), 50.0, self._prior(grid))
        found = store.lookup(np.array([18.0, 18.0, 1.5]))
        assert found is not None
        np.testing.assert_allclose(found.ue_xyz[:2], b.ue_xyz[:2])

    def test_lookup_miss_is_none(self, grid):
        store = REMStore(grid, reuse_radius_m=2.0)
        assert store.lookup(np.array([10.0, 10.0, 1.5])) is None


class TestEpochTrigger:
    def test_cold_start_triggers(self):
        t = EpochTrigger(margin=0.1)
        assert t.update(10.0)

    def test_within_margin_holds(self):
        t = EpochTrigger(margin=0.1)
        t.reset(20.0)
        assert not t.update(19.0)
        assert not t.update(18.01)

    def test_drop_beyond_margin_triggers(self):
        t = EpochTrigger(margin=0.1)
        t.reset(20.0)
        assert t.update(17.9)

    def test_history_recorded(self):
        t = EpochTrigger(margin=0.1)
        t.reset(20.0)
        t.update(19.0, t_s=1.0)
        t.update(18.0, t_s=2.0)
        assert len(t.history) == 2
        assert t.history[1] == (2.0, 18.0)

    def test_reset_clears_history(self):
        t = EpochTrigger(margin=0.1)
        t.reset(20.0)
        t.update(19.0)
        t.reset(19.0)
        assert t.history == []

    def test_dead_reference_triggers(self):
        t = EpochTrigger(margin=0.1)
        t.reset(0.0)
        assert t.update(0.0)

    def test_margin_validated(self):
        with pytest.raises(ValueError):
            EpochTrigger(margin=1.0)
        t = EpochTrigger()
        with pytest.raises(ValueError):
            t.reset(-1.0)
