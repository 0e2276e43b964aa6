"""Coverage for smaller behaviors not exercised elsewhere."""

import numpy as np
import pytest

from repro.core.config import SkyRANConfig
from repro.core.controller import SkyRANController
from repro.geo.grid import GridSpec
from repro.rem.interpolate import make_interpolator
from repro.rem.map import REM
from repro.sim.scenario import Scenario
from repro.trajectory.base import Trajectory


class TestREMMethods:
    def test_interpolated_method_dispatch(self):
        g = GridSpec.from_extent(20, 20, 2.0)
        rem = REM(g, np.array([10.0, 10.0, 1.5]), 50.0)
        rem.add_measurements(
            np.array([[4.0, 4.0], [16.0, 16.0]]), np.array([5.0, 15.0])
        )
        idw = rem.interpolated()
        krig = make_interpolator("kriging").interpolate(
            g, rem.measured_values(), fallback=rem.prior
        )
        assert np.isfinite(idw).all() and np.isfinite(krig).all()
        with pytest.raises(ValueError):
            make_interpolator("spline")

    def test_kriging_respects_prior_when_empty(self):
        g = GridSpec.from_extent(10, 10, 1.0)
        rem = REM(g, np.zeros(3), 50.0, prior=np.full(g.shape, 2.5))
        krig = make_interpolator("kriging").interpolate(
            g, rem.measured_values(), fallback=rem.prior
        )
        np.testing.assert_allclose(krig, 2.5)


class TestTrajectoryAltitude:
    def test_sample_spacing_monotone_arclength(self):
        t = Trajectory(np.array([[0, 0], [30, 0], [30, 40]]), altitude=25.0)
        pts = t.sample(5.0)
        seg = np.diff(pts, axis=0)
        steps = np.hypot(seg[:, 0], seg[:, 1])
        assert np.all(steps <= 5.0 + 1e-6)


class TestControllerBookkeeping:
    def test_epoch_index_advances(self):
        scenario = Scenario.create("campus", n_ues=3, cell_size=4.0, seed=7)
        cfg = SkyRANConfig(rem_cell_size_m=8.0)
        ctrl = SkyRANController(scenario.channel, scenario.enodeb, cfg, seed=1)
        ctrl.altitude = 60.0
        assert ctrl.epoch_index == 0
        r0 = ctrl.run_epoch(budget_m=150.0)
        r1 = ctrl.run_epoch(budget_m=150.0)
        assert (r0.epoch_index, r1.epoch_index) == (0, 1)
        assert ctrl.epoch_index == 2

    def test_offset_calibrator_learns(self):
        scenario = Scenario.create("campus", n_ues=3, cell_size=4.0, seed=7)
        cfg = SkyRANConfig(rem_cell_size_m=8.0)
        ctrl = SkyRANController(scenario.channel, scenario.enodeb, cfg, seed=1)
        ctrl.altitude = 60.0
        ctrl.run_epoch(budget_m=150.0)
        assert ctrl.offset_calibrator.n_epochs == 1
        prior = ctrl.offset_calibrator.prior()
        assert prior is not None
        # The true injected offset is 137 m; one epoch should land in
        # the right neighbourhood.
        assert abs(prior[0] - 137.0) < 40.0
