"""Cross-module edge cases: degenerate worlds, single entities, limits."""

import numpy as np
import pytest

from repro.channel.model import ChannelModel
from repro.core.config import SkyRANConfig
from repro.core.controller import SkyRANController
from repro.core.placement import max_min_placement
from repro.geo.grid import GridSpec
from repro.lte.enodeb import ENodeB
from repro.lte.ue import UE
from repro.rem.map import REM
from repro.sim.scenario import Scenario
from repro.terrain.generators import make_flat
from repro.terrain.heightmap import Terrain
from repro.trajectory.base import Trajectory
from repro.trajectory.skyran import SkyRANPlanner
from repro.trajectory.information import TrajectoryHistory


class TestDegenerateWorlds:
    def test_single_cell_grid(self):
        g = GridSpec(0.0, 0.0, 10.0, 1, 1)
        assert g.cell_of(5.0, 5.0) == (0, 0)
        assert g.centers_flat().shape == (1, 2)

    def test_single_cell_placement(self):
        g = GridSpec(0.0, 0.0, 10.0, 1, 1)
        result = max_min_placement(g, [np.array([[7.0]])], altitude=50.0)
        assert result.cell == (0, 0)
        assert result.min_snr_db == 7.0

    def test_tiny_terrain_channel(self):
        t = make_flat(size=20.0, cell_size=2.0)
        ch = ChannelModel(t, shadowing_sigma_db=0.0, common_sigma_db=0.0)
        snr = ch.snr_db(np.array([10.0, 10.0, 30.0]), np.array([10.0, 10.0, 1.5]))
        assert np.isfinite(snr)

    def test_rem_on_tiny_grid(self):
        g = GridSpec(0.0, 0.0, 5.0, 2, 2)
        rem = REM(g, np.array([5.0, 5.0, 1.5]), 50.0)
        rem.add_measurements(np.array([[2.0, 2.0]]), np.array([10.0]))
        out = rem.interpolated()
        assert np.isfinite(out).all()


class TestSingleEntities:
    def test_single_ue_epoch(self):
        scenario = Scenario.create("flat", n_ues=1, cell_size=4.0, seed=1)
        cfg = SkyRANConfig(rem_cell_size_m=8.0)
        ctrl = SkyRANController(scenario.channel, scenario.enodeb, cfg, seed=1)
        ctrl.altitude = 50.0
        result = ctrl.run_epoch(budget_m=150.0)
        assert len(result.ue_estimates) == 1
        # With one UE on flat ground, the best spot is near overhead.
        ue = scenario.ues[0]
        d = np.hypot(
            result.placement.position.x - ue.position.x,
            result.placement.position.y - ue.position.y,
        )
        assert d < scenario.grid.width / 2

    def test_controller_requires_ues(self):
        t = make_flat(size=100.0, cell_size=4.0)
        ch = ChannelModel(t)
        ctrl = SkyRANController(ch, ENodeB(), SkyRANConfig(rem_cell_size_m=8.0))
        with pytest.raises(RuntimeError):
            ctrl.run_epoch(budget_m=100.0)

    def test_planner_single_ue_single_map(self):
        g = GridSpec.from_extent(100, 100, 4.0)
        m = np.random.default_rng(0).uniform(0, 20, g.shape)
        plan = SkyRANPlanner(seed=0).plan(
            g, m, [np.array([50.0, 50.0, 1.5])], np.array([50.0, 50.0]), 50.0, 200.0,
            TrajectoryHistory(),
        )
        assert plan.trajectory.length_m <= 200.0 + 1e-6


class TestExtremeParameters:
    def test_trajectory_single_waypoint(self):
        t = Trajectory(np.array([[5.0, 5.0]]), altitude=40.0)
        assert t.length_m == 0.0
        assert len(t.sample(1.0)) == 1
        assert t.truncated(10.0).length_m == 0.0

    def test_zero_shadowing_channel_is_deterministic(self):
        t = make_flat(size=50.0, cell_size=2.0)
        a = ChannelModel(t, shadowing_sigma_db=0.0, common_sigma_db=0.0, seed=1)
        b = ChannelModel(t, shadowing_sigma_db=0.0, common_sigma_db=0.0, seed=2)
        uav = np.array([25.0, 25.0, 40.0])
        ue = np.array([10.0, 10.0, 1.5])
        assert a.path_loss_db(uav, ue) == pytest.approx(b.path_loss_db(uav, ue))

    def test_terrain_all_building(self):
        g = GridSpec.from_extent(20, 20, 2.0)
        t = Terrain(g, np.full(g.shape, 50.0))
        iy, ix = t.free_cells()
        assert len(iy) == 0
        with pytest.raises(ValueError):
            Scenario._draw_ue_positions(t, 1, "uniform", np.random.default_rng(0))

    def test_ue_max_altitude_equals_min(self):
        cfg = SkyRANConfig(min_altitude_m=60.0, max_altitude_m=60.0)
        assert cfg.min_altitude_m == cfg.max_altitude_m
