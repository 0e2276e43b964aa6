"""Unit tests for the SkyRAN trajectory planner."""

import numpy as np
import pytest

from repro.channel.fspl import fspl_map
from repro.channel.linkbudget import LinkBudget
from repro.geo.grid import GridSpec
from repro.rem.aggregate import aggregate_rem_running
from repro.trajectory.information import TrajectoryHistory
from repro.trajectory.skyran import SkyRANPlanner


@pytest.fixture()
def grid200():
    return GridSpec.from_extent(200, 200, 4.0)


def _fspl_aggregate(grid, ue_positions, altitude=60.0):
    lb = LinkBudget()
    return aggregate_rem_running(
        (lb.snr_db(fspl_map(grid, ue, altitude)) for ue in ue_positions), grid.shape
    )


class TestPlanner:
    def test_plan_respects_budget(self, grid200):
        ues = [np.array([50.0, 50.0, 1.5]), np.array([150.0, 150.0, 1.5])]
        agg = _fspl_aggregate(grid200, ues)
        planner = SkyRANPlanner(seed=0)
        plan = planner.plan(
            grid200, agg, ues, np.array([100.0, 100.0]), 60.0, budget_m=300.0
        )
        assert plan.trajectory.length_m <= 300.0 + 1e-6

    def test_larger_budget_longer_path(self, grid200):
        ues = [np.array([50.0, 50.0, 1.5]), np.array([150.0, 150.0, 1.5])]
        agg = _fspl_aggregate(grid200, ues)
        planner = SkyRANPlanner(seed=0)
        short = planner.plan(grid200, agg, ues, np.array([100.0, 100.0]), 60.0, 150.0)
        long = planner.plan(grid200, agg, ues, np.array([100.0, 100.0]), 60.0, 900.0)
        assert long.trajectory.length_m > short.trajectory.length_m

    def test_path_starts_at_uav(self, grid200):
        ues = [np.array([50.0, 50.0, 1.5])]
        agg = _fspl_aggregate(grid200, ues)
        plan = SkyRANPlanner(seed=1).plan(
            grid200, agg, ues, np.array([20.0, 180.0]), 60.0, 400.0
        )
        np.testing.assert_allclose(plan.trajectory.waypoints[0], [20.0, 180.0])

    def test_bias_towards_high_gradient(self, grid200):
        # A map with all its gradient in the south-west quadrant must
        # produce a plan that spends its waypoints there.
        m = np.zeros(grid200.shape)
        rng = np.random.default_rng(0)
        m[:20, :20] = rng.uniform(0.0, 30.0, (20, 20))
        plan = SkyRANPlanner(seed=0).plan(
            grid200, m, [np.array([10.0, 10.0, 1.5])], np.array([10.0, 10.0]), 60.0, 600.0
        )
        wp = plan.trajectory.waypoints
        inside = (wp[:, 0] < 100.0) & (wp[:, 1] < 100.0)
        assert inside.mean() > 0.8

    def test_history_changes_choice(self, grid200):
        ues = [np.array([60.0, 60.0, 1.5]), np.array([140.0, 140.0, 1.5])]
        agg = _fspl_aggregate(grid200, ues)
        planner = SkyRANPlanner(seed=0)
        fresh = planner.plan(grid200, agg, ues, np.array([100.0, 100.0]), 60.0, 500.0)
        history = TrajectoryHistory()
        for ue in ues:
            history.record(ue, fresh.trajectory)
        replay = planner.plan(
            grid200, agg, ues, np.array([100.0, 100.0]), 60.0, 500.0, history
        )
        # A fresh candidate set scored against the flown path cannot
        # claim the i_max gain the first plan had.
        assert replay.info_gain < fresh.info_gain

    def test_diagnostics_populated(self, grid200):
        ues = [np.array([50.0, 50.0, 1.5])]
        agg = _fspl_aggregate(grid200, ues)
        plan = SkyRANPlanner(seed=0).plan(
            grid200, agg, ues, np.array([100.0, 100.0]), 60.0, 500.0
        )
        assert plan.k >= 1
        assert plan.ratio > 0
        assert len(plan.candidates) >= 1
        ks = [c[0] for c in plan.candidates]
        assert plan.k in ks

    def test_flat_map_falls_back_to_whole_grid(self, grid200):
        flat = np.full(grid200.shape, 5.0)
        plan = SkyRANPlanner(seed=0).plan(
            grid200, flat, [np.array([50.0, 50.0, 1.5])], np.array([100.0, 100.0]), 60.0, 300.0
        )
        assert plan.trajectory.length_m > 0

    def test_validates_inputs(self, grid200):
        with pytest.raises(ValueError):
            SkyRANPlanner(k_min=0)
        with pytest.raises(ValueError):
            SkyRANPlanner(k_min=5, k_max=3)
        planner = SkyRANPlanner()
        with pytest.raises(ValueError):
            planner.plan(grid200, [], [], np.zeros(2), 60.0, 100.0)
        with pytest.raises(ValueError):
            planner.plan(
                grid200,
                np.zeros(grid200.shape),
                [np.zeros(3)],
                np.zeros(2),
                60.0,
                0.0,
            )

    def test_rejects_wrong_shape_aggregate(self, grid200):
        planner = SkyRANPlanner()
        ue = [np.array([50.0, 50.0, 1.5])]
        for bad in (
            np.zeros((grid200.ny, grid200.nx + 1)),
            np.zeros((1,) + grid200.shape),  # a stack, not its aggregate
            np.zeros(grid200.num_cells),
        ):
            with pytest.raises(ValueError, match="aggregate shape"):
                planner.plan(grid200, bad, ue, np.zeros(2), 60.0, 100.0)
