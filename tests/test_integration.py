"""Integration tests: full epochs of SkyRAN and the baselines.

These exercise the whole stack — scenario construction, flights, SRS
ranging, multilateration, REM estimation, planning, placement — on a
small world, asserting system-level invariants rather than exact
numbers.
"""

import numpy as np
import pytest

from repro.baselines.centroid import CentroidController
from repro.baselines.uniform import UniformController
from repro.core.config import SkyRANConfig
from repro.core.controller import SkyRANController
from repro.sim.runner import overhead_to_target, run_epochs
from repro.sim.scenario import Scenario


@pytest.fixture(scope="module")
def scenario():
    return Scenario.create("campus", n_ues=4, cell_size=4.0, seed=5)


@pytest.fixture()
def config():
    return SkyRANConfig(rem_cell_size_m=8.0, measurement_budget_m=300.0)


class TestSkyRANEpoch:
    @pytest.fixture(scope="class")
    def epoch(self):
        scenario = Scenario.create("campus", n_ues=4, cell_size=4.0, seed=5)
        cfg = SkyRANConfig(rem_cell_size_m=8.0)
        ctrl = SkyRANController(scenario.channel, scenario.enodeb, cfg, seed=1)
        result = ctrl.run_epoch(budget_m=300.0)
        return scenario, ctrl, result

    def test_localizes_every_ue(self, epoch):
        scenario, _, result = epoch
        assert set(result.ue_estimates) == {u.ue_id for u in scenario.ues}

    def test_localization_reasonable(self, epoch):
        _, _, result = epoch
        med = np.median(list(result.localization_errors_m.values()))
        assert med < 40.0

    def test_altitude_in_legal_band(self, epoch):
        _, ctrl, result = epoch
        assert ctrl.config.min_altitude_m <= result.altitude_m <= ctrl.config.max_altitude_m

    def test_placement_inside_area(self, epoch):
        scenario, _, result = epoch
        pos = result.placement.position
        g = scenario.grid
        assert g.origin_x <= pos.x < g.max_x and g.origin_y <= pos.y < g.max_y

    def test_rem_maps_finite(self, epoch):
        _, ctrl, result = epoch
        for m in result.rem_maps.values():
            assert m.shape == ctrl.rem_grid.shape
            assert np.isfinite(m).all()

    def test_overhead_accounted(self, epoch):
        _, _, result = epoch
        assert result.flight_distance_m > result.plan.trajectory.length_m * 0.5
        assert result.flight_time_s > 0

    def test_placement_better_than_random(self, epoch):
        scenario, _, result = epoch
        rel = scenario.relative_throughput(result.placement.position)
        rng = np.random.default_rng(0)
        random_rels = []
        for _ in range(20):
            x = rng.uniform(0, scenario.grid.width)
            y = rng.uniform(0, scenario.grid.height)
            random_rels.append(
                scenario.relative_throughput(
                    np.array([x, y, result.altitude_m])
                )
            )
        assert rel > np.mean(random_rels)

    def test_trigger_armed_after_epoch(self, epoch):
        _, ctrl, _ = epoch
        assert ctrl.trigger.reference is not None
        assert not ctrl.needs_new_epoch()  # UEs have not moved

    def test_second_epoch_reuses_rems(self, epoch):
        _, ctrl, _ = epoch
        before = len(ctrl.rem_store)
        ctrl.run_epoch(budget_m=200.0)
        assert ctrl.rem_store.hits >= 1 or len(ctrl.rem_store) > before


class TestBaselines:
    def test_uniform_epoch(self, scenario, config):
        ctrl = UniformController(
            scenario.channel, scenario.enodeb, config, altitude=60.0, seed=2
        )
        result = ctrl.run_epoch(budget_m=400.0)
        pos, g = result.placement.position, scenario.grid
        assert g.origin_x <= pos.x < g.max_x and g.origin_y <= pos.y < g.max_y
        assert len(result.rem_maps) == len(scenario.ues)
        assert result.flight_distance_m >= 400.0 * 0.9

    def test_uniform_epochs_interleave(self, scenario, config):
        ctrl = UniformController(
            scenario.channel, scenario.enodeb, config, altitude=60.0, seed=2
        )
        r1 = ctrl.run_epoch(budget_m=300.0)
        n1 = ctrl._rems[scenario.ues[0].ue_id].n_measured_cells
        ctrl.run_epoch(budget_m=300.0)
        n2 = ctrl._rems[scenario.ues[0].ue_id].n_measured_cells
        assert n2 > n1  # the second sweep visits new cells

    def test_centroid_epoch(self, scenario, config):
        ctrl = CentroidController(
            scenario.channel, scenario.enodeb, config, altitude=60.0, seed=3
        )
        result = ctrl.run_epoch()
        true_centroid = np.mean([u.xyz[:2] for u in scenario.ues], axis=0)
        d = np.hypot(
            result.position.x - true_centroid[0], result.position.y - true_centroid[1]
        )
        assert d < 40.0  # centroid of estimates near true centroid


class TestRunner:
    def test_run_epochs_records(self):
        scenario = Scenario.create("campus", n_ues=3, cell_size=4.0, seed=6)
        cfg = SkyRANConfig(rem_cell_size_m=8.0)
        ctrl = SkyRANController(scenario.channel, scenario.enodeb, cfg, seed=1)
        records = run_epochs(
            scenario, ctrl, n_epochs=2, budget_per_epoch_m=250.0, move_fraction=0.5, seed=0
        )
        assert len(records) == 2
        assert records[1].cumulative_time_s > records[0].cumulative_time_s
        assert records[0].moved_ues == ()
        assert len(records[1].moved_ues) >= 1
        assert 0.0 <= records[0].relative_throughput <= 1.5
        assert np.isfinite(records[0].rem_error_db)

    def test_overhead_to_target(self):
        from repro.sim.runner import EpochRecord

        recs = [
            EpochRecord(0, 100, 10, 100, 10, 0.5, 8.0, ()),
            EpochRecord(1, 100, 10, 200, 20, 0.95, 4.0, ()),
        ]
        assert overhead_to_target(recs, 0.9) == 200
        assert overhead_to_target(recs, 0.99) is None
        assert overhead_to_target(recs, metric="rem", target_rem_db=5.0) == 200
