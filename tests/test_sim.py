"""Unit tests for scenario construction and metrics."""

import numpy as np
import pytest

from repro.geo.points import Point3D
from repro.sim.metrics import median_rem_error
from repro.sim.scenario import Scenario


class TestScenario:
    def test_create_registers_ues(self, small_scenario):
        assert len(small_scenario.ues) == 3
        assert len(small_scenario.enodeb.connected_ues()) == 3

    def test_ues_on_walkable_ground(self, small_scenario):
        for ue in small_scenario.ues:
            surface = small_scenario.terrain.height_at(ue.position.x, ue.position.y)
            assert surface < 2.0
            assert ue.position.z == pytest.approx(surface + 1.5)

    def test_layouts(self):
        uni = Scenario.create("campus", 6, layout="uniform", cell_size=4.0, seed=1)
        clu = Scenario.create("campus", 6, layout="clustered", cell_size=4.0, seed=1)
        ring = Scenario.create("campus", 6, layout="ring", cell_size=4.0, seed=1)
        pock = Scenario.create("campus", 6, layout="pockets", cell_size=4.0, seed=1)

        def spread(s):
            pts = np.array([[u.position.x, u.position.y] for u in s.ues])
            return np.mean(np.hypot(*(pts - pts.mean(axis=0)).T))

        assert spread(clu) < spread(uni)
        assert len(ring.ues) == len(pock.ues) == 6

    def test_unknown_layout(self):
        with pytest.raises(ValueError):
            Scenario.create("campus", 3, layout="swarm", cell_size=4.0)

    def test_truth_maps_cached_and_mobility_aware(self, small_scenario):
        a = small_scenario.truth_maps(60.0)
        b = small_scenario.truth_maps(60.0)
        assert a is b  # cache hit
        small_scenario.ues[0].move_to(10.0, 10.0)
        c = small_scenario.truth_maps(60.0)
        assert c is not a  # UE moved: fresh oracle

    def test_truth_maps_follow_small_and_vertical_moves(self):
        # A move below the old key's 1 cm rounding, and one in z only,
        # must both rebuild the stack from the channel.
        scenario = Scenario.create("campus", n_ues=3, cell_size=8.0, seed=3)
        ue = scenario.ues[0]
        scenario.truth_maps(60.0)
        for dx, dz in ((0.004, 0.0), (0.0, 3.0)):
            ue.move_to(ue.position.x + dx, ue.position.y, ue.position.z + dz)
            fresh = scenario.channel.snr_maps(
                scenario.ue_positions(), 60.0, scenario.eval_grid
            )
            assert np.array_equal(scenario.truth_maps(60.0), fresh)

    def test_evaluate_aggregates(self, small_scenario):
        ev = small_scenario.evaluate(Point3D(60.0, 60.0, 60.0))
        assert set(ev.snr_db) == {u.ue_id for u in small_scenario.ues}
        assert ev.min_throughput_mbps <= ev.avg_throughput_mbps

    def test_optimal_position_objectives(self, small_scenario):
        pos_avg, val_avg = small_scenario.optimal_position(60.0, "avg")
        pos_mm, val_mm = small_scenario.optimal_position(60.0, "maxmin")
        g = small_scenario.grid
        assert g.origin_x <= pos_avg.x < g.max_x and g.origin_y <= pos_avg.y < g.max_y
        # The avg objective's value is the best achievable average.
        assert small_scenario.evaluate(pos_mm).avg_throughput_mbps <= val_avg + 1e-6
        with pytest.raises(ValueError):
            small_scenario.optimal_position(60.0, "entropy")

    def test_relative_throughput_bounds(self, small_scenario):
        pos, _ = small_scenario.optimal_position(60.0, "maxmin")
        rel = small_scenario.relative_throughput(pos)
        assert rel == pytest.approx(1.0)


class TestMetrics:
    def test_median_rem_error(self):
        truth = np.stack([np.zeros((4, 4)), np.zeros((4, 4))])
        maps = {1: np.full((4, 4), 2.0), 2: np.full((4, 4), 6.0)}
        assert median_rem_error(maps, truth) == pytest.approx(4.0)

    def test_median_rem_error_validates(self):
        with pytest.raises(ValueError):
            median_rem_error({1: np.zeros((2, 2))}, np.zeros((2, 2, 2)))
