"""Unit tests for the ray/terrain intersection."""

import numpy as np
import pytest

from repro.channel.raytrace import obstructed_lengths


class TestObstruction:
    def test_clear_ray_over_flat_ground(self, flat_terrain):
        tx = np.array([10.0, 10.0, 50.0])
        rx = np.array([90.0, 90.0, 1.5])
        assert obstructed_lengths(flat_terrain, tx, rx)[0] == pytest.approx(0.0)

    def test_building_blocks_grazing_ray(self, box_terrain):
        # Low ray passing straight through the 20 m building.
        tx = np.array([10.0, 50.0, 5.0])
        rx = np.array([90.0, 50.0, 1.5])
        blocked = obstructed_lengths(box_terrain, tx, rx)[0]
        # Building spans x in [40, 60]: ~20 m horizontal obstruction.
        assert 12.0 < blocked < 28.0

    def test_high_ray_clears_building(self, box_terrain):
        tx = np.array([10.0, 50.0, 80.0])
        rx = np.array([90.0, 50.0, 60.0])
        assert obstructed_lengths(box_terrain, tx, rx)[0] == pytest.approx(0.0)

    def test_vertical_ray_uses_slant_floor(self, box_terrain):
        # Straight down onto the UE through the building: the
        # obstruction is charged at the 15% slant-length floor, not
        # the full 3D depth.
        tx = np.array([50.0, 50.0, 60.0])
        rx = np.array([50.0, 50.0, 1.5])
        blocked = obstructed_lengths(box_terrain, tx, rx)[0]
        assert 0.0 < blocked < 0.2 * 58.5

    def test_batch_matches_single(self, box_terrain):
        txs = np.array(
            [[10.0, 50.0, 5.0], [10.0, 50.0, 80.0], [10.0, 10.0, 40.0]]
        )
        rx = np.array([90.0, 50.0, 1.5])
        batch = obstructed_lengths(box_terrain, txs, rx)
        for i in range(3):
            single = obstructed_lengths(box_terrain, txs[i], rx)[0]
            # Batched rays share one sampling density (set by the
            # longest ray), so results agree to sampling tolerance.
            assert batch[i] == pytest.approx(single, abs=1.5)

    def test_zero_length_ray(self, flat_terrain):
        p = np.array([50.0, 50.0, 10.0])
        assert obstructed_lengths(flat_terrain, p, p)[0] == 0.0

    def test_rejects_bad_step(self, flat_terrain):
        with pytest.raises(ValueError):
            obstructed_lengths(
                flat_terrain, np.zeros(3), np.array([1.0, 1.0, 1.0]), step=0.0
            )

    def test_shape_mismatch_rejected(self, flat_terrain):
        with pytest.raises(ValueError):
            obstructed_lengths(
                flat_terrain, np.zeros((3, 3)), np.zeros((2, 3))
            )


class TestLosAndProfile:
    def test_is_los(self, box_terrain):
        # A link is LOS exactly when no part of its ray is obstructed.
        tx_clear = np.array([10.0, 10.0, 50.0])
        tx_blocked = np.array([10.0, 50.0, 5.0])
        rx = np.array([90.0, 50.0, 1.5])
        assert obstructed_lengths(box_terrain, tx_clear, rx)[0] == 0.0
        assert obstructed_lengths(box_terrain, tx_blocked, rx)[0] > 0.0
