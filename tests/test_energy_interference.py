"""Tests for inter-cell interference."""

import numpy as np
import pytest

from repro.channel.interference import fleet_sinr_db, fleet_sinr_db_stack
from repro.channel.model import ChannelModel
from tests.link_oracles import sinr_db as sinr_db_oracle


def sinr_db(channel, uav_positions, ue_xyz, serving_index, carriers=None):
    """One UE's SINR through the batched stack, held bit for bit to the oracle."""
    got = float(
        fleet_sinr_db_stack(channel, uav_positions, [ue_xyz], [serving_index], carriers)[0]
    )
    assert got == sinr_db_oracle(channel, uav_positions, ue_xyz, serving_index, carriers)
    return got


class TestInterference:
    @pytest.fixture()
    def channel(self, flat_terrain):
        return ChannelModel(flat_terrain, shadowing_sigma_db=0.0, common_sigma_db=0.0)

    def test_single_uav_sinr_equals_snr(self, channel):
        uav = np.array([30.0, 30.0, 50.0])
        ue = np.array([50.0, 50.0, 1.5])
        assert sinr_db(channel, [uav], ue, 0) == pytest.approx(
            float(channel.snr_db(uav, ue)), abs=1e-6
        )

    def test_interferer_reduces_sinr(self, channel):
        serving = np.array([45.0, 50.0, 50.0])
        interferer = np.array([60.0, 50.0, 50.0])
        ue = np.array([50.0, 50.0, 1.5])
        alone = sinr_db(channel, [serving], ue, 0)
        crowded = sinr_db(channel, [serving, interferer], ue, 0)
        assert crowded < alone - 3.0

    def test_off_carrier_interferer_is_silent(self, channel):
        serving = np.array([45.0, 50.0, 50.0])
        interferer = np.array([60.0, 50.0, 50.0])
        ue = np.array([50.0, 50.0, 1.5])
        apart = sinr_db(channel, [serving, interferer], ue, 0, carriers=[0, 1])
        shared = sinr_db(channel, [serving, interferer], ue, 0, carriers=[0, 0])
        assert apart > shared
        assert apart == sinr_db(channel, [serving], ue, 0)

    def test_farther_interferer_hurts_less(self, channel):
        serving = np.array([45.0, 50.0, 50.0])
        near = np.array([60.0, 50.0, 50.0])
        far = np.array([5.0, 5.0, 50.0])
        ue = np.array([50.0, 50.0, 1.5])
        with_near = sinr_db(channel, [serving, near], ue, 0)
        with_far = sinr_db(channel, [serving, far], ue, 0)
        assert with_far > with_near

    def test_fleet_helper(self, channel):
        uavs = [np.array([30.0, 30.0, 50.0]), np.array([70.0, 70.0, 50.0])]
        ues = {1: np.array([30.0, 35.0, 1.5]), 2: np.array([70.0, 65.0, 1.5])}
        serving = {1: 0, 2: 1}
        out = fleet_sinr_db(channel, uavs, ues, serving)
        assert set(out) == {1, 2}
        assert all(np.isfinite(v) for v in out.values())

    def test_validation(self, channel):
        ue = np.array([50.0, 50.0, 1.5])
        with pytest.raises(ValueError):
            fleet_sinr_db_stack(channel, [np.zeros(3)], [ue], [1])
        with pytest.raises(ValueError):
            fleet_sinr_db_stack(channel, [np.zeros(3)], [ue], [0], carriers=[0, 1])
