"""Unit tests for the composite channel model and link budget."""

import numpy as np
import pytest

from repro.channel.fspl import fspl_db
from repro.channel.linkbudget import LinkBudget
from repro.channel.model import ChannelModel
from tests import link_oracles as oracle


class TestLinkBudget:
    def test_noise_floor_10mhz(self):
        lb = LinkBudget(bandwidth_hz=10e6, noise_figure_db=7.0)
        assert lb.noise_floor_dbm == pytest.approx(-96.975, abs=0.1)

    def test_snr_roundtrip(self):
        lb = LinkBudget()
        for pl in (80.0, 100.0, 120.0):
            assert lb.path_loss_db(lb.snr_db(pl)) == pytest.approx(pl)

    def test_snr_array(self):
        lb = LinkBudget()
        pl = np.array([80.0, 90.0])
        snr = lb.snr_db(pl)
        assert snr.shape == (2,)
        assert snr[0] - snr[1] == pytest.approx(10.0)

    def test_rx_power(self):
        lb = LinkBudget(tx_power_dbm=10.0, tx_gain_dbi=5.0, rx_gain_dbi=0.0)
        assert lb.rx_power_dbm(100.0) == pytest.approx(-85.0)

    def test_rejects_bad_bandwidth(self):
        with pytest.raises(ValueError):
            LinkBudget(bandwidth_hz=0.0)


class TestChannelModel:
    def test_los_path_loss_is_fspl(self, flat_channel):
        uav = np.array([10.0, 10.0, 50.0])
        ue = np.array([60.0, 60.0, 1.5])
        d = np.linalg.norm(uav - ue)
        assert flat_channel.path_loss_db(uav, ue) == pytest.approx(
            fspl_db(d, flat_channel.freq_hz)
        )

    def test_nlos_adds_excess(self, box_channel):
        ue = np.array([90.0, 50.0, 1.5])
        clear = box_channel.path_loss_db(np.array([80.0, 50.0, 50.0]), ue)
        blocked = box_channel.path_loss_db(np.array([10.0, 50.0, 5.0]), ue)
        assert blocked > clear + box_channel.diffraction_db - 3.0

    def test_excess_capped(self, box_terrain):
        ch = ChannelModel(
            box_terrain,
            shadowing_sigma_db=0.0,
            common_sigma_db=0.0,
            excess_cap_db=20.0,
        )
        ue = np.array([95.0, 50.0, 1.5])
        uav = np.array([5.0, 50.0, 3.0])  # grazes the whole building
        d = np.linalg.norm(uav - ue)
        pl = ch.path_loss_db(uav, ue)
        assert pl <= fspl_db(d, ch.freq_hz) + 20.0 + 1e-6

    def test_shadowing_reproducible(self, campus_terrain):
        ch = ChannelModel(campus_terrain, seed=3)
        uav = np.array([100.0, 100.0, 60.0])
        ue = np.array([40.0, 40.0, 1.5])
        assert ch.path_loss_db(uav, ue) == pytest.approx(ch.path_loss_db(uav, ue))

    def test_snr_map_shape_and_peak(self, flat_channel):
        ue = np.array([50.0, 50.0, 1.5])
        m = oracle.snr_map(flat_channel, ue, altitude=40.0)
        assert m.shape == flat_channel.terrain.grid.shape
        iy, ix = np.unravel_index(np.argmax(m), m.shape)
        x, y = flat_channel.terrain.grid.center_of(ix, iy)
        assert abs(x - 50.0) <= 2.0 and abs(y - 50.0) <= 2.0

    def test_sample_snr_scatter_around_mean(self, flat_channel, rng):
        ue = np.array([50.0, 50.0, 1.5])
        uav = np.tile(np.array([30.0, 30.0, 50.0]), (4000, 1))
        mean = float(flat_channel.snr_db(np.array([30.0, 30.0, 50.0]), ue))
        samples = flat_channel.sample_snr_many(uav, [ue], rng)[0]
        # Rician K=12 LOS fading: small spread around the mean.
        assert abs(np.median(samples) - mean) < 1.0
        assert 0.3 < samples.std() < 4.0

    def test_is_los_vector(self, box_channel):
        ue = np.array([90.0, 50.0, 1.5])
        uavs = np.array([[80.0, 50.0, 50.0], [10.0, 50.0, 5.0]])
        _, los = box_channel.path_loss_and_los(uavs, ue)
        assert los[0] and not los[1]


class TestGroundTruth:
    def test_stack_shape(self, flat_channel):
        ues = [np.array([20.0, 20.0, 1.5]), np.array([80.0, 80.0, 1.5])]
        stack = flat_channel.snr_maps(ues, altitude=50.0)
        assert stack.shape == (2,) + flat_channel.terrain.grid.shape

    def test_single_matches_stack(self, flat_channel):
        ue = np.array([20.0, 20.0, 1.5])
        single = oracle.snr_map(flat_channel, ue, 50.0)
        stack = flat_channel.snr_maps([ue], 50.0)
        np.testing.assert_allclose(single, stack[0])

    def test_empty_stack(self, flat_channel):
        stack = flat_channel.snr_maps([], 50.0)
        assert stack.shape[0] == 0
