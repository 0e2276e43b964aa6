"""Property-style invariants of the channel stack."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel.fspl import fspl_db
from repro.channel.linkbudget import LinkBudget
from repro.channel.model import ChannelModel
from repro.terrain.generators import make_flat
from tests import link_oracles as oracle


@pytest.fixture(scope="module")
def det_channel():
    t = make_flat(size=120.0, cell_size=2.0)
    t = t.with_box(50.0, 50.0, 70.0, 70.0, 25.0)
    return ChannelModel(t, shadowing_sigma_db=0.0, common_sigma_db=0.0)


class TestChannelInvariants:
    def test_path_loss_at_least_fspl(self, det_channel):
        """Obstruction and diffraction only ever add loss."""
        rng = np.random.default_rng(0)
        ue = np.array([90.0, 60.0, 1.5])
        for _ in range(40):
            uav = np.array(
                [rng.uniform(5, 115), rng.uniform(5, 115), rng.uniform(15, 120)]
            )
            d = np.linalg.norm(uav - ue)
            pl = float(det_channel.path_loss_db(uav, ue))
            assert pl >= fspl_db(d, det_channel.freq_hz) - 1e-9

    def test_excess_bounded_by_cap_plus_fspl(self, det_channel):
        rng = np.random.default_rng(1)
        ue = np.array([90.0, 60.0, 1.5])
        for _ in range(40):
            uav = np.array(
                [rng.uniform(5, 115), rng.uniform(5, 115), rng.uniform(15, 120)]
            )
            d = np.linalg.norm(uav - ue)
            pl = float(det_channel.path_loss_db(uav, ue))
            assert pl <= fspl_db(d, det_channel.freq_hz) + det_channel.excess_cap_db + 1e-9

    def test_map_consistent_with_pointwise(self, det_channel):
        ue = np.array([30.0, 30.0, 1.5])
        m = oracle.snr_map(det_channel, ue, altitude=70.0)
        grid = det_channel.terrain.grid
        for ix, iy in ((3, 4), (20, 31), (50, 12)):
            x, y = grid.center_of(ix, iy)
            point = float(det_channel.snr_db(np.array([x, y, 70.0]), ue))
            assert m[iy, ix] == pytest.approx(point, abs=1e-6)

    def test_symmetric_geometry_symmetric_loss(self):
        """Without shadowing, mirrored UAV positions see equal loss."""
        t = make_flat(size=100.0, cell_size=2.0)
        ch = ChannelModel(t, shadowing_sigma_db=0.0, common_sigma_db=0.0)
        ue = np.array([50.0, 50.0, 1.5])
        a = float(ch.path_loss_db(np.array([20.0, 50.0, 60.0]), ue))
        b = float(ch.path_loss_db(np.array([80.0, 50.0, 60.0]), ue))
        assert a == pytest.approx(b, abs=1e-9)


class TestLinkBudgetProperties:
    @given(st.floats(60.0, 160.0))
    @settings(max_examples=60, deadline=None)
    def test_snr_affine_in_path_loss(self, pl):
        lb = LinkBudget()
        assert lb.snr_db(pl) - lb.snr_db(pl + 10.0) == pytest.approx(10.0)

    @given(
        st.floats(-10.0, 30.0),
        st.floats(0.0, 10.0),
        st.floats(0.0, 10.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_gains_add_linearly(self, tx, g_tx, g_rx):
        base = LinkBudget(tx_power_dbm=tx, tx_gain_dbi=g_tx, rx_gain_dbi=g_rx)
        ref = LinkBudget(tx_power_dbm=0.0, tx_gain_dbi=0.0, rx_gain_dbi=0.0)
        assert base.snr_db(100.0) - ref.snr_db(100.0) == pytest.approx(tx + g_tx + g_rx)

    @given(st.floats(1e6, 40e6))
    @settings(max_examples=40, deadline=None)
    def test_wider_band_raises_noise_floor(self, bw):
        narrow = LinkBudget(bandwidth_hz=bw)
        wide = LinkBudget(bandwidth_hz=2.0 * bw)
        assert wide.noise_floor_dbm - narrow.noise_floor_dbm == pytest.approx(
            10.0 * np.log10(2.0)
        )
