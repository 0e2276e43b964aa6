"""Tests for controller options: fleet SINR."""

from repro.core.config import SkyRANConfig
from repro.core.fleet import FleetController
from repro.sim.scenario import Scenario


class TestFleetSinr:
    def test_sinr_leq_snr(self):
        scenario = Scenario.create("campus", n_ues=4, cell_size=4.0, seed=16)
        scenario.enodeb.deregister_all()
        coord = FleetController(
            channel=scenario.channel,
            ues=scenario.ues,
            n_uavs=2,
            config=SkyRANConfig(rem_cell_size_m=8.0),
            seed=2,
        )
        result = coord.run_epoch(budget_per_uav_m=200.0)
        snr = coord.per_ue_snr_db()
        sinr = coord.per_ue_sinr_db(result.serving)
        for ue_id in sinr:
            # Interference can only cost; best-UAV SNR upper-bounds
            # the serving SINR.
            assert sinr[ue_id] <= snr[ue_id] + 1e-6

    def test_idle_interferers_recover_snr(self):
        scenario = Scenario.create("campus", n_ues=4, cell_size=4.0, seed=16)
        scenario.enodeb.deregister_all()
        coord = FleetController(
            channel=scenario.channel,
            ues=scenario.ues,
            n_uavs=2,
            config=SkyRANConfig(rem_cell_size_m=8.0),
            seed=2,
        )
        result = coord.run_epoch(budget_per_uav_m=200.0)
        busy = coord.per_ue_sinr_db(result.serving)
        # reuse_factor=2 gives each cell a private carrier: no interferer.
        idle = coord.per_ue_sinr_db(result.serving, reuse_factor=2)
        assert all(idle[k] >= busy[k] for k in busy)
