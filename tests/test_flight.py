"""Unit tests for UAV kinematics, GPS and samplers."""

import copy

import numpy as np
import pytest

from repro.channel.model import ChannelModel
from repro.faults import FaultInjector, FaultPlan
from repro.flight.sampler import (
    collect_gps_ranges,
    collect_snr_samples,
    localize_all_ues,
)
from repro.flight.uav import UAV, GPS_ERROR_TAU_S, GPS_RATE_HZ, sample_count
from repro.lte.enodeb import ENodeB
from repro.lte.tof import ToFEstimator
from repro.lte.ue import UE
from repro.trajectory.base import Trajectory
from tests import link_oracles as oracle


def _gps_loop(uav, true_xyz, t_s, rng):
    """Reference for ``UAV._gps_of``: one size-3 draw and one OU step per fix."""
    n = len(true_xyz)
    noise = np.empty((n, 3))
    sigma = np.array([uav.gps_noise_std_m, uav.gps_noise_std_m, 0.5 * uav.gps_noise_std_m])
    noise[0] = rng.normal(0.0, 1.0, 3)
    for i in range(1, n):
        dt = max(float(t_s[i] - t_s[i - 1]), 0.0)
        rho = np.exp(-dt / GPS_ERROR_TAU_S)
        noise[i] = rho * noise[i - 1] + np.sqrt(max(1.0 - rho * rho, 0.0)) * rng.normal(
            0.0, 1.0, 3
        )
    return true_xyz + noise * sigma[None, :]


class TestUAV:
    @pytest.mark.parametrize("n", [2, 50, 500, 3000])
    def test_gps_error_matches_per_fix_loop(self, n):
        # Irregular fix times, with a repeated and a backwards stamp
        # (the decay clamps a negative step to zero).
        t_rng = np.random.default_rng(n)
        t = np.cumsum(t_rng.uniform(0.0, 40.0, n))
        t[n // 2] = t[n // 2 - 1]
        t[-1] = t[-2] - 1.0
        true = t_rng.uniform(-100.0, 100.0, (n, 3))
        uav = UAV(gps_noise_std_m=2.5)
        rng, rng_ref = np.random.default_rng(9), np.random.default_rng(9)
        got = uav._gps_of(true, t, rng)
        np.testing.assert_array_equal(got, _gps_loop(uav, true, t, rng_ref))
        assert rng.bit_generator.state == rng_ref.bit_generator.state

    def test_fly_reaches_endpoint(self, rng):
        uav = UAV(position=np.array([0.0, 0.0, 50.0]))
        traj = Trajectory(np.array([[100.0, 0.0]]), altitude=50.0)
        log = uav.fly(traj, rng)
        np.testing.assert_allclose(uav.position, [100.0, 0.0, 50.0])
        assert log.distance_m == pytest.approx(100.0)

    def test_fix_rate(self, rng):
        uav = UAV(position=np.array([0.0, 0.0, 50.0]), speed_mps=10.0)
        traj = Trajectory(np.array([[100.0, 0.0]]), altitude=50.0)
        log = uav.fly(traj, rng)
        assert len(log) == pytest.approx(10.0 * GPS_RATE_HZ, rel=0.05)

    def test_whole_period_flight_keeps_its_end_sample(self):
        # A duration that is a whole number of periods gets both end
        # samples whichever way its product with the rate rounds.
        below = np.nextafter(3.0, 0.0)
        assert below * 100.0 < 300.0
        assert sample_count(below, 100.0) == sample_count(3.0, 100.0) == 301
        assert sample_count(3.0049, 100.0) == 301
        assert sample_count(0.0, 100.0) == 2

    def test_clock_advances(self, rng):
        uav = UAV(position=np.array([0.0, 0.0, 50.0]), speed_mps=10.0)
        log = uav.fly(Trajectory(np.array([[100.0, 0.0]]), 50.0), rng)
        assert uav.clock_s == pytest.approx(10.0)
        log2 = uav.goto(np.array([100.0, 50.0, 50.0]), rng)
        assert uav.clock_s == pytest.approx(15.0)
        assert log2.t_s[0] == pytest.approx(log.t_s[-1])

    def test_rng_is_required(self):
        # No unseeded fallback: a flight without a generator is an
        # error, never a silently non-reproducible draw.
        uav = UAV(position=np.array([0.0, 0.0, 50.0]))
        with pytest.raises(TypeError):
            uav.fly(Trajectory(np.array([[10.0, 0.0]]), 50.0))
        with pytest.raises(TypeError):
            uav.goto(np.array([10.0, 0.0, 50.0]))

    def test_gps_noise_correlated(self, rng):
        uav = UAV(position=np.array([0.0, 0.0, 50.0]), gps_noise_std_m=2.0)
        log = uav.fly(Trajectory(np.array([[50.0, 0.0]]), 50.0), rng)
        err = log.gps_xyz - log.true_xyz
        # Successive fix errors nearly identical (OU, tau >> flight).
        step = np.abs(np.diff(err[:, 0]))
        assert np.median(step) < 0.1
        # But the offset itself is metre-scale.
        assert np.abs(err[:, 0]).max() > 0.1

    def test_goto(self, rng):
        uav = UAV(position=np.array([0.0, 0.0, 50.0]))
        log = uav.goto(np.array([30.0, 40.0, 50.0]), rng)
        assert log.distance_m == pytest.approx(50.0)

    def test_validates_speed(self):
        with pytest.raises(ValueError):
            UAV(speed_mps=0.0)


class TestSamplers:
    @pytest.fixture()
    def setup(self, flat_terrain, rng):
        channel = ChannelModel(flat_terrain, shadowing_sigma_db=0.0, common_sigma_db=0.0)
        enodeb = ENodeB()
        ue = UE(ue_id=1)
        ue.move_to(50.0, 50.0)
        enodeb.register_ue(ue)
        uav = UAV(position=np.array([20.0, 20.0, 50.0]), speed_mps=3.0)
        log = uav.fly(Trajectory(np.array([[20.0, 40.0], [40.0, 40.0]]), 50.0), rng)
        return channel, enodeb, ue, log

    def test_snr_samples_near_truth(self, setup, rng):
        channel, enodeb, ue, log = setup
        [(xy, snr)] = collect_snr_samples(log, [ue], channel, rng)
        assert len(xy) == len(snr)
        mid_true = channel.snr_db(log.true_xyz[len(log) // 2], ue.xyz)
        assert abs(np.median(snr) - mid_true) < 5.0

    def test_gps_ranges_offset_visible(self, setup, rng):
        channel, enodeb, ue, log = setup
        est = ToFEstimator(enodeb.srs_config, 4)
        obs = collect_gps_ranges(log, ue, channel, enodeb, est, rng, processing_offset_m=137.0)
        assert len(obs) > 10
        d_true = np.array([np.linalg.norm(o.gps_xyz - ue.xyz) for o in obs])
        meas = np.array([o.range_m for o in obs])
        assert np.median(meas - d_true) == pytest.approx(137.0, abs=5.0)

    def test_localize_all_ues_accuracy(self, setup, rng):
        channel, enodeb, ue, log = setup
        est = ToFEstimator(enodeb.srs_config, 4)
        result = localize_all_ues(
            log, [ue], channel, enodeb, est, rng,
            bounds_xy=((0.0, 100.0), (0.0, 100.0)),
        )
        err = np.hypot(
            result.per_ue[1].position[0] - 50.0, result.per_ue[1].position[1] - 50.0
        )
        assert err < 15.0


class TestSnrSamplesOneFlight:
    """The flight is sampled once for all UEs, bitwise as a per-UE loop."""

    @pytest.fixture()
    def world(self, box_terrain):
        # Per-UE and common shadowing on; the flight crosses the
        # building so the samples mix LOS and NLOS fading.
        channel = ChannelModel(box_terrain)
        ues = []
        for i, (x, y) in enumerate([(50.0, 85.0), (20.0, 50.0), (70.0, 30.0)]):
            ue = UE(ue_id=i + 1)
            ue.move_to(x, y)
            ues.append(ue)
        traj = Trajectory(np.array([[10.0, 50.0], [90.0, 50.0], [90.0, 20.0]]), 15.0)
        return channel, ues, traj

    def _check(self, channel, ues, log, faults=None):
        rng, rng_ref = np.random.default_rng(21), np.random.default_rng(21)
        faults_ref = copy.deepcopy(faults)
        got = collect_snr_samples(log, ues, channel, rng, faults=faults)
        want = [
            oracle.collect_snr_samples(log, ue, channel, rng_ref, faults=faults_ref)
            for ue in ues
        ]
        assert len(got) == len(ues)
        for (xy, snr), (xy_ref, snr_ref) in zip(got, want):
            np.testing.assert_array_equal(xy, xy_ref)
            np.testing.assert_array_equal(snr, snr_ref)
        assert rng.bit_generator.state == rng_ref.bit_generator.state
        return got

    def test_fault_free_matches_per_ue_loop(self, world):
        channel, ues, traj = world
        uav = UAV(position=np.array([10.0, 50.0, 15.0]), speed_mps=10.0)
        log = uav.fly(traj, np.random.default_rng(4))
        got = self._check(channel, ues, log)
        los = oracle.path_loss_and_los(channel, log.true_xyz, ues[0].xyz)[1]
        assert los.any() and not los.all()
        assert all(len(snr) == len(got[0][1]) for _, snr in got)

    def test_faulted_matches_per_ue_loop(self, world):
        channel, ues, traj = world
        faults = FaultInjector(
            FaultPlan(
                seed=3,
                gps_blackout_rate_per_s=0.5,
                gps_blackout_duration_s=1.0,
                snr_drop_rate=0.3,
                snr_corrupt_rate=0.2,
            )
        )
        uav = UAV(position=np.array([10.0, 50.0, 15.0]), speed_mps=10.0)
        log = uav.fly(traj, np.random.default_rng(4), faults=faults)
        assert log.gps_valid is not None and not log.gps_valid.all()
        snr_rng = faults._rng["snr"]
        state = copy.deepcopy(snr_rng.bit_generator.state)
        got = self._check(channel, ues, log, faults=faults)
        assert snr_rng.bit_generator.state != state
        n = max(2, int(log.duration_s * 100.0) + 1)
        assert all(0 < len(snr) < n for _, snr in got)

