"""Unit tests for ranging aggregation and multilateration."""

import numpy as np
import pytest

from repro.localization.joint import solve_joint_multilateration
from repro.localization.ranging import (
    GpsRange,
    aggregate_tof_to_gps,
    mad_filter,
)


def _circle_obs(ue, radius, n, alt, offset, noise, rng):
    angles = np.linspace(0, 2 * np.pi, n, endpoint=False)
    anchors = np.column_stack(
        [
            ue[0] + radius * np.cos(angles),
            ue[1] + radius * np.sin(angles),
            np.full(n, alt),
        ]
    )
    d = np.linalg.norm(anchors - ue, axis=1)
    r = d + offset + rng.normal(0, noise, n)
    return [GpsRange(a, float(ri), float(i)) for i, (a, ri) in enumerate(zip(anchors, r))]


class TestRanging:
    def test_aggregate_assigns_means(self):
        gps_t = [0.0, 1.0, 2.0]
        gps_xyz = np.zeros((3, 3))
        tof_t = [0.1, 0.5, 1.2, 2.5]
        ranges = [10.0, 20.0, 30.0, 40.0]
        obs = aggregate_tof_to_gps(gps_t, gps_xyz, tof_t, ranges)
        assert len(obs) == 3
        assert obs[0].range_m == pytest.approx(15.0)
        assert obs[1].range_m == pytest.approx(30.0)
        assert obs[2].range_m == pytest.approx(40.0)

    def test_aggregate_drops_empty_windows(self):
        obs = aggregate_tof_to_gps(
            [0.0, 1.0], np.zeros((2, 3)), [1.5], [99.0]
        )
        assert len(obs) == 1
        assert obs[0].t_s == 1.0

    def test_aggregate_shape_checks(self):
        with pytest.raises(ValueError):
            aggregate_tof_to_gps([0.0], np.zeros((2, 3)), [0.0], [1.0])
        with pytest.raises(ValueError):
            aggregate_tof_to_gps([0.0], np.zeros((1, 3)), [0.0, 1.0], [1.0])

    def test_mad_filter_drops_spike(self, rng):
        obs = _circle_obs(np.array([0.0, 0.0, 1.5]), 80.0, 50, 40.0, 100.0, 0.5, rng)
        spike = GpsRange(obs[10].gps_xyz, obs[10].range_m + 60.0, obs[10].t_s)
        noisy = obs[:10] + [spike] + obs[10:]
        kept = mad_filter(noisy, k=4.0)
        assert len(kept) == len(noisy) - 1

    def test_mad_filter_keeps_short_series(self):
        obs = [GpsRange(np.zeros(3), 10.0, float(i)) for i in range(4)]
        assert mad_filter(obs) == obs

    def test_mad_filter_validates_k(self):
        with pytest.raises(ValueError):
            mad_filter([], k=0.0)


class TestSingleUE:
    """A single UE is the one-UE case of the joint solve."""

    def test_recovers_position_and_offset(self, rng):
        ue = np.array([30.0, -20.0, 1.5])
        obs = _circle_obs(ue, 100.0, 60, 50.0, 137.0, 0.0, rng)
        res = solve_joint_multilateration({1: obs}).per_ue[1]
        np.testing.assert_allclose(res.position[:2], ue[:2], atol=0.5)
        assert res.offset_m == pytest.approx(137.0, abs=0.5)
        assert res.residual_rms_m < 0.5

    def test_noise_degrades_gracefully(self, rng):
        ue = np.array([30.0, -20.0, 1.5])
        obs = _circle_obs(ue, 100.0, 60, 50.0, 137.0, 2.0, rng)
        res = solve_joint_multilateration({1: obs}).per_ue[1]
        err = np.hypot(res.position[0] - ue[0], res.position[1] - ue[1])
        assert err < 10.0

    def test_requires_three_observations(self):
        with pytest.raises(ValueError):
            solve_joint_multilateration({1: [GpsRange(np.zeros(3), 1.0, 0.0)] * 2})


class TestJoint:
    def test_multiple_ues_shared_offset(self, rng):
        ues = {1: np.array([20.0, 20.0, 1.5]), 2: np.array([-40.0, 10.0, 1.5])}
        obs = {
            k: _circle_obs(v, 90.0, 50, 45.0, 137.0, 0.5, rng) for k, v in ues.items()
        }
        res = solve_joint_multilateration(obs)
        assert res.offset_m == pytest.approx(137.0, abs=1.0)
        for k, v in ues.items():
            err = np.hypot(res.per_ue[k].position[0] - v[0], res.per_ue[k].position[1] - v[1])
            assert err < 2.0

    def test_bounds_keep_solution_in_box(self, rng):
        ue = np.array([20.0, 20.0, 1.5])
        obs = {1: _circle_obs(ue, 15.0, 40, 45.0, 137.0, 8.0, rng)}
        res = solve_joint_multilateration(
            obs, bounds_xy=((0.0, 100.0), (0.0, 100.0))
        )
        x, y = res.per_ue[1].position[:2]
        assert 0.0 <= x <= 100.0 and 0.0 <= y <= 100.0

    def test_nlos_bias_trimmed(self, rng):
        ue = np.array([10.0, 10.0, 1.5])
        obs = _circle_obs(ue, 90.0, 60, 45.0, 137.0, 0.3, rng)
        # Bias one third of the ranges late (NLOS spikes).
        biased = [
            GpsRange(o.gps_xyz, o.range_m + (25.0 if i % 3 == 0 else 0.0), o.t_s)
            for i, o in enumerate(obs)
        ]
        res = solve_joint_multilateration({1: biased})
        err = np.hypot(res.per_ue[1].position[0] - 10.0, res.per_ue[1].position[1] - 10.0)
        # Far better than swallowing the 25 m bias whole; the trim +
        # Huber keep the damage to a fraction of it.
        assert err < 12.0

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            solve_joint_multilateration({})

    def test_too_few_obs_rejected(self):
        with pytest.raises(ValueError):
            solve_joint_multilateration({1: [GpsRange(np.zeros(3), 1.0, 0.0)]})
