"""Unit tests for trajectories: container, zigzag, random flight, info gain."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo.grid import GridSpec
from repro.trajectory.base import Trajectory
from repro.trajectory.information import (
    DEFAULT_I_MAX,
    TrajectoryHistory,
    information_gain,
)
from repro.trajectory.random_flight import random_flight
from repro.trajectory.uniform import zigzag_for_budget, zigzag_trajectory


@pytest.fixture()
def grid100():
    return GridSpec.from_extent(100, 100, 2.0)


class TestTrajectory:
    def test_length(self):
        t = Trajectory(np.array([[0, 0], [3, 0], [3, 4]]), altitude=50.0)
        assert t.length_m == pytest.approx(7.0)

    def test_truncated(self):
        t = Trajectory(np.array([[0, 0], [100, 0]]), altitude=10.0)
        assert t.truncated(30.0).length_m == pytest.approx(30.0)

    def test_requires_waypoints(self):
        with pytest.raises(ValueError):
            Trajectory(np.empty((0, 2)), altitude=10.0)

    def test_negative_altitude_rejected(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([[0, 0]]), altitude=-1.0)


class TestZigzag:
    def test_covers_area(self, grid100):
        t = zigzag_trajectory(grid100, row_spacing_m=20.0, altitude=50.0)
        wp = t.waypoints
        assert wp[:, 1].min() <= 1.0
        assert wp[:, 1].max() >= 99.0
        assert wp[:, 0].min() <= 1.0 and wp[:, 0].max() >= 99.0

    def test_starts_at_corner(self, grid100):
        t = zigzag_trajectory(grid100, 20.0, 50.0)
        np.testing.assert_allclose(t.waypoints[0], [0.0, 0.0])

    def test_alternating_direction(self, grid100):
        t = zigzag_trajectory(grid100, 25.0, 50.0)
        # Row 0 goes east, row 1 returns west.
        assert t.waypoints[1][0] > t.waypoints[0][0]
        assert t.waypoints[3][0] < t.waypoints[2][0]

    def test_row_offset_shifts_rows(self, grid100):
        base = zigzag_trajectory(grid100, 20.0, 50.0)
        shifted = zigzag_trajectory(grid100, 20.0, 50.0, row_offset_m=7.0)
        assert shifted.waypoints[0][1] == pytest.approx(7.0)
        assert base.waypoints[0][1] == pytest.approx(0.0)

    def test_budget_respected(self, grid100):
        for budget in (150.0, 400.0, 900.0):
            t = zigzag_for_budget(grid100, budget, 50.0)
            assert t.length_m <= budget + 1e-6
            assert t.length_m >= 0.8 * min(budget, 1e9)

    def test_invalid_params(self, grid100):
        with pytest.raises(ValueError):
            zigzag_trajectory(grid100, 0.0, 50.0)
        with pytest.raises(ValueError):
            zigzag_for_budget(grid100, 0.0, 50.0)
        with pytest.raises(ValueError):
            zigzag_trajectory(grid100, 10.0, 50.0, margin_m=60.0)


class TestRandomFlight:
    def test_length_matches_request(self, grid100, rng):
        t = random_flight(grid100, (50.0, 50.0), 30.0, 60.0, rng)
        assert t.length_m == pytest.approx(30.0, abs=1e-6)

    def test_stays_in_grid(self, grid100, rng):
        t = random_flight(grid100, (2.0, 2.0), 80.0, 60.0, rng)
        wp = t.waypoints
        assert wp[:, 0].min() >= grid100.origin_x - 1e-9
        assert wp[:, 1].max() <= grid100.max_y + 1e-9

    def test_stays_near_start(self, grid100, rng):
        t = random_flight(grid100, (50.0, 50.0), 60.0, 60.0, rng, box_m=10.0)
        d = np.hypot(t.waypoints[:, 0] - 50.0, t.waypoints[:, 1] - 50.0)
        assert d.max() <= 10.0 * np.sqrt(2) + 1e-6

    def test_has_turns(self, grid100, rng):
        t = random_flight(grid100, (50.0, 50.0), 40.0, 60.0, rng)
        assert len(t.waypoints) >= 4

    def test_invalid_length(self, grid100, rng):
        with pytest.raises(ValueError):
            random_flight(grid100, (50.0, 50.0), 0.0, 60.0, rng)

    def test_rng_is_required(self, grid100):
        with pytest.raises(TypeError):
            random_flight(grid100, (50.0, 50.0), 30.0, 60.0)


class TestInformation:
    def test_empty_history_gets_imax(self):
        t = Trajectory(np.array([[0, 0], [10, 0]]), 50.0)
        assert information_gain(t, []) == DEFAULT_I_MAX

    def test_gain_is_min_over_history(self):
        cand = Trajectory(np.array([[0, 0], [10, 0]]), 50.0)
        near = Trajectory(np.array([[0, 1], [10, 1]]), 50.0)
        far = Trajectory(np.array([[0, 50], [10, 50]]), 50.0)
        gain = information_gain(cand, [near, far])
        assert gain == pytest.approx(1.0, abs=0.2)

    def test_gain_capped_at_imax(self):
        cand = Trajectory(np.array([[0, 0], [1, 0]]), 50.0)
        far = Trajectory(np.array([[0, 1e6], [1, 1e6]]), 50.0)
        assert information_gain(cand, [far], i_max=100.0) == 100.0

    def test_history_reuse_radius(self):
        h = TrajectoryHistory(reuse_radius_m=10.0)
        t = Trajectory(np.array([[0, 0], [10, 0]]), 50.0)
        h.record(np.array([100.0, 100.0, 1.5]), t)
        # A UE within R of the recorded position sees the history.
        assert len(h.trajectories_for(np.array([105.0, 100.0, 1.5]))) == 1
        # A UE far away sees none.
        assert len(h.trajectories_for(np.array([200.0, 200.0, 1.5]))) == 0

    def test_history_nonunit_quantum(self):
        # Regression: stored keys are in key-index units; the reuse
        # lookup used to compare them against raw meter coordinates,
        # which only coincided for quantum_m=1.
        h = TrajectoryHistory(reuse_radius_m=10.0, quantum_m=5.0)
        t = Trajectory(np.array([[0, 0], [10, 0]]), 50.0)
        h.record(np.array([100.0, 100.0, 1.5]), t)
        # 7 m away: within R, must see the history despite the coarse key.
        assert len(h.trajectories_for(np.array([107.0, 100.0, 1.5]))) == 1
        # 20 m away: outside R (pre-fix code, comparing meters against
        # key indices ~ (20, 20), matched nothing near (100, 100) and
        # everything near the origin).
        assert len(h.trajectories_for(np.array([120.0, 100.0, 1.5]))) == 0
        assert len(h.trajectories_for(np.array([20.0, 20.0, 1.5]))) == 0

    def test_history_quantum_buckets_nearby_records(self):
        h = TrajectoryHistory(quantum_m=5.0)
        t = Trajectory(np.array([[0, 0], [10, 0]]), 50.0)
        # Both positions quantize to the same 5 m key.
        h.record(np.array([99.0, 100.0, 1.5]), t)
        h.record(np.array([101.0, 100.0, 1.5]), t)
        assert len(h._store) == 1
        assert len(h) == 2

    def test_mean_gain_over_ues(self):
        h = TrajectoryHistory()
        cand = Trajectory(np.array([[0, 0], [10, 0]]), 50.0)
        h.record(np.array([0.0, 0.0, 1.5]), cand)
        gain = h.mean_gain(
            cand, [np.array([0.0, 0.0, 1.5]), np.array([500.0, 500.0, 1.5])]
        )
        # One UE has seen this exact path (gain ~0), the other is new
        # (gain i_max): the mean sits halfway.
        assert gain == pytest.approx(h.i_max / 2, rel=0.05)

    def test_mean_gain_requires_ues(self):
        h = TrajectoryHistory()
        cand = Trajectory(np.array([[0, 0], [10, 0]]), 50.0)
        with pytest.raises(ValueError):
            h.mean_gain(cand, [])

    def test_len_counts_records(self):
        h = TrajectoryHistory()
        t = Trajectory(np.array([[0, 0], [10, 0]]), 50.0)
        h.record(np.array([0.0, 0.0, 1.5]), t)
        h.record(np.array([0.0, 0.0, 1.5]), t)
        h.record(np.array([90.0, 0.0, 1.5]), t)
        assert len(h) == 3


# -- mean_gain against the per-UE oracle ------------------------------------------


def _oracle_trajectories_for(h, ue_xyz):
    """The scalar within-R scan: every stored key, insertion order."""
    p = np.asarray(ue_xyz, dtype=float)
    out = []
    for (kx, ky), trajs in h._store.items():
        dist_m = np.hypot(p[0] - kx * h.quantum_m, p[1] - ky * h.quantum_m)
        if dist_m <= h.reuse_radius_m:
            out.extend(trajs)
    return out


def _oracle_mean_gain(h, candidate, ue_positions):
    """One :func:`information_gain` per UE over its own history list."""
    return float(
        np.mean(
            [
                information_gain(candidate, _oracle_trajectories_for(h, p), h.i_max)
                for p in ue_positions
            ]
        )
    )


def _tour(rng):
    return Trajectory(rng.uniform(0.0, 60.0, size=(int(rng.integers(2, 5)), 2)), 50.0)


@st.composite
def _histories(draw):
    """Histories over a 60 m square: reuse radii overlap on purpose.

    A few tour objects are recorded under many keys (the controller
    records one flown tour per REM group), and keys collect several
    tours as positions repeat.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    h = TrajectoryHistory(
        i_max=draw(st.sampled_from([DEFAULT_I_MAX, 15.0])),
        reuse_radius_m=draw(st.sampled_from([4.0, 10.0, 25.0])),
        quantum_m=draw(st.sampled_from([1.0, 2.5, 5.0])),
    )
    tours = [_tour(rng) for _ in range(draw(st.integers(1, 4)))]
    spots = rng.uniform(0.0, 60.0, size=(draw(st.integers(1, 6)), 2))
    for _ in range(draw(st.integers(0, 20))):
        xy = spots[rng.integers(len(spots))] + rng.normal(0.0, 1.0, 2)
        h.record(np.array([xy[0], xy[1], 1.5]), tours[rng.integers(len(tours))])
    n_ues = draw(st.integers(1, 12))
    positions = [np.array([x, y, 1.5]) for x, y in rng.uniform(-5.0, 65.0, (n_ues, 2))]
    return h, _tour(rng), positions


class TestMeanGainOracle:
    @given(_histories())
    @settings(max_examples=40, deadline=None)
    def test_mean_gain_matches_per_ue_oracle_bitwise(self, case):
        h, cand, positions = case
        got = h.mean_gain(cand, positions)
        assert got.hex() == _oracle_mean_gain(h, cand, positions).hex()
        for p in positions:
            want = _oracle_trajectories_for(h, p)
            have = h.trajectories_for(p)
            assert len(have) == len(want)
            assert all(a is b for a, b in zip(have, want))

    def test_one_tour_under_many_keys(self):
        h = TrajectoryHistory(reuse_radius_m=10.0)
        flown = Trajectory(np.array([[0.0, 0.0], [40.0, 0.0]]), 50.0)
        for x in range(0, 100, 3):
            h.record(np.array([float(x), 5.0, 1.5]), flown)
        cand = Trajectory(np.array([[0.0, 20.0], [40.0, 20.0]]), 50.0)
        positions = [np.array([float(x), 6.0, 1.5]) for x in range(0, 120, 7)]
        got = h.mean_gain(cand, positions)
        assert got.hex() == _oracle_mean_gain(h, cand, positions).hex()

    def test_empty_history_is_imax(self):
        h = TrajectoryHistory()
        cand = Trajectory(np.array([[0.0, 0.0], [10.0, 0.0]]), 50.0)
        positions = [np.array([1.0, 2.0, 1.5]), np.array([30.0, 2.0, 1.5])]
        assert h.mean_gain(cand, positions) == h.i_max
        assert h.mean_gain(cand, positions) == _oracle_mean_gain(h, cand, positions)
        assert h.trajectories_for(positions[0]) == []
