"""Unit tests for mobility models."""

import numpy as np
import pytest

from repro.geo.grid import GridSpec
from repro.lte.enodeb import ENodeB
from repro.lte.ue import UE
from repro.mobility.models import (
    ClusterMobility,
    MobilityModel,
    RandomWaypoint,
    ScriptedRoute,
    relocate_fraction,
)
from repro.perf import perf


@pytest.fixture()
def grid():
    return GridSpec.from_extent(100, 100, 2.0)


def _ue(i, x=50.0, y=50.0):
    ue = UE(ue_id=i)
    ue.move_to(x, y)
    return ue


class TestRandomWaypoint:
    def test_moves_at_configured_speed(self, grid, rng):
        model = RandomWaypoint(grid, speed_mps=1.0, pause_s=0.0)
        ue = _ue(1)
        model.step(ue, 5.0, rng)
        d = np.hypot(ue.position.x - 50.0, ue.position.y - 50.0)
        assert d <= 5.0 + 1e-6
        assert d > 0.0

    def test_stays_in_grid(self, grid, rng):
        model = RandomWaypoint(grid, speed_mps=5.0, pause_s=0.0)
        ue = _ue(1)
        for _ in range(50):
            model.step(ue, 10.0, rng)
            assert 0.0 <= ue.position.x <= 100.0
            assert 0.0 <= ue.position.y <= 100.0

    def test_pause_holds_position(self, grid, rng):
        model = RandomWaypoint(grid, speed_mps=1000.0, pause_s=1e9)
        ue = _ue(1)
        model.step(ue, 1.0, rng)  # reaches a waypoint, starts pausing
        x, y = ue.position.x, ue.position.y
        model.step(ue, 100.0, rng)
        assert (ue.position.x, ue.position.y) == (x, y)

    def test_negative_dt_rejected(self, grid, rng):
        with pytest.raises(ValueError):
            RandomWaypoint(grid).step(_ue(1), -1.0, rng)


class TestScriptedRoute:
    def test_follows_route(self, rng):
        route = np.array([[0.0, 0.0], [10.0, 0.0]])
        model = ScriptedRoute(route, speed_mps=1.0)
        ue = _ue(1, 0.0, 0.0)
        model.step(ue, 5.0, rng)
        assert ue.position.x == pytest.approx(5.0)
        assert ue.position.y == pytest.approx(0.0)

    def test_ping_pong(self, rng):
        route = np.array([[0.0, 0.0], [10.0, 0.0]])
        model = ScriptedRoute(route, speed_mps=1.0)
        ue = _ue(1, 0.0, 0.0)
        model.step(ue, 15.0, rng)  # 10 out + 5 back
        assert ue.position.x == pytest.approx(5.0)
        model.step(ue, 5.0, rng)  # back at start
        assert ue.position.x == pytest.approx(0.0)

    def test_independent_progress_per_ue(self, rng):
        route = np.array([[0.0, 0.0], [100.0, 0.0]])
        model = ScriptedRoute(route, speed_mps=1.0)
        a, b = _ue(1, 0, 0), _ue(2, 0, 0)
        model.step(a, 10.0, rng)
        model.step(b, 20.0, rng)
        assert a.position.x == pytest.approx(10.0)
        assert b.position.x == pytest.approx(20.0)

    def test_route_validation(self):
        with pytest.raises(ValueError):
            ScriptedRoute(np.array([[0.0, 0.0]]))
        with pytest.raises(ValueError):
            ScriptedRoute(np.array([[0.0, 0.0], [0.0, 0.0]]))


class TestClusterMobility:
    def test_snaps_to_spots(self, rng):
        spots = np.array([[10.0, 10.0], [90.0, 90.0]])
        model = ClusterMobility(spots, dwell_mean_s=1e9, jitter_m=1.0)
        ue = _ue(1)
        model.step(ue, 1.0, rng)
        d = min(
            np.hypot(ue.position.x - sx, ue.position.y - sy) for sx, sy in spots
        )
        assert d < 5.0

    def test_dwell_prevents_rehop(self, rng):
        spots = np.array([[10.0, 10.0], [90.0, 90.0]])
        model = ClusterMobility(spots, dwell_mean_s=1e9, jitter_m=0.0)
        ue = _ue(1)
        model.step(ue, 1.0, rng)
        pos = (ue.position.x, ue.position.y)
        model.step(ue, 1.0, rng)
        assert (ue.position.x, ue.position.y) == pos

    def test_requires_spots(self):
        with pytest.raises(ValueError):
            ClusterMobility(np.empty((0, 2)))


class TestRelocate:
    def test_moves_requested_fraction(self, grid, rng):
        ues = [_ue(i) for i in range(10)]
        moved = relocate_fraction(ues, 0.5, grid, rng)
        assert len(moved) == 5
        for ue in ues:
            if ue.ue_id in moved:
                assert (ue.position.x, ue.position.y) != (50.0, 50.0)

    def test_zero_fraction_noop(self, grid, rng):
        ues = [_ue(i) for i in range(4)]
        assert relocate_fraction(ues, 0.0, grid, rng) == []

    def test_clearance_veto(self, grid, rng):
        ues = [_ue(i) for i in range(5)]
        relocate_fraction(ues, 1.0, grid, rng, clearance_check=lambda x, y: x < 50.0)
        for ue in ues:
            assert ue.position.x < 50.0

    def test_invalid_fraction(self, grid, rng):
        with pytest.raises(ValueError):
            relocate_fraction([_ue(1)], 1.5, grid, rng)

    def test_all_draws_vetoed_keeps_ue_in_place(self, grid, rng):
        """Regression: a UE whose every draw is vetoed used to be
        teleported to the last *rejected* position (e.g. inside a
        building); it must stay where it is instead."""
        ues = [_ue(i) for i in range(3)]
        before = perf.counters()
        moved = relocate_fraction(
            ues, 1.0, grid, rng, clearance_check=lambda x, y: False
        )
        assert moved == []
        for ue in ues:
            assert (ue.position.x, ue.position.y) == (50.0, 50.0)
        deltas = perf.counters_since(before)
        assert deltas.get("mobility.clearance_giveup", 0) == 3

    def test_giveup_same_draw_schedule_as_success(self, grid):
        """The give-up branch must not change the RNG draw schedule:
        UEs after a fully-vetoed one land exactly where they would
        have if the vetoed UE had been movable."""
        rng_a = np.random.default_rng(11)
        rng_b = np.random.default_rng(11)
        ues_a = [_ue(i) for i in range(4)]
        ues_b = [_ue(i) for i in range(4)]
        relocate_fraction(ues_a, 1.0, grid, rng_a)
        relocate_fraction(ues_b, 1.0, grid, rng_b, clearance_check=lambda x, y: True)
        for a, b in zip(ues_a, ues_b):
            assert (a.position.x, a.position.y) == (b.position.x, b.position.y)


class TestForget:
    def test_base_forget_is_noop(self):
        class Still(MobilityModel):
            def step(self, ue, dt_s, rng):
                pass

        Still().forget(1)  # must not raise

    def test_random_waypoint_forget_clears_state(self, grid, rng):
        model = RandomWaypoint(grid, speed_mps=1000.0, pause_s=10.0)
        ue = _ue(1)
        model.step(ue, 1.0, rng)  # reaches a waypoint -> pause recorded
        model.step(_ue(2), 0.5, rng)  # second UE holds state too
        assert 1 in model._pauses or 1 in model._targets
        assert 2 in model._pauses or 2 in model._targets
        model.forget(1)
        assert 1 not in model._targets and 1 not in model._pauses
        assert 2 in model._pauses or 2 in model._targets  # others untouched

    def test_scripted_route_forget_resets_progress(self, rng):
        route = np.array([[0.0, 0.0], [100.0, 0.0]])
        model = ScriptedRoute(route, speed_mps=1.0)
        ue = _ue(1, 0, 0)
        model.step(ue, 10.0, rng)
        assert 1 in model._progress
        model.forget(1)
        assert 1 not in model._progress
        # A re-attached id starts its route fresh.
        model.step(ue, 10.0, rng)
        assert ue.position.x == pytest.approx(10.0)

    def test_cluster_forget_clears_dwell(self, rng):
        spots = np.array([[10.0, 10.0]])
        model = ClusterMobility(spots, dwell_mean_s=1e9)
        ue = _ue(1)
        model.step(ue, 1.0, rng)
        assert 1 in model._until
        model.forget(1)
        assert 1 not in model._until

    def test_enodeb_deregister_forgets_mobility_state(self, grid, rng):
        """Deregistration must clean mobility state exactly like the
        OLLA offsets: detached UEs cannot pin waypoints forever."""
        model = RandomWaypoint(grid, speed_mps=1.0, pause_s=0.0)
        enodeb = ENodeB(mobility=model)
        ue = _ue(1)
        enodeb.register_ue(ue)
        model.step(ue, 0.5, rng)
        assert 1 in model._targets
        enodeb.deregister_ue(1)
        assert 1 not in model._targets and 1 not in model._pauses

    def test_enodeb_without_mobility_still_deregisters(self):
        enodeb = ENodeB()
        ue = _ue(1)
        enodeb.register_ue(ue)
        enodeb.deregister_ue(1)  # must not raise
        assert enodeb.connected_ues() == []


class TestValidation:
    def test_random_waypoint_rejects_nonpositive_speed(self, grid):
        with pytest.raises(ValueError, match="speed_mps"):
            RandomWaypoint(grid, speed_mps=0.0)
        with pytest.raises(ValueError, match="speed_mps"):
            RandomWaypoint(grid, speed_mps=-1.4)

    def test_random_waypoint_rejects_negative_pause(self, grid):
        with pytest.raises(ValueError, match="pause_s"):
            RandomWaypoint(grid, pause_s=-1.0)

    def test_scripted_route_rejects_nonpositive_speed(self):
        route = np.array([[0.0, 0.0], [10.0, 0.0]])
        with pytest.raises(ValueError, match="speed_mps"):
            ScriptedRoute(route, speed_mps=0.0)
