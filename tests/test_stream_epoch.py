"""The controller epoch's REM-key dedup and streamed placement.

With REM-key dedup off (the default) every UE is its own group and the
epoch is the paper's per-UE pipeline; the streamed step 8 must then
equal the materialized ``interpolate → discount → max_min_placement``
sequence bit for bit, which the tests re-derive from public pieces.  A
key pitch fine enough that every group is a singleton must reproduce
the dedup-off epoch exactly — same RNG draw schedule, plan, placement
and maps.  Collapse (a coarse pitch) is the perf mode: work saturates
at the number of occupied key cells and group members share one map
object.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import (
    UNCERTAINTY_PENALTY_CAP_DB,
    UNCERTAINTY_PENALTY_DB_PER_M,
    SkyRANConfig,
)
from repro.core.controller import SkyRANController
from repro.core.placement import max_min_placement, uncertainty_penalty_db
from repro.core.rem_store import REMStore
from repro.geo.grid import GridSpec
from repro.lte.throughput import throughput_mbps
from repro.rem.idw import idw_interpolate_rows
from repro.rem.interpolate import make_interpolator
from repro.rem.kriging import kriging_interpolate_rows
from repro.rem.map import REM
from repro.sim.scenario import Scenario
from tests import link_oracles as oracle


def _controller(*, pitch=None, seed=1, n_ues=4, known=None):
    scenario = Scenario.create("campus", n_ues=n_ues, cell_size=4.0, seed=5)
    cfg = SkyRANConfig(rem_cell_size_m=8.0, rem_key_pitch_m=pitch)
    ctrl = SkyRANController(
        scenario.channel,
        scenario.enodeb,
        cfg,
        seed=seed,
        known_positions=known,
    )
    return scenario, ctrl


class TestStreamedBitIdentity:
    """Singleton groups: dedup off, or a pitch finer than any UE gap."""

    @pytest.fixture(scope="class")
    def pair(self):
        results = []
        # A 0.25 m key pitch makes every estimate its own group.
        for pitch in (None, 0.25):
            _, ctrl = _controller(pitch=pitch, seed=1)
            results.append((ctrl, ctrl.run_epoch(budget_m=300.0)))
        return results

    def test_modes_took_intended_paths(self, pair):
        for _ctrl, result in pair:
            assert result.n_rem_groups == len(result.ue_estimates) == 4

    def test_estimates_identical(self, pair):
        (_, off), (_, fine) = pair
        assert set(off.ue_estimates) == set(fine.ue_estimates)
        for ue_id in off.ue_estimates:
            assert np.array_equal(off.ue_estimates[ue_id], fine.ue_estimates[ue_id])
        assert off.localization_errors_m == fine.localization_errors_m

    def test_altitude_and_flight_identical(self, pair):
        (_, off), (_, fine) = pair
        assert off.altitude_m == fine.altitude_m
        assert off.flight_distance_m == fine.flight_distance_m
        assert off.flight_time_s == fine.flight_time_s

    def test_plan_identical(self, pair):
        (_, off), (_, fine) = pair
        assert np.array_equal(
            off.plan.trajectory.waypoints, fine.plan.trajectory.waypoints
        )

    def test_placement_identical(self, pair):
        (_, off), (_, fine) = pair
        assert off.placement.cell == fine.placement.cell
        assert off.placement.min_snr_db == fine.placement.min_snr_db
        assert np.array_equal(
            off.placement.position.as_array(), fine.placement.position.as_array()
        )

    def test_rem_maps_identical(self, pair):
        (_, off), (_, fine) = pair
        assert set(off.rem_maps) == set(fine.rem_maps)
        for ue_id in off.rem_maps:
            assert np.array_equal(
                off.rem_maps[ue_id], fine.rem_maps[ue_id], equal_nan=True
            )

    @staticmethod
    def _rems_by_ue(ctrl, result):
        # Each UE's REM is stored under its own estimate, so the
        # nearest stored REM is at distance zero.
        return {
            ue_id: ctrl.rem_store.lookup(est)
            for ue_id, est in sorted(result.ue_estimates.items())
        }

    def test_rem_maps_are_interpolated_rems(self, pair):
        ctrl, result = pair[0]
        for ue_id, rem in self._rems_by_ue(ctrl, result).items():
            assert np.array_equal(
                result.rem_maps[ue_id],
                rem.interpolated(),
                equal_nan=True,
            )

    def test_placement_matches_materialized_step8(self, pair):
        """The streamed fold equals discount-then-max-min over full maps."""
        ctrl, result = pair[0]
        maps, discounted = [], 0
        for rem in self._rems_by_ue(ctrl, result).values():
            penalty = uncertainty_penalty_db(
                ctrl.rem_grid,
                rem.measured_mask,
                UNCERTAINTY_PENALTY_DB_PER_M,
                UNCERTAINTY_PENALTY_CAP_DB,
            )
            snr_map = rem.interpolated()
            if penalty is not None:
                snr_map = snr_map - penalty
                discounted += 1
            maps.append(snr_map)
        assert discounted, "the uncertainty discount must engage"
        expected = max_min_placement(ctrl.rem_grid, maps, result.altitude_m)
        assert result.placement.cell == expected.cell
        assert result.placement.min_snr_db == expected.min_snr_db
        assert np.array_equal(
            result.placement.position.as_array(), expected.position.as_array()
        )


class TestCollapse:
    def test_coarse_pitch_collapses_to_one_group(self):
        # Pitch wider than the campus: every UE lands in one key cell.
        _, ctrl = _controller(pitch=10_000.0, seed=1)
        result = ctrl.run_epoch(budget_m=300.0)
        assert result.n_rem_groups == 1
        maps = list(result.rem_maps.values())
        assert len(maps) == len(result.ue_estimates)
        # Members share the group's map *object*, not copies of it.
        assert all(m is maps[0] for m in maps)
        assert np.isfinite(result.placement.min_snr_db)

    def test_group_count_tracks_pitch(self):
        _, fine = _controller(pitch=0.25, seed=1)
        fine_result = fine.run_epoch(budget_m=300.0)
        _, coarse = _controller(pitch=10_000.0, seed=1)
        coarse_result = coarse.run_epoch(budget_m=300.0)
        assert coarse_result.n_rem_groups < fine_result.n_rem_groups
        assert fine_result.n_rem_groups == len(fine_result.ue_estimates)


class TestKnownPositions:
    def test_all_known_skips_localization_flight(self):
        scenario, _ = _controller()
        known = {
            ue.ue_id: np.array([ue.position.x, ue.position.y, ue.position.z])
            for ue in scenario.ues
        }
        scenario2 = Scenario.create("campus", n_ues=4, cell_size=4.0, seed=5)
        ctrl = SkyRANController(
            scenario2.channel,
            scenario2.enodeb,
            SkyRANConfig(rem_cell_size_m=8.0),
            seed=1,
            known_positions=known,
        )
        assert ctrl._ues_to_localize() == []
        estimates, errors, dist, t = ctrl._localization_flight()
        assert (estimates, errors, dist, t) == ({}, {}, 0.0, 0.0)

    def test_known_positions_enter_epoch_as_estimates(self):
        scenario = Scenario.create("campus", n_ues=4, cell_size=4.0, seed=5)
        known = {
            ue.ue_id: np.array([ue.position.x, ue.position.y, ue.position.z])
            for ue in scenario.ues
        }
        ctrl = SkyRANController(
            scenario.channel,
            scenario.enodeb,
            SkyRANConfig(rem_cell_size_m=8.0),
            seed=1,
            known_positions=known,
        )
        result = ctrl.run_epoch(budget_m=300.0)
        assert set(result.ue_estimates) == set(known)
        for ue_id, pos in known.items():
            assert np.array_equal(result.ue_estimates[ue_id], pos)
            # Ground truth in, so reported error is exactly zero.
            assert result.localization_errors_m[ue_id] == 0.0

    def test_partial_knowledge_localizes_the_rest(self):
        scenario = Scenario.create("campus", n_ues=4, cell_size=4.0, seed=5)
        first = scenario.ues[0]
        known = {
            first.ue_id: np.array(
                [first.position.x, first.position.y, first.position.z]
            )
        }
        ctrl = SkyRANController(
            scenario.channel,
            scenario.enodeb,
            SkyRANConfig(rem_cell_size_m=8.0),
            seed=1,
            known_positions=known,
        )
        assert {u.ue_id for u in ctrl._ues_to_localize()} == {
            u.ue_id for u in scenario.ues[1:]
        }
        result = ctrl.run_epoch(budget_m=300.0)
        assert set(result.ue_estimates) == {u.ue_id for u in scenario.ues}
        assert result.localization_errors_m[first.ue_id] == 0.0

    def test_none_is_inert(self):
        _, ctrl = _controller(known=None)
        assert len(ctrl._ues_to_localize()) == 4
        estimates, errors = {1: np.zeros(3)}, {1: 2.0}
        ctrl._merge_known_positions(estimates, errors)
        assert list(estimates) == [1] and np.array_equal(estimates[1], np.zeros(3))
        assert errors == {1: 2.0}


class TestAggregateThroughputVectorized:
    @pytest.mark.parametrize(
        "shadowing, common",
        [(0.0, 0.0), (6.0, 0.0), (6.0, 4.5)],
        ids=["0.0", "6.0", "6.0-common"],
    )
    def test_matches_scalar_loop(self, shadowing, common):
        """snr_to_many is, element by element and bitwise, the per-UE
        snr_db loop and the term-by-term link oracle, so the KPI is the
        per-UE loop's."""
        scenario = Scenario.create(
            "campus",
            n_ues=4,
            cell_size=4.0,
            seed=5,
            channel_kwargs={"shadowing_sigma_db": shadowing, "common_sigma_db": common},
        )
        cfg = SkyRANConfig(rem_cell_size_m=8.0)
        ctrl = SkyRANController(scenario.channel, scenario.enodeb, cfg, seed=1)
        ctrl.run_epoch(budget_m=300.0)
        got = ctrl.aggregate_throughput_mbps()
        channel = ctrl.channel
        ues = [ue.xyz for ue in ctrl.enodeb.connected_ues()]
        for uav in (ctrl.uav.position, [60.0, 80.0, 40.0], [20.0, 170.0, 15.0]):
            uav = np.asarray(uav, dtype=float)
            snrs = channel.snr_to_many(uav, np.array(ues))
            loop = [channel.snr_db(uav, ue) for ue in ues]
            links = [oracle.path_loss_and_los(channel, uav, ue)[0][0] for ue in ues]
            np.testing.assert_array_equal(snrs, loop)
            np.testing.assert_array_equal(snrs, channel.link.snr_db(np.array(links)))
        rates = [
            float(
                throughput_mbps(
                    float(ctrl.channel.snr_db(ctrl.uav.position, ue))
                )
            )
            for ue in ues
        ]
        assert got == float(np.mean(rates))


class TestREMStoreBucketedLookup:
    """The bucket grid must reproduce the linear scan exactly."""

    @staticmethod
    def _linear_lookup(store: REMStore, p: np.ndarray):
        best, best_d = None, store.reuse_radius_m
        for rem in store._store.values():
            d = rem.distance_to_position(p)
            if d <= best_d:
                best, best_d = rem, d
        return best

    def _filled_store(self, n=60, seed=11, radius=10.0):
        grid = GridSpec.from_extent(100.0, 100.0, cell_size=4.0)
        store = REMStore(grid, reuse_radius_m=radius)
        rng = np.random.default_rng(seed)
        for _ in range(n):
            xyz = np.append(rng.uniform(0.0, 100.0, 2), 1.5)
            store.commit(REM(grid, xyz, 60.0))
        return store, rng

    def test_random_queries_match_linear_scan(self):
        store, rng = self._filled_store()
        for _ in range(200):
            q = np.append(rng.uniform(-10.0, 110.0, 2), 1.5)
            assert store.lookup(q) is self._linear_lookup(store, q)

    def test_equidistant_tie_goes_to_latest_inserted(self):
        grid = GridSpec.from_extent(100.0, 100.0, cell_size=4.0)
        store = REMStore(grid, reuse_radius_m=10.0)
        first = REM(grid, np.array([0.0, 0.0, 1.5]), 60.0)
        second = REM(grid, np.array([10.0, 0.0, 1.5]), 60.0)
        store.commit(first)
        store.commit(second)
        # Query equidistant (5 m) from both: the linear scan's
        # ``d <= best_d`` rule hands the tie to the later insertion.
        got = store.lookup(np.array([5.0, 0.0, 1.5]))
        assert got is second

    def test_recommit_keeps_scan_position(self):
        store, rng = self._filled_store(n=20, seed=3)
        rems = list(store._store.values())
        # Re-commit an early REM; like dict reassignment, its scan
        # order must not move, so every query still matches the scan.
        store.commit(rems[2])
        for _ in range(50):
            q = np.append(rng.uniform(0.0, 100.0, 2), 1.5)
            assert store.lookup(q) is self._linear_lookup(store, q)

    def test_out_of_radius_returns_none(self):
        grid = GridSpec.from_extent(100.0, 100.0, cell_size=4.0)
        store = REMStore(grid, reuse_radius_m=5.0)
        store.commit(REM(grid, np.array([0.0, 0.0, 1.5]), 60.0))
        assert store.lookup(np.array([50.0, 50.0, 1.5])) is None


class TestInterpolatedTile:
    def test_band_matches_sliced_full_map(self):
        grid = GridSpec.from_extent(40.0, 40.0, cell_size=2.0)
        rem = REM(grid, np.array([10.0, 10.0, 1.5]), 60.0,
                  prior=np.full(grid.shape, -4.0))
        rng = np.random.default_rng(2)
        rem.add_measurements(
            rng.uniform(0.0, 40.0, (25, 2)), rng.normal(5.0, 4.0, 25)
        )
        full = rem.interpolated()
        for rows in (slice(0, 7), slice(7, 20), slice(13, 17)):
            band = idw_interpolate_rows(
                grid, rem.measured_values(), rows, fallback=rem.prior
            )
            assert np.array_equal(band, full[rows])

    def test_band_resolves_registry_params(self):
        grid = GridSpec.from_extent(40.0, 40.0, cell_size=2.0)
        rem = REM(grid, np.array([10.0, 10.0, 1.5]), 60.0)
        rng = np.random.default_rng(4)
        rem.add_measurements(
            rng.uniform(0.0, 40.0, (25, 2)), rng.normal(5.0, 4.0, 25)
        )
        values = rem.measured_values()
        full = make_interpolator("kriging", k_neighbors=8).interpolate(grid, values)
        band = kriging_interpolate_rows(grid, values, slice(3, 12), k_neighbors=8)
        assert np.array_equal(band, full[slice(3, 12)])
