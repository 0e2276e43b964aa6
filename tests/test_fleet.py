"""Fleet control plane: handover hysteresis, SINR tiles, invariances.

The fleet promises three things worth pinning down hard:

* the hysteresis knob prevents boundary UEs from ping-ponging between
  cells under SINR jitter smaller than the hysteresis margin;
* streamed SINR tiles assemble bit-identically to the materialized
  stack for *every* tiling, interferers or not;
* nothing physical depends on the arbitrary order cells are listed in
  — permuting the fleet permutes the labels and changes no SINR.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel.interference import interference_penalty_db, sinr_db_from_rx_stack
from repro.channel.linkbudget import LinkBudget
from repro.core.association import UNATTACHED, hysteresis_pick
from repro.core.config import SkyRANConfig
from repro.core.controller import SkyRANController
from repro.core.fleet import FleetController
from repro.sim.runner import EpochRecord, run_simulation
from repro.sim.scenario import Scenario

pytestmark = pytest.mark.fleet


# -- handover hysteresis -------------------------------------------------------


class TestHandoverHysteresis:
    def _jittered_scores(self, n_epochs=20):
        """A boundary UE: cells 0/1 alternate being better by 1 dB."""
        scores = []
        for t in range(n_epochs):
            edge = 1.0 if t % 2 == 0 else -1.0
            scores.append(np.array([[10.0 + edge], [10.0 - edge]]))
        return scores

    def test_no_ping_pong_with_hysteresis(self):
        serving = np.array([UNATTACHED])
        handovers = 0
        for candidate in self._jittered_scores():
            new = hysteresis_pick(candidate, serving, 3.0)
            handovers += int(serving[0] != UNATTACHED and new[0] != serving[0])
            serving = new
        # Attach once, then hold: 2 dB of jitter never clears 3 dB.
        assert handovers == 0
        assert serving[0] == 0  # the first epoch's best cell

    def test_zero_hysteresis_ping_pongs(self):
        serving = np.array([UNATTACHED])
        handovers = 0
        for candidate in self._jittered_scores():
            new = hysteresis_pick(candidate, serving, 0.0)
            handovers += int(serving[0] != UNATTACHED and new[0] != serving[0])
            serving = new
        # Without the margin the same jitter flips the UE every epoch.
        assert handovers == 19

    def test_large_gain_still_hands_over(self):
        serving = np.array([0])
        candidate = np.array([[5.0], [15.0]])  # 10 dB gain clears 3 dB
        assert hysteresis_pick(candidate, serving, 3.0)[0] == 1


# -- penalised SNR tiles (SINR ~ SNR - penalty) vs the materialized stack ------


class TestSinrTiles:
    """The co-channel placement fold: SNR minus a per-UE penalty."""

    @pytest.fixture(scope="class")
    def world(self):
        scenario = Scenario.create("campus", n_ues=3, cell_size=4.0, seed=21)
        interferers = [
            np.array([60.0, 80.0, 60.0]),
            np.array([240.0, 220.0, 60.0]),
        ]
        return scenario, interferers

    @pytest.mark.parametrize("tile_rows", [7, 13, 50])
    @pytest.mark.parametrize("ue_chunk", [None, 1, 2])
    def test_tiles_match_materialized(self, world, tile_rows, ue_chunk):
        scenario, interferers = world
        ues = scenario.ue_positions()
        grid = scenario.eval_grid
        penalty = interference_penalty_db(scenario.channel, ues, interferers)
        stack = scenario.channel.snr_maps(ues, 60.0, grid) - penalty[:, None, None]
        assembled = np.full_like(stack, np.nan)
        for ue_sl, row_sl, block in scenario.channel.iter_snr_map_tiles(
            ues, 60.0, grid, tile_rows=tile_rows, ue_chunk=ue_chunk
        ):
            assembled[ue_sl, row_sl] = block - penalty[ue_sl, None, None]
        assert not np.isnan(assembled).any()
        assert np.array_equal(assembled, stack)

    def test_no_interferers_is_exactly_snr(self, world):
        scenario, _ = world
        ues = scenario.ue_positions()
        penalty = interference_penalty_db(scenario.channel, ues, [])
        assert np.array_equal(penalty, np.zeros(len(ues)))
        snr = scenario.channel.snr_maps(ues, 60.0, scenario.eval_grid)
        assert np.array_equal(snr - penalty[:, None, None], snr)

    def test_interference_only_costs(self, world):
        scenario, interferers = world
        ues = scenario.ue_positions()
        penalty = interference_penalty_db(scenario.channel, ues, interferers)
        assert (penalty > 0.0).all()


# -- cell-order invariance -----------------------------------------------------


@st.composite
def rx_stacks(draw):
    n_uav = draw(st.integers(min_value=2, max_value=4))
    n_ue = draw(st.integers(min_value=1, max_value=6))
    rx = draw(
        st.lists(
            st.floats(min_value=-120.0, max_value=-40.0),
            min_size=n_uav * n_ue,
            max_size=n_uav * n_ue,
        )
    )
    serving = draw(
        st.lists(
            st.integers(min_value=0, max_value=n_uav - 1),
            min_size=n_ue,
            max_size=n_ue,
        )
    )
    perm = draw(st.permutations(range(n_uav)))
    return (
        np.array(rx).reshape(n_uav, n_ue),
        np.array(serving),
        np.array(perm),
    )


class TestCellOrderInvariance:
    @given(rx_stacks())
    @settings(max_examples=60, deadline=None)
    def test_sinr_invariant_under_cell_relabeling(self, case):
        rx, serving, perm = case
        link = LinkBudget()
        base = sinr_db_from_rx_stack(link, rx, serving)
        # Relabel cells by perm: row i of the permuted stack is old
        # cell perm[i], so old serving cell s becomes inverse[s].
        inverse = np.argsort(perm)
        permuted = sinr_db_from_rx_stack(link, rx[perm], inverse[serving])
        # Interference terms accumulate in a different order, so the
        # sums may differ in the last ulp — but nothing more.
        np.testing.assert_allclose(permuted, base, rtol=1e-12, atol=0.0)

    @given(rx_stacks())
    @settings(max_examples=60, deadline=None)
    def test_best_cell_choice_invariant(self, case):
        rx, _serving, perm = case
        cols = np.arange(rx.shape[1])
        best = np.argmax(rx, axis=0)
        best_permuted = np.argmax(rx[perm], axis=0)
        # The winning *link* is invariant under relabeling (ties may
        # resolve to a different but equally-good cell, so compare the
        # received power, not the label).
        assert np.array_equal(rx[perm[best_permuted], cols], rx[best, cols])


# -- the degenerate fleet ------------------------------------------------------


class TestDegenerateFleet:
    def test_single_uav_fleet_flies_like_skyran(self):
        cfg = SkyRANConfig(rem_cell_size_m=8.0)

        scenario = Scenario.create("campus", n_ues=4, cell_size=4.0, seed=9)
        solo = SkyRANController(scenario.channel, scenario.enodeb, cfg, seed=3)
        solo_results = [solo.run_epoch(budget_m=250.0) for _ in range(2)]

        scenario2 = Scenario.create("campus", n_ues=4, cell_size=4.0, seed=9)
        scenario2.enodeb.deregister_all()
        fleet = FleetController(
            channel=scenario2.channel,
            ues=list(scenario2.ues),
            n_uavs=1,
            config=cfg,
            seed=3,
        )
        fleet_results = [fleet.run_epoch(budget_per_uav_m=250.0) for _ in range(2)]

        # One cell, no co-channel neighbours: the refinement pass is a
        # no-op and the fleet's flight is exactly the standalone
        # controller's (same seed, same RNG draw schedule).
        for solo_res, fleet_res in zip(solo_results, fleet_results):
            cell = fleet_res.per_uav[0]
            assert cell.flight_distance_m == solo_res.flight_distance_m
            assert cell.flight_time_s == solo_res.flight_time_s
            assert cell.placement.position == solo_res.placement.position


# -- the runner's fleet scheme -------------------------------------------------


def _run(scheme, seed, **kwargs):
    scenario = Scenario.create("campus", n_ues=6, cell_size=8.0, seed=seed)
    return run_simulation(
        scenario,
        SkyRANConfig(rem_cell_size_m=16.0),
        scheme=scheme,
        n_epochs=2,
        budget_per_epoch_m=250.0,
        move_fraction=0.5,
        seed=seed,
        **kwargs,
    )


class TestFleetScheme:
    @pytest.fixture(scope="class")
    def fleet_run(self):
        return _run("fleet", 0, n_uavs=3)

    def test_records_are_epoch_records_with_aligned_cells(self, fleet_run):
        assert len(fleet_run.records) == 2
        for rec in fleet_run.records:
            assert isinstance(rec, EpochRecord)
            assert rec.n_uavs == 3
            assert rec.reuse_factor == 1
            assert rec.cells == tuple(sorted(rec.cells))
            for column in (rec.per_cell_aggregate_mbps, rec.per_cell_min_mbps, rec.ue_counts):
                assert len(column) == len(rec.cells)
            assert sum(rec.ue_counts) == 6
            # A fleet has no single-cell optimum to score against.
            assert rec.relative_throughput is None
            assert rec.rem_error_db is None

    def test_cumulative_columns_and_handovers(self, fleet_run):
        records = fleet_run.records
        assert records[0].moved_ues == ()
        assert len(records[1].moved_ues) == 3
        cum_d = cum_t = 0.0
        for rec in records:
            cum_d += rec.flight_distance_m
            cum_t += rec.flight_time_s
            assert rec.cumulative_distance_m == cum_d
            assert rec.cumulative_time_s == cum_t
        assert fleet_run.total_handovers == sum(r.handovers for r in records)
        assert fleet_run.fleet_records == records

    def test_single_cell_runs_have_no_fleet_records(self):
        result = _run("uniform", 0)
        assert result.fleet_records == ()
        assert result.total_handovers == 0
        assert all(r.n_uavs is None and r.cells is None for r in result.records)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_single_uav_fleet_matches_standalone_records(self, seed):
        fleet = _run("fleet", seed, n_uavs=1).records
        solo = _run("skyran", seed).records
        columns = (
            "flight_distance_m",
            "flight_time_s",
            "cumulative_distance_m",
            "moved_ues",
            "min_throughput_mbps",
        )
        for fleet_rec, solo_rec in zip(fleet, solo, strict=True):
            for column in columns:
                assert getattr(fleet_rec, column) == getattr(solo_rec, column), column
