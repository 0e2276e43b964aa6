"""Uniform places through SkyRAN's streamed Step 8.

A twin controller runs the same epochs with the fold swapped for the
materialized oracle (:func:`tests.rem_oracles.materialized_step8`);
placement, per-UE maps, flight and UAV state must match bit for bit,
including under SNR drops that leave the UEs' REMs with different
measured masks.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.baselines.uniform as uniform_mod
from repro.baselines.uniform import UniformController
from repro.core.config import UNCERTAINTY_PENALTY_CAP_DB, UNCERTAINTY_PENALTY_DB_PER_M
from repro.experiments.common import config_for, scenario_for
from repro.faults import FaultPlan
from tests.rem_oracles import materialized_step8

N_EPOCHS = 3


def _materialized_step8(grid, rems, altitude, **_kwargs):
    """Step 8 from the oracle, with the epoch's own discount, whatever
    arguments the controller passes."""
    return materialized_step8(
        grid,
        rems,
        altitude,
        UNCERTAINTY_PENALTY_DB_PER_M,
        UNCERTAINTY_PENALTY_CAP_DB,
    )


def _run(terrain, seed, drop, n_epochs=N_EPOCHS):
    scenario = scenario_for(terrain, n_ues=5, seed=seed, quick=True)
    faults = FaultPlan(seed=3, snr_drop_rate=0.5) if drop else None
    ctrl = UniformController(
        scenario.channel,
        scenario.enodeb,
        config_for(quick=True),
        altitude=60.0,
        seed=seed,
        faults=faults,
    )
    epochs = []
    for _ in range(n_epochs):
        result = ctrl.run_epoch()
        masks = {rem.measured_mask.tobytes() for rem in ctrl._rems.values()}
        epochs.append((result, ctrl.uav.position.copy(), ctrl.uav.clock_s, len(masks)))
    return epochs


@pytest.mark.parametrize(
    "terrain, seed, drop",
    [("nyc", 0, False), ("campus", 1, False), ("nyc", 2, True)],
)
def test_uniform_matches_materialized_step8(monkeypatch, terrain, seed, drop):
    streamed = _run(terrain, seed, drop)
    monkeypatch.setattr(
        uniform_mod,
        "streamed_discounted_max_min_placement",
        _materialized_step8,
    )
    materialized = _run(terrain, seed, drop)

    for (got, pos, clock, n_masks), (want, want_pos, want_clock, _) in zip(
        streamed, materialized
    ):
        assert got.placement.cell == want.placement.cell
        assert got.placement.min_snr_db == want.placement.min_snr_db
        assert np.array_equal(
            got.placement.position.as_array(), want.placement.position.as_array()
        )
        assert list(got.rem_maps) == list(want.rem_maps)
        for ue_id, m in got.rem_maps.items():
            assert m.tobytes() == want.rem_maps[ue_id].tobytes()
        assert got.flight_distance_m == want.flight_distance_m
        assert got.flight_time_s == want.flight_time_s
        assert np.array_equal(pos, want_pos)
        assert clock == want_clock
    if drop:
        # Dropped samples differ per UE, so the fold sees several masks.
        assert max(n for *_, n in streamed[1:]) >= 2
