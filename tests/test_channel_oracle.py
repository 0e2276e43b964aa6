"""Golden-equivalence and structural tests for the batched map oracle.

The batched/cached :meth:`ChannelModel.path_loss_maps` oracle must
produce exactly the maps the serial per-UE reference
(:func:`tests.link_oracles.path_loss_map`) produces — bit-identical,
across terrains, altitudes and chunk boundaries.  The perf
counters additionally pin structural properties the timings cannot:
one ray trace per sample batch, cache hits on re-query, and recompute
limited to UEs that actually moved.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.channel.model as model_mod
import repro.channel.raytrace as raytrace_mod
from repro.channel.model import ChannelModel
from repro.channel.raytrace import obstructed_lengths
from repro.channel.shadowing import ShadowingField
from repro.core.config import SkyRANConfig
from repro.core.controller import SkyRANController
from repro.perf import perf
from repro.sim.scenario import Scenario
from tests import link_oracles as oracle


def _ues_on(terrain, n=4, seed=0):
    """A few UE positions on walkable cells of a terrain."""
    rng = np.random.default_rng(seed)
    iy, ix = terrain.free_cells()
    pick = rng.choice(len(ix), size=n, replace=False)
    gx, gy = terrain.grid.centers()
    return [
        np.array([gx[iy[p], ix[p]], gy[iy[p], ix[p]], 1.5], dtype=float)
        for p in pick
    ]


# -- golden equivalence: batched == serial reference ----------------------------


@pytest.mark.parametrize("altitude", [40.0, 60.0, 118.0])
def test_batched_maps_match_serial_reference_box(box_channel, altitude):
    ues = _ues_on(box_channel.terrain)
    batched = box_channel.path_loss_maps(ues, altitude, use_cache=False)
    for i, ue in enumerate(ues):
        reference = oracle.path_loss_map(box_channel, ue, altitude)
        np.testing.assert_array_equal(batched[i], reference)


def test_batched_maps_match_serial_reference_flat(flat_channel):
    ues = _ues_on(flat_channel.terrain)
    batched = flat_channel.path_loss_maps(ues, 60.0, use_cache=False)
    for i, ue in enumerate(ues):
        np.testing.assert_array_equal(
            batched[i], oracle.path_loss_map(flat_channel, ue, 60.0)
        )


def test_batched_maps_match_serial_reference_campus_with_shadowing(campus_terrain):
    # Shadowing on: the full production configuration.
    channel = ChannelModel(campus_terrain, seed=5)
    ues = _ues_on(campus_terrain, n=3, seed=2)
    grid = campus_terrain.grid.coarsen(2)
    batched = channel.path_loss_maps(ues, 60.0, grid, use_cache=False)
    for i, ue in enumerate(ues):
        np.testing.assert_array_equal(
            batched[i], oracle.path_loss_map(channel, ue, 60.0, grid)
        )


def test_results_invariant_to_chunk_boundaries(box_channel, monkeypatch):
    ues = _ues_on(box_channel.terrain, n=5)
    full = box_channel.path_loss_maps(ues, 55.0, use_cache=False)
    # Force the UE-axis chunking to one UE per batch and the ray
    # tracer's internal sample chunking to tiny blocks.
    monkeypatch.setattr(model_mod, "_MAP_CHUNK_RAYS", 1)
    monkeypatch.setattr(raytrace_mod, "_CHUNK_SAMPLES", 512)
    chunked = box_channel.path_loss_maps(ues, 55.0, use_cache=False)
    np.testing.assert_array_equal(chunked, full)


def test_flight_samples_invariant_to_ue_blocks(box_terrain, monkeypatch):
    # One flight trace for all UEs, or one UE per block: the same SNRs
    # and the same generator state, with one trace per block.
    channel = ChannelModel(box_terrain)
    ues = _ues_on(box_terrain, n=5, seed=4)
    uav = np.column_stack(
        [np.linspace(5, 95, 300), np.linspace(90, 10, 300), np.full(300, 25.0)]
    )
    rng = np.random.default_rng(6)
    before = perf.counter("raytrace.calls")
    whole = channel.sample_snr_many(uav, ues, rng)
    assert perf.counter("raytrace.calls") == before + 1
    monkeypatch.setattr(model_mod, "_FLIGHT_CHUNK_RAYS", 1)
    rng_blocks = np.random.default_rng(6)
    blocks = channel.sample_snr_many(uav, ues, rng_blocks)
    assert perf.counter("raytrace.calls") == before + 1 + len(ues)
    for a, b in zip(whole, blocks):
        np.testing.assert_array_equal(a, b)
    assert rng.bit_generator.state == rng_blocks.bit_generator.state


def test_obstructed_lengths_batch_invariant(box_channel):
    # A ray's result must not depend on what else is in the batch
    # (per-ray bucketed sampling) — the property that makes chunked,
    # cached and tiled paths interchangeable.
    terrain = box_channel.terrain
    rng = np.random.default_rng(3)
    tx = np.column_stack(
        [rng.uniform(0, 100, 16), rng.uniform(0, 100, 16), rng.uniform(30, 120, 16)]
    )
    ue = np.array([50.0, 30.0, 1.5])
    full = obstructed_lengths(terrain, tx, ue)
    for sl in (slice(0, 1), slice(3, 7), slice(10, 16)):
        np.testing.assert_array_equal(obstructed_lengths(terrain, tx[sl], ue), full[sl])


def test_snr_maps_match_per_ue_snr_maps(box_channel):
    ues = _ues_on(box_channel.terrain, n=3)
    stack = box_channel.snr_maps(ues, 60.0)
    for i, ue in enumerate(ues):
        np.testing.assert_array_equal(stack[i], oracle.snr_map(box_channel, ue, 60.0))


# -- structural perf properties -------------------------------------------------


def test_sample_snr_db_traces_once_per_batch(box_channel, rng):
    uav = np.column_stack(
        [np.linspace(10, 90, 50), np.linspace(20, 80, 50), np.full(50, 60.0)]
    )
    ue = np.array([50.0, 30.0, 1.5])
    before = perf.counter("raytrace.calls")
    box_channel.sample_snr_many(uav, [ue], rng)[0]
    assert perf.counter("raytrace.calls") == before + 1


def test_path_loss_and_los_traces_once(box_channel):
    uav = np.array([[20.0, 20.0, 60.0], [50.0, 50.0, 80.0]])
    ue = np.array([50.0, 30.0, 1.5])
    before = perf.counter("raytrace.calls")
    loss, los = box_channel.path_loss_and_los(uav, ue)
    assert perf.counter("raytrace.calls") == before + 1
    # And it agrees with the loss-only call and the raw trace.
    np.testing.assert_array_equal(loss, box_channel.path_loss_db(uav, ue))
    np.testing.assert_array_equal(
        los, obstructed_lengths(box_channel.terrain, uav, ue) <= 0.0
    )


def test_path_loss_and_los_consistent_with_obstruction(box_channel):
    tx = np.array([[50.0, 20.0, 5.0], [50.0, 20.0, 119.0]])
    ue = np.array([50.0, 80.0, 1.5])  # across the building
    obstructed = obstructed_lengths(box_channel.terrain, tx, ue)
    _, los = box_channel.path_loss_and_los(tx, ue)
    np.testing.assert_array_equal(los, obstructed <= 0.0)
    assert not los[0]  # grazing ray through the box
    assert obstructed[0] > 0.0


# -- LRU map cache --------------------------------------------------------------


def test_map_cache_hits_on_requery(box_channel):
    ues = _ues_on(box_channel.terrain, n=3)
    perf.reset()
    box_channel.path_loss_maps(ues, 60.0)
    assert perf.counter("oracle.map_cache.miss") == 3
    assert perf.counter("oracle.map_cache.hit") == 0
    box_channel.path_loss_maps(ues, 60.0)
    assert perf.counter("oracle.map_cache.hit") == 3
    # A different altitude is a different key.
    box_channel.path_loss_maps(ues, 80.0)
    assert perf.counter("oracle.map_cache.miss") == 6


def test_map_cache_recomputes_only_moved_ues(box_channel):
    ues = _ues_on(box_channel.terrain, n=4)
    first = box_channel.path_loss_maps(ues, 60.0)
    moved = [u.copy() for u in ues]
    moved[1] = moved[1] + np.array([8.0, 0.0, 0.0])
    perf.reset()
    second = box_channel.path_loss_maps(moved, 60.0)
    assert perf.counter("oracle.map_cache.hit") == 3
    assert perf.counter("oracle.map_cache.miss") == 1
    for i in (0, 2, 3):
        np.testing.assert_array_equal(second[i], first[i])
    np.testing.assert_array_equal(
        second[1], box_channel.path_loss_maps([moved[1]], 60.0, use_cache=False)[0]
    )


def test_map_cache_bounded_lru_eviction(box_terrain):
    channel = ChannelModel(
        box_terrain, shadowing_sigma_db=0.0, common_sigma_db=0.0, map_cache_size=2
    )
    ues = _ues_on(box_terrain, n=4)
    perf.reset()
    channel.path_loss_maps(ues, 60.0)
    assert len(channel._map_cache) == 2
    assert perf.counter("oracle.map_cache.evict") == 2


def test_fspl_prior_map_cached_and_copy_safe(box_channel, small_grid):
    ue = np.array([30.0, 30.0, 1.5])
    perf.reset()
    a = box_channel.fspl_prior_map(ue, 60.0, small_grid)
    b = box_channel.fspl_prior_map(ue, 60.0, small_grid)
    assert perf.counter("oracle.map_cache.hit") == 1
    np.testing.assert_array_equal(a, b)
    a[:] = 0.0  # mutating the returned map must not poison the cache
    np.testing.assert_array_equal(b, box_channel.fspl_prior_map(ue, 60.0, small_grid))


def test_shadowing_cache_bounded_lru_and_regenerates_bitwise(box_terrain):
    # Every position of a mobile UE is a new field; the field cache
    # keeps at most map_cache_size of them, and a field evicted and
    # regenerated is bit-identical (a pure function of seed + position).
    channel = ChannelModel(box_terrain, common_sigma_db=0.0, map_cache_size=3)
    ues = [np.array([10.0 + 7.0 * i, 30.0, 1.5]) for i in range(6)]
    first = channel._shadowing_for(ues[0]).values_db.copy()
    for ue in ues[1:4]:
        channel._shadowing_for(ue)
    assert len(channel._shadow_cache) == 3
    assert tuple(ues[0].tolist()) not in channel._shadow_cache
    # A hit refreshes recency: ues[1] survives the next insertion.
    channel._shadowing_for(ues[1])
    channel._shadowing_for(ues[4])
    assert list(channel._shadow_cache) == [
        tuple(u.tolist()) for u in (ues[3], ues[1], ues[4])
    ]
    np.testing.assert_array_equal(channel._shadowing_for(ues[0]).values_db, first)
    assert len(channel._shadow_cache) == 3
    uav = np.array([[20.0, 70.0, 60.0], [80.0, 20.0, 40.0]])
    fresh = ChannelModel(box_terrain, common_sigma_db=0.0)
    for ue in ues:
        np.testing.assert_array_equal(
            channel.path_loss_db(uav, ue), fresh.path_loss_db(uav, ue)
        )


# -- shadowing seed handling ----------------------------------------------------


def test_shadowing_seed_zero_and_none_differ(small_grid):
    ue = np.array([10.0, 20.0, 1.5])
    seeded = ShadowingField.generate(small_grid, seed=0, ue_xyz=ue)
    unseeded = ShadowingField.generate(small_grid, seed=None, ue_xyz=ue)
    assert not np.array_equal(seeded.values_db, unseeded.values_db)
    # Determinism within each spelling is preserved.
    np.testing.assert_array_equal(
        seeded.values_db, ShadowingField.generate(small_grid, seed=0, ue_xyz=ue).values_db
    )
    np.testing.assert_array_equal(
        unseeded.values_db,
        ShadowingField.generate(small_grid, seed=None, ue_xyz=ue).values_db,
    )


# -- altitude-search flight accounting ------------------------------------------


def test_altitude_search_distance_matches_flown_time():
    # The charged search distance must equal the physically flown path:
    # clock advance x cruise speed.  The seed double-charged the
    # ceiling-to-optimum leg (analytic descent + repositioning flight).
    scenario = Scenario.create("campus", n_ues=3, cell_size=4.0, seed=3)
    ctrl = SkyRANController(
        scenario.channel, scenario.enodeb, SkyRANConfig(rem_cell_size_m=8.0), seed=1
    )
    centroid = np.mean([ue.xyz[:2] for ue in scenario.ues], axis=0)
    altitude, distance, duration = ctrl._search_altitude(centroid)
    assert ctrl.config.min_altitude_m <= altitude <= ctrl.config.max_altitude_m
    assert distance == pytest.approx(duration * ctrl.uav.speed_mps, rel=1e-9)
    # The UAV physically ends at the altitude it reports.
    assert float(ctrl.uav.position[2]) == pytest.approx(altitude)
