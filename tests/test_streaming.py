"""Tile-streamed map oracle vs the materialized path: exact equivalence.

The streaming contract is *bit*-identity, not closeness: each streamed
tile must carry exactly the values of the corresponding slab of the
materialized ``(n_ue, ny, nx)`` stack, for every tiling — including
row counts that do not divide the grid height and UE chunks that do
not divide the population.  The folds (min, placement) must then
commute with the tiling, and the IDW row-band interpolation must equal
the sliced full interpolation.  The streamed fold must equal the
materialized oracles of :mod:`tests.rem_oracles` bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.placement import uncertainty_penalty_db
from repro.geo.grid import GridSpec
from repro.rem.idw import idw_interpolate, idw_interpolate_rows
from repro.rem.interpolate import make_interpolator
from repro.rem.map import REM
from repro.rem.streaming import (
    row_bands,
    shared_by_mask,
    streamed_discounted_max_min_placement,
    streamed_discounted_min_map,
)
from tests.rem_oracles import materialized_discounted_min_map, materialized_step8

ALTITUDE = 60.0


@pytest.fixture()
def ues(box_terrain):
    """Five UEs scattered over the one-building world."""
    rng = np.random.default_rng(7)
    g = box_terrain.grid
    xy = rng.uniform(5.0, 95.0, size=(5, 2))
    z = box_terrain.heights_at_xy(xy[:, 0], xy[:, 1]) + 1.5
    return np.column_stack([xy, z])


def _reassemble(tiles, n_ue, shape):
    out = np.full((n_ue,) + shape, np.nan)
    for ue_sl, row_sl, block in tiles:
        assert np.all(np.isnan(out[ue_sl, row_sl])), "tiles overlap"
        out[ue_sl, row_sl] = block
    return out


# -- tile generator vs materialized stack ---------------------------------------


@pytest.mark.parametrize("tile_rows", [7, 13, 50])
@pytest.mark.parametrize("ue_chunk", [None, 1, 2])
def test_snr_tiles_bit_identical_to_snr_maps(box_channel, ues, tile_rows, ue_chunk):
    """Every tiling reassembles to exactly the materialized stack.

    50 rows is the full grid height of the 100 m / 2 m world; 7 and 13
    do not divide it, exercising the ragged last band.
    """
    grid = box_channel.terrain.grid
    stack = box_channel.snr_maps(ues, ALTITUDE, use_cache=False)
    tiles = box_channel.iter_snr_map_tiles(
        ues, ALTITUDE, tile_rows=tile_rows, ue_chunk=ue_chunk
    )
    rebuilt = _reassemble(tiles, len(ues), grid.shape)
    assert np.array_equal(rebuilt, stack)


def test_ground_truth_tiles_match_stack(box_channel, ues):
    stack = box_channel.snr_maps(ues, ALTITUDE, use_cache=False)
    tiles = box_channel.iter_snr_map_tiles(ues, ALTITUDE, tile_rows=9)
    rebuilt = _reassemble(tiles, len(ues), box_channel.terrain.grid.shape)
    assert np.array_equal(rebuilt, stack)


def test_tiles_on_coarse_grid(box_channel, ues):
    grid = box_channel.terrain.grid.coarsen(4)
    stack = box_channel.snr_maps(ues, ALTITUDE, grid, use_cache=False)
    tiles = box_channel.iter_snr_map_tiles(ues, ALTITUDE, grid, tile_rows=5)
    rebuilt = _reassemble(tiles, len(ues), grid.shape)
    assert np.array_equal(rebuilt, stack)


def test_empty_population_yields_no_tiles(box_channel):
    assert list(box_channel.iter_snr_map_tiles([], ALTITUDE)) == []


def test_tile_rows_validation(box_channel, ues):
    with pytest.raises(ValueError, match="tile_rows"):
        list(box_channel.iter_snr_map_tiles(ues, ALTITUDE, tile_rows=0))
    with pytest.raises(ValueError, match="ue_chunk"):
        list(box_channel.iter_snr_map_tiles(ues, ALTITUDE, ue_chunk=0))


# -- row-band interpolation -----------------------------------------------------


def _sparse_map(grid: GridSpec, seed: int = 3) -> np.ndarray:
    rng = np.random.default_rng(seed)
    values = np.full(grid.shape, np.nan)
    ny, nx = grid.shape
    n_meas = (ny * nx) // 5
    iy = rng.integers(0, ny, n_meas)
    ix = rng.integers(0, nx, n_meas)
    values[iy, ix] = rng.normal(10.0, 4.0, n_meas)
    return values


@pytest.mark.parametrize("rows", [slice(0, 7), slice(7, 20), slice(40, 50)])
def test_idw_rows_match_full_interpolation(small_grid, rows):
    values = _sparse_map(small_grid)
    full = idw_interpolate(small_grid, values)
    band = idw_interpolate_rows(small_grid, values, rows)
    assert np.array_equal(band, full[rows])


def test_idw_rows_with_fallback(small_grid):
    fallback = np.full(small_grid.shape, -3.25)
    rows = slice(3, 31)
    for values in (_sparse_map(small_grid, seed=9), np.full(small_grid.shape, np.nan)):
        full = idw_interpolate(small_grid, values, fallback=fallback)
        band = idw_interpolate_rows(small_grid, values, rows, fallback=fallback)
        assert np.array_equal(band, full[rows])
    assert np.array_equal(band, fallback[rows])


def test_idw_rows_match_registry_idw(small_grid):
    """The epoch's IDW bands equal the registry's ``"idw"`` at defaults."""
    values = _sparse_map(small_grid, seed=5)
    rows = slice(11, 29)
    band = idw_interpolate_rows(small_grid, values, rows)
    full = make_interpolator("idw").interpolate(small_grid, values)
    assert np.array_equal(band, full[rows])


# -- streamed uncertainty-discounted fold vs the materialized path --------------

#: A 10x10 grid keeps the property sweep fast.
_FOLD_GRID = GridSpec.from_extent(40.0, 40.0, cell_size=4.0)
_FOLD_ALT = 60.0


@st.composite
def _rem_sets(draw):
    """1-3 REMs: sparse measurement sets (possibly empty) over priors."""
    n_rems = draw(st.integers(min_value=1, max_value=3))
    rems = []
    for i in range(n_rems):
        prior = np.full(_FOLD_GRID.shape, -5.0 + 2.0 * i)
        rem = REM(_FOLD_GRID, np.array([5.0 + 10.0 * i, 12.0, 1.5]), _FOLD_ALT, prior=prior)
        n_meas = draw(st.integers(min_value=0, max_value=12))
        if n_meas:
            rng = np.random.default_rng(draw(st.integers(0, 2**16)))
            xy = rng.uniform(0.5, 39.5, size=(n_meas, 2))
            rem.add_measurements(xy, rng.normal(5.0, 6.0, n_meas))
        rems.append(rem)
    return rems


@st.composite
def _ragged_bands(draw):
    """Row slices cutting the grid height at arbitrary interior points."""
    ny = _FOLD_GRID.ny
    cuts = draw(
        st.lists(st.integers(min_value=1, max_value=ny - 1), max_size=4, unique=True)
    )
    edges = [0] + sorted(cuts) + [ny]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


class TestStreamedDiscountedFold:
    @given(
        _rem_sets(),
        _ragged_bands(),
        st.sampled_from([0.0, 0.4]),
        st.sampled_from([float("inf"), 3.0]),
    )
    @settings(max_examples=25, deadline=None)
    def test_min_map_matches_materialized_bitwise(self, rems, bands, rate, cap):
        mm, maps = streamed_discounted_min_map(
            _FOLD_GRID,
            rems,
            penalty_rate_db_per_m=rate,
            penalty_cap_db=cap,
            row_slices=bands,
            collect_maps=True,
        )
        ref_mm, ref_maps = materialized_discounted_min_map(_FOLD_GRID, rems, rate, cap)
        assert mm.tobytes() == ref_mm.tobytes()
        assert len(maps) == len(ref_maps)
        for got, want in zip(maps, ref_maps):
            assert got.tobytes() == want.tobytes()

    @given(_rem_sets(), _ragged_bands())
    @settings(max_examples=15, deadline=None)
    def test_placement_matches_materialized(self, rems, bands):
        placed, maps = streamed_discounted_max_min_placement(
            _FOLD_GRID,
            rems,
            _FOLD_ALT,
            penalty_rate_db_per_m=0.4,
            penalty_cap_db=3.0,
            row_slices=bands,
            collect_maps=True,
        )
        reference, ref_maps = materialized_step8(_FOLD_GRID, rems, _FOLD_ALT, 0.4, 3.0)
        assert placed.cell == reference.cell
        assert placed.min_snr_db == reference.min_snr_db
        assert np.array_equal(
            placed.position.as_array(), reference.position.as_array()
        )
        for got, want in zip(maps, ref_maps):
            assert got.tobytes() == want.tobytes()

    def test_empty_measurement_rem_uses_prior(self):
        prior = np.full(_FOLD_GRID.shape, -7.5)
        rem = REM(_FOLD_GRID, np.array([10.0, 10.0, 1.5]), _FOLD_ALT, prior=prior)
        mm, maps = streamed_discounted_min_map(
            _FOLD_GRID,
            [rem],
            penalty_rate_db_per_m=0.5,
            collect_maps=True,
        )
        # Nothing measured: no discount, map is exactly the prior.
        assert np.array_equal(mm, prior)
        assert np.array_equal(maps[0], prior)

    def test_rejects_empty_rem_sequence(self):
        with pytest.raises(ValueError, match="at least one REM"):
            streamed_discounted_min_map(_FOLD_GRID, [])

    @pytest.mark.parametrize("tile_rows,n_bands", [(1, 10), (3, 4), (10, 1), (64, 1)])
    def test_row_bands_cover_exactly(self, tile_rows, n_bands):
        bands = row_bands(_FOLD_GRID.ny, tile_rows)
        assert len(bands) == n_bands
        covered = [r for sl in bands for r in range(sl.start, sl.stop)]
        assert covered == list(range(_FOLD_GRID.ny))

    def test_row_bands_validation(self):
        with pytest.raises(ValueError, match="tile_rows"):
            row_bands(10, 0)


def test_streamed_min_map_nan_poisons_cell():
    """A NaN cell of one REM's map stays NaN in the folded surface."""
    poisoned = np.full(_FOLD_GRID.shape, 1.0)
    poisoned[0, 1] = np.nan
    rems = [
        REM(_FOLD_GRID, np.array([10.0, 10.0, 1.5]), _FOLD_ALT, prior=poisoned),
        REM(_FOLD_GRID, np.array([30.0, 30.0, 1.5]), _FOLD_ALT,
            prior=np.full(_FOLD_GRID.shape, 4.0)),
    ]
    for tile_rows in (1, 3, 64):
        out, _ = streamed_discounted_min_map(_FOLD_GRID, rems, tile_rows=tile_rows)
        assert np.isnan(out[0, 1])
        assert np.isnan(out).sum() == 1
        assert out[1, 2] == 1.0


# -- shared neighbour plans vs the per-REM path ---------------------------------

#: Non-square, so a swapped (ny, nx) anywhere in a plan shows.
_PLAN_GRID = GridSpec.from_extent(48.0, 36.0, cell_size=4.0)


@st.composite
def _mask_groups(draw):
    """2-8 REMs over a few shared measurement layouts.

    Each REM takes one layout — a sparse set of sample positions
    shared with other REMs (repeated masks), one of its own (distinct),
    none (empty) or every cell (all measured) — with its own SNR
    values, and a prior or none.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    g = _PLAN_GRID
    cx, cy = (c.ravel() for c in g.centers())
    everywhere = np.column_stack([cx, cy])
    layouts = [
        rng.uniform([0.5, 0.5], [47.5, 35.5], size=(int(rng.integers(1, 15)), 2))
        for _ in range(draw(st.integers(1, 3)))
    ]
    kinds = draw(
        st.lists(
            st.sampled_from(["shared", "shared", "own", "empty", "all"]),
            min_size=2,
            max_size=8,
        )
    )
    rems = []
    for i, kind in enumerate(kinds):
        prior = None if draw(st.booleans()) else rng.normal(-4.0, 3.0, g.shape)
        rem = REM(g, np.array([4.0 * i, 10.0, 1.5]), _FOLD_ALT, prior=prior)
        if kind == "shared":
            xy = layouts[int(rng.integers(len(layouts)))]
        elif kind == "own":
            xy = rng.uniform(0.5, 35.5, size=(int(rng.integers(1, 15)), 2))
        elif kind == "all":
            xy = everywhere
        else:
            xy = np.empty((0, 2))
        if len(xy):
            rem.add_measurements(xy, rng.normal(5.0, 6.0, len(xy)))
        rems.append(rem)
    return rems


@st.composite
def _plan_bands(draw):
    ny = _PLAN_GRID.ny
    cuts = draw(st.lists(st.integers(1, ny - 1), max_size=4, unique=True))
    edges = [0] + sorted(cuts) + [ny]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


def _per_rem_fold(rems, bands, rate, cap):
    """Step 8 without sharing: every REM builds its own plans and penalty."""
    g = _PLAN_GRID
    out = np.full(g.shape, np.inf)
    maps = []
    for rem in rems:
        full = np.empty(g.shape)
        for rows in bands:
            block = idw_interpolate_rows(
                g, rem.measured_values(), rows, fallback=rem.prior
            )
            full[rows] = block
            penalty = uncertainty_penalty_db(g, rem.measured_mask, rate, cap, rows=rows)
            if penalty is not None:
                block = block - penalty
            np.minimum(out[rows], block, out=out[rows])
        maps.append(full)
    return out, maps


class TestSharedPlans:
    @given(_mask_groups(), _plan_bands(), st.sampled_from([0.0, 0.4]))
    @settings(max_examples=40, deadline=None)
    def test_step8_fold_byte_equal_to_per_rem(self, rems, bands, rate):
        mm, maps = streamed_discounted_min_map(
            _PLAN_GRID,
            rems,
            penalty_rate_db_per_m=rate,
            penalty_cap_db=3.0,
            row_slices=bands,
            collect_maps=True,
        )
        ref_mm, ref_maps = _per_rem_fold(rems, bands, rate, 3.0)
        assert mm.tobytes() == ref_mm.tobytes()
        assert len(maps) == len(ref_maps)
        for got, want in zip(maps, ref_maps):
            assert got.tobytes() == want.tobytes()

    @given(_mask_groups())
    @settings(max_examples=40, deadline=None)
    def test_step6_maps_byte_equal_to_per_rem(self, rems):
        shared = [rem.interpolated(plans=plans) for rem, plans in shared_by_mask(rems)]
        one_dict: dict = {}  # plans keyed by mask: safe across masks too
        assert len(shared) == len(rems)
        for rem, got in zip(rems, shared):
            want = rem.interpolated().tobytes()
            assert got.tobytes() == want
            assert rem.interpolated(plans=one_dict).tobytes() == want

    def test_repeated_masks_share_one_dict(self):
        g = _PLAN_GRID
        rems = [REM(g, np.array([1.0, 1.0, 1.5]), _FOLD_ALT) for _ in range(4)]
        for rem, xy in zip(rems, ([[5.0, 5.0]], [[20.0, 9.0]], [[5.0, 5.0]], [[5.0, 5.0]])):
            rem.add_measurements(np.array(xy), np.array([1.0 + len(xy)]))
        dicts = [d for _, d in shared_by_mask(rems)]
        assert dicts[0] is dicts[2] is dicts[3]
        assert dicts[1] is not dicts[0]
