"""Unit tests for terrain heightmaps and generators."""

import pickle

import numpy as np
import pytest

from repro.geo.grid import GridSpec
from repro.terrain.generators import (
    make_campus,
    make_fig4_terrain,
    make_flat,
    make_large,
    make_nyc,
    make_rural,
    make_terrain,
)
from repro.terrain.heightmap import Terrain


class TestTerrain:
    def test_shape_must_match_grid(self):
        g = GridSpec.from_extent(10, 10, 1.0)
        with pytest.raises(ValueError):
            Terrain(g, np.zeros((5, 5)))

    def test_height_lookups(self, box_terrain):
        assert box_terrain.height_at(50.0, 50.0) == pytest.approx(20.0)
        assert box_terrain.height_at(10.0, 10.0) == pytest.approx(0.0)

    def test_heights_at_xy_broadcast(self, box_terrain):
        xs = np.array([[50.0, 10.0], [50.0, 10.0]])
        ys = np.array([[50.0, 10.0], [10.0, 50.0]])
        h = box_terrain.heights_at_xy(xs, ys)
        assert h.shape == (2, 2)
        assert h[0, 0] == 20.0 and h[0, 1] == 0.0

    def test_flat_cells_index_heights_at_xy(self, box_terrain):
        rng = np.random.default_rng(2)
        xs, ys = rng.uniform(-30.0, 130.0, (2, 7, 9))
        cells = box_terrain.flat_cells(xs, ys)
        assert cells.shape == (7, 9)
        np.testing.assert_array_equal(
            box_terrain.heights.ravel()[cells], box_terrain.heights_at_xy(xs, ys)
        )

    def test_dilated_is_the_square_max_truncated_at_the_edge(self):
        rng = np.random.default_rng(4)
        g = GridSpec(0.0, 0.0, 1.0, 13, 9)
        heights = rng.uniform(0.0, 30.0, g.shape)
        heights[0, 5] = 99.0  # an edge cell
        t = Terrain(g, heights)
        ny, nx = g.shape

        def square_max(r):
            return np.array(
                [
                    heights[max(iy - r, 0) : iy + r + 1, max(ix - r, 0) : ix + r + 1].max()
                    for iy in range(ny)
                    for ix in range(nx)
                ]
            )

        radii = (1, 2, 4, 8)
        stack = t.dilated(radii)
        assert stack.shape == (4, heights.size)
        for row, r in zip(stack, radii):
            np.testing.assert_array_equal(row, square_max(r))
        assert t.dilated(radii) is stack
        # Radii in any order, each its own filter.
        for row, r in zip(t.dilated((8, 3, 1, 5)), (8, 3, 1, 5)):
            np.testing.assert_array_equal(row, square_max(r))

    def test_dilations_are_not_pickled(self):
        t = make_flat(size=20.0, cell_size=2.0).with_box(4.0, 4.0, 8.0, 8.0, 5.0)
        stack = t.dilated((1, 2))
        clone = pickle.loads(pickle.dumps(t))
        assert "_dilated" not in vars(clone)
        np.testing.assert_array_equal(clone.dilated((1, 2)), stack)

    def test_with_box_never_digs(self, flat_terrain):
        t = flat_terrain.with_box(0, 0, 50, 50, 10.0)
        t2 = t.with_box(0, 0, 50, 50, 2.0)
        assert t2.height_at(25, 25) == pytest.approx(10.0)

    def test_coarsened_takes_block_maxima(self):
        g = GridSpec.from_extent(8, 8, 1.0)
        h = np.zeros(g.shape)
        h[3, 3] = 30.0
        t = Terrain(g, h).coarsened(4)
        assert t.grid.cell_size == 4.0
        assert t.max_height == 30.0

    def test_coarsened_identity(self, flat_terrain):
        assert flat_terrain.coarsened(1) is flat_terrain

    def test_built_fraction_flat_is_zero(self, flat_terrain):
        assert flat_terrain.built_fraction() == 0.0

    def test_roughness_flat_is_zero(self, flat_terrain):
        assert flat_terrain.roughness() == 0.0

    def test_free_cells_excludes_buildings(self, box_terrain):
        iy, ix = box_terrain.free_cells(clearance=1.0)
        heights = box_terrain.heights[iy, ix]
        assert np.all(heights < 1.0)


class TestGenerators:
    def test_campus_has_building_and_forest(self):
        t = make_campus(cell_size=4.0)
        assert t.max_height >= 30.0  # 35 m trees
        assert 0.05 < t.built_fraction() < 0.6
        assert t.name == "campus"

    def test_nyc_is_dense_and_tall(self):
        t = make_nyc(cell_size=4.0)
        assert t.max_height > 40.0
        assert t.built_fraction() > 0.3

    def test_rural_is_mostly_open(self):
        t = make_rural(cell_size=4.0)
        assert t.built_fraction(threshold=3.0) < 0.25

    def test_large_extent(self):
        t = make_large(cell_size=16.0)
        assert t.grid.width == pytest.approx(1000.0, rel=0.05)

    def test_fig4_terrains_increase_in_complexity(self):
        frac = [
            make_fig4_terrain(i, cell_size=4.0).built_fraction(threshold=3.0)
            for i in (1, 2, 3, 4)
        ]
        assert frac[0] <= frac[1] <= frac[3]
        assert frac[3] > frac[0]

    def test_fig4_invalid_index(self):
        with pytest.raises(ValueError):
            make_fig4_terrain(5)

    def test_generators_deterministic(self):
        a = make_nyc(cell_size=4.0, seed=9)
        b = make_nyc(cell_size=4.0, seed=9)
        np.testing.assert_array_equal(a.heights, b.heights)

    def test_make_terrain_by_name(self):
        assert make_terrain("flat").name == "flat"
        assert make_terrain("terrain-2", cell_size=4.0).name == "terrain-2"
        with pytest.raises(KeyError):
            make_terrain("atlantis")

    def test_make_flat(self):
        t = make_flat(size=50.0, cell_size=2.0)
        assert t.max_height == 0.0
        assert t.grid.shape == (25, 25)
