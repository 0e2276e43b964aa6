"""Unit tests for the grid quantization substrate."""

import numpy as np
import pytest

from repro.geo.grid import GridSpec


class TestConstruction:
    def test_from_extent_counts_cells(self):
        g = GridSpec.from_extent(250.0, 250.0, cell_size=1.0)
        assert g.nx == 250 and g.ny == 250
        assert g.shape == (250, 250)
        assert g.num_cells == 62500

    def test_from_extent_rounds_to_nearest_cell(self):
        g = GridSpec.from_extent(10.5, 9.4, cell_size=1.0)
        assert (g.nx, g.ny) == (10, 9)

    def test_rejects_bad_cell_size(self):
        with pytest.raises(ValueError):
            GridSpec(0.0, 0.0, 0.0, 10, 10)
        with pytest.raises(ValueError):
            GridSpec(0.0, 0.0, -1.0, 10, 10)

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            GridSpec(0.0, 0.0, 1.0, 0, 10)

    def test_extent_properties(self):
        g = GridSpec(10.0, 20.0, 2.0, 5, 4)
        assert g.width == 10.0
        assert g.height == 8.0
        assert g.max_x == 20.0
        assert g.max_y == 28.0


class TestIndexing:
    def test_cell_of_interior_point(self):
        g = GridSpec(0.0, 0.0, 1.0, 10, 10)
        assert g.cell_of(3.5, 7.2) == (3, 7)

    def test_cell_of_respects_origin(self):
        g = GridSpec(100.0, 200.0, 2.0, 10, 10)
        assert g.cell_of(101.0, 203.9) == (0, 1)

    def test_cell_of_clamps_outside_points(self):
        g = GridSpec(0.0, 0.0, 1.0, 10, 10)
        assert g.cell_of(-5.0, -5.0) == (0, 0)
        assert g.cell_of(100.0, 100.0) == (9, 9)

    def test_center_roundtrip(self):
        g = GridSpec(0.0, 0.0, 1.0, 20, 30)
        for ix, iy in [(0, 0), (5, 7), (19, 29)]:
            x, y = g.center_of(ix, iy)
            assert g.cell_of(x, y) == (ix, iy)

    def test_cells_of_matches_scalar_version(self, rng):
        g = GridSpec(0.0, 0.0, 2.5, 13, 17)
        pts = rng.uniform(-5, 50, (100, 2))
        ix, iy = g.cells_of(pts)
        for k in range(len(pts)):
            assert (ix[k], iy[k]) == g.cell_of(pts[k, 0], pts[k, 1])


class TestCenters:
    def test_centers_shapes(self):
        g = GridSpec(0.0, 0.0, 1.0, 4, 3)
        gx, gy = g.centers()
        assert gx.shape == (3, 4)
        assert gy.shape == (3, 4)

    def test_centers_flat_row_major(self):
        g = GridSpec(0.0, 0.0, 1.0, 3, 2)
        flat = g.centers_flat()
        assert flat.shape == (6, 2)
        # Row-major: first row is iy=0, ix=0..2.
        np.testing.assert_allclose(flat[0], [0.5, 0.5])
        np.testing.assert_allclose(flat[2], [2.5, 0.5])
        np.testing.assert_allclose(flat[3], [0.5, 1.5])


class TestCoarsen:
    def test_coarsen_shrinks(self):
        g = GridSpec(0.0, 0.0, 1.0, 100, 100)
        c = g.coarsen(4)
        assert c.cell_size == 4.0
        assert (c.nx, c.ny) == (25, 25)

    def test_coarsen_identity(self):
        g = GridSpec(0.0, 0.0, 1.0, 10, 10)
        c = g.coarsen(1)
        assert c == g

    def test_coarsen_rejects_zero(self):
        g = GridSpec(0.0, 0.0, 1.0, 10, 10)
        with pytest.raises(ValueError):
            g.coarsen(0)

    def test_clamp_keeps_points_inside(self):
        g = GridSpec(0.0, 0.0, 1.0, 10, 10)
        x, y = g.clamp(50.0, -3.0)
        assert 0.0 <= x < 10.0 and 0.0 <= y < 10.0
        x, y = g.clamp(5.0, 5.0)
        assert (x, y) == (5.0, 5.0)
