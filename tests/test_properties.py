"""Property-based tests (hypothesis) on core invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo.grid import GridSpec
from repro.geo.paths import resample_polyline, truncate_polyline
from repro.geo.points import polyline_length
from repro.geo.tsp import solve_tsp, tour_length
from repro.lte.srs import zadoff_chu
from repro.lte.throughput import spectral_efficiency, throughput_mbps
from repro.rem.aggregate import min_snr_map
from repro.rem.idw import idw_interpolate
from tests.localization_oracles import upsample_freq

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@st.composite
def grids(draw):
    nx = draw(st.integers(min_value=1, max_value=40))
    ny = draw(st.integers(min_value=1, max_value=40))
    cell = draw(st.floats(min_value=0.1, max_value=25.0))
    ox = draw(st.floats(min_value=-1e4, max_value=1e4))
    oy = draw(st.floats(min_value=-1e4, max_value=1e4))
    return GridSpec(ox, oy, cell, nx, ny)


@st.composite
def polylines(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    pts = draw(
        st.lists(
            st.tuples(
                st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
                st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
            ),
            min_size=n,
            max_size=n,
        )
    )
    return np.asarray(pts)


class TestGridProperties:
    @given(grids(), st.floats(-2e4, 2e4), st.floats(-2e4, 2e4))
    @settings(max_examples=80, deadline=None)
    def test_cell_of_always_valid(self, grid, x, y):
        ix, iy = grid.cell_of(x, y)
        assert 0 <= ix < grid.nx
        assert 0 <= iy < grid.ny

    @given(grids())
    @settings(max_examples=40, deadline=None)
    def test_center_roundtrip(self, grid):
        ix, iy = grid.nx - 1, grid.ny - 1
        x, y = grid.center_of(ix, iy)
        assert grid.cell_of(x, y) == (ix, iy)

    @given(grids(), st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_coarsen_preserves_extent_lower_bound(self, grid, factor):
        c = grid.coarsen(factor)
        assert c.num_cells <= grid.num_cells
        assert c.width <= grid.width + grid.cell_size * factor


class TestPolylineProperties:
    @given(polylines(), st.floats(min_value=0.0, max_value=5e3))
    @settings(max_examples=80, deadline=None)
    def test_truncate_never_exceeds_budget(self, poly, budget):
        out = truncate_polyline(poly, budget)
        assert polyline_length(out) <= budget + 1e-6

    @given(polylines(), st.floats(min_value=0.5, max_value=100.0))
    @settings(max_examples=80, deadline=None)
    def test_resample_preserves_endpoints_and_length(self, poly, spacing):
        out = resample_polyline(poly, spacing)
        np.testing.assert_allclose(out[0], poly[0], atol=1e-9)
        total = polyline_length(poly)
        if total > 0:
            np.testing.assert_allclose(out[-1], poly[-1], atol=1e-9)
            # Resampling a polyline can only shorten it (chords).
            assert polyline_length(out) <= total + 1e-6


class TestTSPProperties:
    @given(st.integers(2, 9), st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_solution_is_permutation(self, n, seed):
        pts = np.random.default_rng(seed).uniform(0, 100, (n, 2))
        order = solve_tsp(pts)
        assert sorted(order) == list(range(n))

    @given(st.integers(3, 9), st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_tour_no_longer_than_input_order(self, n, seed):
        pts = np.random.default_rng(seed).uniform(0, 100, (n, 2))
        order = solve_tsp(pts, start=0)
        assert tour_length(pts, order) <= tour_length(pts, list(range(n))) + 1e-9


class TestLTEProperties:
    @given(st.integers(1, 100))
    @settings(max_examples=50, deadline=None)
    def test_zadoff_chu_unit_modulus(self, root):
        length = 139
        if np.gcd(root, length) != 1 or not 0 < root < length:
            return
        zc = zadoff_chu(root, length)
        np.testing.assert_allclose(np.abs(zc), 1.0, atol=1e-10)

    @given(st.integers(1, 6), st.integers(0, 500))
    @settings(max_examples=40, deadline=None)
    def test_upsample_preserves_energy(self, factor, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        up = upsample_freq(x, factor)
        np.testing.assert_allclose(
            np.sum(np.abs(up) ** 2), np.sum(np.abs(x) ** 2), rtol=1e-12
        )
        assert len(up) == 32 * factor

    @given(st.floats(-30.0, 40.0), st.floats(-30.0, 40.0))
    @settings(max_examples=80, deadline=None)
    def test_throughput_monotone_in_snr(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert throughput_mbps(lo) <= throughput_mbps(hi) + 1e-9
        assert spectral_efficiency(lo) <= spectral_efficiency(hi) + 1e-9

    @given(st.floats(-30.0, 40.0))
    @settings(max_examples=50, deadline=None)
    def test_throughput_non_negative(self, snr):
        assert throughput_mbps(snr) >= 0.0


class TestREMProperties:
    @given(st.integers(0, 200), st.integers(1, 99))
    @settings(max_examples=40, deadline=None)
    def test_idw_bounded_by_measured_extremes(self, seed, n_measured):
        rng = np.random.default_rng(seed)
        grid = GridSpec.from_extent(20, 20, 2.0)
        values = np.full(grid.shape, np.nan)
        idx = rng.choice(grid.num_cells, size=min(n_measured, grid.num_cells), replace=False)
        values.flat[idx] = rng.uniform(-20.0, 40.0, len(idx))
        out = idw_interpolate(grid, values)
        assert np.nanmin(out) >= np.nanmin(values) - 1e-9
        assert np.nanmax(out) <= np.nanmax(values) + 1e-9

    @given(st.integers(0, 100), st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_min_map_lower_bounds_every_ue(self, seed, n_ues):
        rng = np.random.default_rng(seed)
        maps = [rng.uniform(-10, 30, (8, 8)) for _ in range(n_ues)]
        mm = min_snr_map(maps)
        for m in maps:
            assert np.all(mm <= m + 1e-12)
