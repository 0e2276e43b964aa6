"""Unit tests for point helpers and polyline operations."""

import numpy as np
import pytest

from repro.geo.paths import (
    point_to_polyline_distance,
    polyline_to_polyline_distance,
    resample_polyline,
    truncate_polyline,
)
from repro.geo.points import (
    Point3D,
    as_xy_array,
    as_xyz_array,
    pairwise_distances,
    polyline_length,
)


class TestPoints:
    def test_as_xy_array_mixed_inputs(self):
        arr = as_xy_array([Point3D(3, 4, 5), (6, 7), [8, 9, 10]])
        np.testing.assert_allclose(arr, [[3, 4], [6, 7], [8, 9]])

    def test_as_xyz_array_lifts_2d(self):
        arr = as_xyz_array([(1, 2), Point3D(3, 4, 5)])
        np.testing.assert_allclose(arr, [[1, 2, 0], [3, 4, 5]])

    def test_empty_inputs(self):
        assert as_xy_array([]).shape == (0, 2)
        assert as_xyz_array([]).shape == (0, 3)

    def test_pairwise_distances(self):
        a = np.array([[0.0, 0.0], [1.0, 0.0]])
        b = np.array([[0.0, 1.0]])
        d = pairwise_distances(a, b)
        assert d.shape == (2, 1)
        assert d[0, 0] == pytest.approx(1.0)
        assert d[1, 0] == pytest.approx(np.sqrt(2))

    def test_polyline_length(self):
        assert polyline_length([(0, 0), (3, 0), (3, 4)]) == pytest.approx(7.0)
        assert polyline_length([(0, 0)]) == 0.0
        assert polyline_length([]) == 0.0


class TestResample:
    def test_resample_endpoints_preserved(self):
        pts = resample_polyline([(0, 0), (10, 0)], spacing=3.0)
        np.testing.assert_allclose(pts[0], [0, 0])
        np.testing.assert_allclose(pts[-1], [10, 0])

    def test_resample_spacing_approximate(self):
        pts = resample_polyline([(0, 0), (100, 0)], spacing=10.0)
        gaps = np.diff(pts[:, 0])
        assert np.allclose(gaps, gaps[0])
        assert abs(gaps[0] - 10.0) < 1.0

    def test_resample_multi_segment(self):
        pts = resample_polyline([(0, 0), (10, 0), (10, 10)], spacing=1.0)
        assert len(pts) == 21
        # All samples on the L-shaped path.
        on_horizontal = np.isclose(pts[:, 1], 0.0)
        on_vertical = np.isclose(pts[:, 0], 10.0)
        assert np.all(on_horizontal | on_vertical)

    def test_resample_degenerate(self):
        assert len(resample_polyline([(5, 5)], 1.0)) == 1
        assert len(resample_polyline([(5, 5), (5, 5)], 1.0)) == 1

    def test_resample_rejects_bad_spacing(self):
        with pytest.raises(ValueError):
            resample_polyline([(0, 0), (1, 1)], 0.0)


class TestTruncate:
    def test_truncate_midsegment(self):
        out = truncate_polyline([(0, 0), (10, 0)], budget=4.0)
        np.testing.assert_allclose(out[-1], [4, 0])
        assert polyline_length(out) == pytest.approx(4.0)

    def test_truncate_longer_than_path(self):
        path = [(0, 0), (3, 0), (3, 4)]
        out = truncate_polyline(path, budget=100.0)
        assert polyline_length(out) == pytest.approx(7.0)

    def test_truncate_zero(self):
        out = truncate_polyline([(1, 1), (5, 5)], budget=0.0)
        assert len(out) == 1

    def test_truncate_negative_rejected(self):
        with pytest.raises(ValueError):
            truncate_polyline([(0, 0), (1, 0)], -1.0)


class TestDistances:
    def test_point_to_segment_perpendicular(self):
        d = point_to_polyline_distance((5, 3), [(0, 0), (10, 0)])
        assert d == pytest.approx(3.0)

    def test_point_beyond_segment_end(self):
        d = point_to_polyline_distance((13, 4), [(0, 0), (10, 0)])
        assert d == pytest.approx(5.0)

    def test_point_on_polyline(self):
        d = point_to_polyline_distance((5, 0), [(0, 0), (10, 0)])
        assert d == pytest.approx(0.0)

    def test_polyline_distance_identical_is_zero(self):
        poly = [(0, 0), (10, 0), (10, 10)]
        assert polyline_to_polyline_distance(poly, poly) == pytest.approx(0.0, abs=1e-9)

    def test_polyline_distance_parallel_lines(self):
        a = [(0, 0), (10, 0)]
        b = [(0, 5), (10, 5)]
        assert polyline_to_polyline_distance(a, b) == pytest.approx(5.0)

    def test_polyline_distance_symmetric(self):
        a = [(0, 0), (10, 0)]
        b = [(3, 7), (20, 7)]
        d_ab = polyline_to_polyline_distance(a, b)
        d_ba = polyline_to_polyline_distance(b, a)
        assert d_ab == pytest.approx(d_ba)
