"""Unit tests for the ray/terrain intersection."""

import hashlib
import multiprocessing
import sys
import threading

import numpy as np
import pytest

import repro.channel.raytrace as raytrace_mod
from repro import _rowblocks
from repro.channel.raytrace import (
    _ENDPOINT_MARGIN,
    _bucket_steps,
    _live_columns,
    obstructed_lengths,
)
from repro.geo import GridSpec
from repro.perf import perf
from repro.terrain.heightmap import Terrain
from tests.link_oracles import obstructed_lengths_full


class TestObstruction:
    def test_clear_ray_over_flat_ground(self, flat_terrain):
        tx = np.array([10.0, 10.0, 50.0])
        rx = np.array([90.0, 90.0, 1.5])
        assert obstructed_lengths(flat_terrain, tx, rx)[0] == pytest.approx(0.0)

    def test_building_blocks_grazing_ray(self, box_terrain):
        # Low ray passing straight through the 20 m building.
        tx = np.array([10.0, 50.0, 5.0])
        rx = np.array([90.0, 50.0, 1.5])
        blocked = obstructed_lengths(box_terrain, tx, rx)[0]
        # Building spans x in [40, 60]: ~20 m horizontal obstruction.
        assert 12.0 < blocked < 28.0

    def test_high_ray_clears_building(self, box_terrain):
        tx = np.array([10.0, 50.0, 80.0])
        rx = np.array([90.0, 50.0, 60.0])
        assert obstructed_lengths(box_terrain, tx, rx)[0] == pytest.approx(0.0)

    def test_vertical_ray_uses_slant_floor(self, box_terrain):
        # Straight down onto the UE through the building: the
        # obstruction is charged at the 15% slant-length floor, not
        # the full 3D depth.
        tx = np.array([50.0, 50.0, 60.0])
        rx = np.array([50.0, 50.0, 1.5])
        blocked = obstructed_lengths(box_terrain, tx, rx)[0]
        assert 0.0 < blocked < 0.2 * 58.5

    def test_batch_matches_single(self, box_terrain):
        txs = np.array(
            [[10.0, 50.0, 5.0], [10.0, 50.0, 80.0], [10.0, 10.0, 40.0]]
        )
        rx = np.array([90.0, 50.0, 1.5])
        batch = obstructed_lengths(box_terrain, txs, rx)
        for i in range(3):
            single = obstructed_lengths(box_terrain, txs[i], rx)[0]
            assert batch[i] == single

    def test_zero_length_ray(self, flat_terrain):
        p = np.array([50.0, 50.0, 10.0])
        assert obstructed_lengths(flat_terrain, p, p)[0] == 0.0

    def test_rejects_bad_step(self, flat_terrain):
        with pytest.raises(ValueError):
            obstructed_lengths(
                flat_terrain, np.zeros(3), np.array([1.0, 1.0, 1.0]), step=0.0
            )

    def test_shape_mismatch_rejected(self, flat_terrain):
        with pytest.raises(ValueError):
            obstructed_lengths(
                flat_terrain, np.zeros((3, 3)), np.zeros((2, 3))
            )


class TestLosAndProfile:
    def test_is_los(self, box_terrain):
        # A link is LOS exactly when no part of its ray is obstructed.
        tx_clear = np.array([10.0, 10.0, 50.0])
        tx_blocked = np.array([10.0, 50.0, 5.0])
        rx = np.array([90.0, 50.0, 1.5])
        assert obstructed_lengths(box_terrain, tx_clear, rx)[0] == 0.0
        assert obstructed_lengths(box_terrain, tx_blocked, rx)[0] > 0.0


#: Chunk budget of the threaded-tracer tests: small enough that a
#: 1,200-ray batch makes dozens of work items.
SMALL_CHUNK = 4096


def _rough_terrain(seed=3):
    """100 m x 100 m at 2 m pitch: 0-5 m clutter under 5-30 m blocks."""
    rng = np.random.default_rng(seed)
    heights = rng.uniform(0.0, 5.0, (50, 50))
    for _ in range(12):
        x, y = rng.integers(0, 45, 2)
        w, h = rng.integers(2, 8, 2)
        heights[y : y + h, x : x + w] = rng.uniform(5.0, 30.0)
    return Terrain(GridSpec(0.0, 0.0, 2.0, 50, 50), heights, name="rough")


def _edge_case_rays(terrain, seed=4):
    """Ascending, descending, level, near-level, zero-length and
    above-ceiling rays, with endpoints inside and outside the grid."""
    rng = np.random.default_rng(seed)
    hmax = terrain.max_height
    n = 300

    def xy():
        return rng.uniform(-40.0, 140.0, (n, 2))

    def rays(z_tx, z_rx):
        return np.column_stack([xy(), z_tx]), np.column_stack([xy(), z_rx])

    low, high = rng.uniform(0.0, 3.0, n), rng.uniform(hmax - 5.0, hmax + 40.0, n)
    level = rng.choice([rng.uniform(0.0, hmax), hmax, hmax + 1.0], n)
    tiny = rng.choice([-1e-13, 1e-13, -1e-9, 1e-9], n)
    parts = [
        rays(high, low),  # descending
        rays(low, high),  # ascending
        rays(level, level),  # level, below / at / above the ceiling
        rays(np.full(n, hmax), np.full(n, hmax) + tiny),  # near-level at the ceiling
        rays(hmax + rng.uniform(0.0, 20.0, n), hmax + rng.uniform(0.0, 20.0, n)),
        rays(np.full(n, hmax + 1e-12), rng.uniform(0.0, hmax, n)),
    ]
    # Rays whose height crosses the ceiling at one of their own samples.
    dz = rng.choice([-1.0, 1.0], n) * rng.uniform(0.5, 60.0, n)
    a = rng.uniform(-40.0, 140.0, (n, 2))
    b = a + rng.uniform(5.0, 150.0, (n, 1)) * np.array([[0.6, 0.8]])
    n_steps = _bucket_steps(np.ceil(np.linalg.norm(np.column_stack([b - a, dz]), axis=1)))
    k = rng.integers(0, n_steps)
    t_k = _ENDPOINT_MARGIN + k * (1.0 - 2 * _ENDPOINT_MARGIN) / (n_steps - 1)
    z0 = hmax - t_k * dz
    parts.append((np.column_stack([a, z0]), np.column_stack([b, z0 + dz])))
    tx = np.concatenate([p[0] for p in parts])
    rx = np.concatenate([p[1] for p in parts])
    rx[::97] = tx[::97]  # zero-length rays
    return tx, rx


class TestLiveColumns:
    """Tracing only each ray's live columns is the full trace, bit for bit."""

    def test_interval_covers_every_column_below_ceiling(self):
        terrain = _rough_terrain()
        hmax = terrain.max_height
        tx, rx = _edge_case_rays(terrain)
        dist = np.linalg.norm(rx - tx, axis=1)
        n_steps = _bucket_steps(np.ceil(dist))
        dz = rx[:, 2] - tx[:, 2]
        lo_all, hi_all = _live_columns(tx[:, 2], dz, hmax, n_steps)
        for b in np.unique(n_steps):
            idx = np.flatnonzero(n_steps == b)
            t = np.linspace(_ENDPOINT_MARGIN, 1.0 - _ENDPOINT_MARGIN, int(b))
            lo, hi = lo_all[idx], hi_all[idx]
            assert ((0 <= lo) & (lo <= hi) & (hi <= b)).all()
            zs = tx[idx, 2][:, None] + t[None, :] * dz[idx][:, None]
            cols = np.arange(int(b))[None, :]
            below = zs < hmax
            inside = (cols >= lo[:, None]) & (cols < hi[:, None])
            assert not (below & ~inside).any()
            # Tight: a steep ray's interval holds at most the one slack
            # column of a sample that lands on the ceiling.
            steep = np.abs(dz[idx]) > 1e-3
            assert ((inside & ~below)[steep].sum(axis=1) <= 1).all()
            # Rays a meter above the ceiling get no column.
            above = np.minimum(tx[idx, 2], rx[idx, 2]) > hmax + 1.0
            assert (hi[above] == lo[above]).all()

    def test_nan_ceiling_has_no_live_columns(self):
        lo, hi = _live_columns(np.array([1.0, 50.0]), np.array([3.0, -40.0]), float("nan"), 64)
        assert (lo == hi).all()

    @pytest.mark.parametrize("cpus", [1, 2], ids=["serial", "helper"])
    def test_matches_full_trace(self, monkeypatch, cpus):
        monkeypatch.setattr(raytrace_mod, "_CHUNK_SAMPLES", SMALL_CHUNK)
        monkeypatch.setattr(_rowblocks, "_cpu_count", lambda: cpus)
        splits = []
        real = raytrace_mod.on_two_threads
        monkeypatch.setattr(
            raytrace_mod, "on_two_threads", lambda *a: splits.append(1) or real(*a)
        )
        terrain = _rough_terrain()
        tx, rx = _edge_case_rays(terrain)
        want, samples = obstructed_lengths_full(terrain, tx, rx)
        before = perf.counters()
        got = obstructed_lengths(terrain, tx, rx)
        counted = perf.counters_since(before)
        np.testing.assert_array_equal(got, want)
        assert (want > 0).sum() > 100 and (want == 0).sum() > 100
        assert counted["raytrace.samples"] == samples
        assert 0 < counted["raytrace.samples_traced"] < samples
        assert len(splits) == (1 if cpus == 2 else 0)

    def test_rays_above_the_ceiling_trace_nothing(self, box_terrain):
        tx = np.array([[10.0, 10.0, 25.0], [-50.0, 30.0, 40.0]])
        rx = np.array([[90.0, 90.0, 21.0], [150.0, 60.0, 20.5]])
        before = perf.counters()
        got = obstructed_lengths(box_terrain, tx, rx)
        counted = perf.counters_since(before)
        np.testing.assert_array_equal(got, [0.0, 0.0])
        assert counted["raytrace.samples"] > 0
        assert "raytrace.samples_traced" not in counted


def _mixed_rays(n=1200, seed=8):
    """Rays of 0-140 m from UAV heights to the ground, across the box."""
    rng = np.random.default_rng(seed)
    tx = np.column_stack(
        [rng.uniform(0, 100, n), rng.uniform(0, 100, n), rng.uniform(2, 60, n)]
    )
    rx = np.column_stack([rng.uniform(0, 100, n), rng.uniform(0, 100, n), np.full(n, 1.5)])
    return tx, rx


def _digest(a: np.ndarray) -> str:
    return hashlib.sha256(a.tobytes()).hexdigest()


class TestThreadedTracer:
    """Two threads trace a batch to the serial bits and counters."""

    @pytest.fixture()
    def rays(self, box_terrain, monkeypatch):
        monkeypatch.setattr(raytrace_mod, "_CHUNK_SAMPLES", SMALL_CHUNK)
        tx, rx = _mixed_rays()
        buckets = _bucket_steps(np.ceil(np.linalg.norm(rx - tx, axis=1)))
        assert len(np.unique(buckets)) >= 5
        assert int(buckets.sum()) > 4 * SMALL_CHUNK
        singles = np.array(
            [obstructed_lengths(box_terrain, a, b)[0] for a, b in zip(tx, rx)]
        )
        assert (singles > 0).any() and (singles == 0).any()
        return tx, rx, singles

    @pytest.fixture()
    def threaded(self, monkeypatch):
        """Force the helper on and record every split the tracer makes."""
        monkeypatch.setattr(_rowblocks, "_cpu_count", lambda: 2)
        splits = []
        real = raytrace_mod.on_two_threads

        def spy(here, there):
            splits.append(threading.current_thread().name)
            return real(here, there)

        monkeypatch.setattr(raytrace_mod, "on_two_threads", spy)
        return splits

    @pytest.mark.parametrize("cpus", [1, 2], ids=["serial", "helper"])
    def test_matches_single_rays_and_counters(
        self, box_terrain, rays, threaded, monkeypatch, cpus
    ):
        tx, rx, singles = rays
        monkeypatch.setattr(_rowblocks, "_cpu_count", lambda: 1)
        before = perf.counters()
        serial = obstructed_lengths(box_terrain, tx, rx)
        want = perf.counters_since(before)
        monkeypatch.setattr(_rowblocks, "_cpu_count", lambda: cpus)
        before = perf.counters()
        got = obstructed_lengths(box_terrain, tx, rx)
        counted = perf.counters_since(before)
        np.testing.assert_array_equal(serial, singles)
        np.testing.assert_array_equal(got, singles)
        assert {k: v for k, v in counted.items() if k.startswith("raytrace.")} == {
            k: v for k, v in want.items() if k.startswith("raytrace.")
        }
        assert want["raytrace.samples_traced"] > 0
        assert threaded == (["MainThread"] if cpus == 2 else [])

    def test_small_batch_stays_serial(self, box_terrain, threaded):
        tx, rx = _mixed_rays(n=20)
        obstructed_lengths(box_terrain, tx, rx)
        assert threaded == []

    def test_helper_exception_reaches_caller(self, box_terrain, rays, threaded, monkeypatch):
        tx, rx, _ = rays
        real = Terrain.heights_at_xy

        def fails_off_caller(self, xs, ys):
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError("helper failed")
            return real(self, xs, ys)

        monkeypatch.setattr(Terrain, "heights_at_xy", fails_off_caller)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="helper failed"):
            obstructed_lengths(box_terrain, tx, rx)
        assert threaded == ["MainThread"]
        assert threading.active_count() == before

    def test_concurrent_calls_under_fast_thread_switching(self, box_terrain, rays, threaded):
        # Four callers at once, each with its own helper, switching
        # often enough to interleave every work item: each call still
        # returns the single-ray bits.
        tx, rx, singles = rays
        got = [None] * 4

        def call(i):
            got[i] = _digest(obstructed_lengths(box_terrain, tx, rx))

        threads = [threading.Thread(target=call, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == [_digest(singles)] * 4
        assert len(threaded) == 4

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork"
    )
    def test_fork_child_after_threaded_call(self, box_terrain, rays, threaded):
        # A process forked after the parent ran the helper thread
        # traces to the same bits.
        tx, rx, singles = rays
        parent = _digest(obstructed_lengths(box_terrain, tx, rx))
        assert threaded and parent == _digest(singles)
        ctx = multiprocessing.get_context("fork")
        reader, writer = ctx.Pipe(duplex=False)

        def child():
            writer.send(_digest(obstructed_lengths(box_terrain, tx, rx)))

        proc = ctx.Process(target=child)
        proc.start()
        try:
            assert reader.poll(120), "forked child produced no result"
            assert reader.recv() == parent
        finally:
            proc.join(30)
        assert proc.exitcode == 0


def _bundle_terrain():
    """200 m x 200 m at 2 m pitch: 0-3 m clutter, a 35 m box halfway
    along the flight path and 30/28 m spikes on and beside the UE."""
    rng = np.random.default_rng(11)
    heights = rng.uniform(0.0, 3.0, (100, 100))
    heights[50:57, 48:55] = 35.0
    heights[75, 75] = 30.0  # the UE's own cell
    heights[74, 75] = 28.0  # its neighbour to the south
    return Terrain(GridSpec(0.0, 0.0, 2.0, 100, 100), heights, name="bundles")


#: The UE of the flight-like cases, in cell (75, 75) under its spike.
UE = np.array([151.1, 150.7, 1.5])


def _path(a, b, z, spacing=0.1):
    """UAV positions ``spacing`` meters apart from ``a`` to ``b`` at height ``z``."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    n = int(np.linalg.norm(b - a) / spacing) + 1
    xy = a + np.linspace(0.0, 1.0, n)[:, None] * (b - a)
    return np.column_stack([xy, np.broadcast_to(z, n)])


def _runs(*runs):
    """One batch of ``(tx, rx)`` runs: every ray of a run shares its receiver."""
    tx = np.concatenate([np.asarray(t, dtype=float) for t, _ in runs])
    rx = np.concatenate([np.repeat(np.asarray(r, dtype=float)[None, :], len(t), axis=0) for t, r in runs])
    return tx, rx


def _bundle_cases():
    hmax = _bundle_terrain().max_height
    rng = np.random.default_rng(5)
    jitter = _path((30.0, 40.0), (60.0, 80.0), 45.0, spacing=0.25)
    jitter[:, :2] += rng.uniform(-3.0, 3.0, (len(jitter), 2))
    jitter[:, 2] += rng.uniform(-5.0, 5.0, len(jitter))
    with_ue = _path((140.0, 140.0), (160.0, 160.0), 12.0, spacing=0.2)
    with_ue[len(with_ue) // 2] = UE
    return {
        # Over the box toward the UE, as a measurement flight does.
        "flight": _runs((np.concatenate([_path((20.0, 30.0), (90.0, 110.0), 60.0), _path((90.0, 110.0), (150.0, 60.0), 60.0)]), UE)),
        "flight_jittered": _runs((jitter, UE)),
        "uav_below_max_height": _runs((_path((60.0, 20.0), (120.0, 60.0), hmax - 12.0), UE)),
        "level": _runs((_path((100.0, 140.0), (140.0, 100.0), 2.5), (150.0, 40.0, 2.5))),
        "ascending": _runs((_path((30.0, 120.0), (70.0, 180.0), 2.0), (96.0, 96.0, 40.0))),
        "off_grid": _runs((_path((-40.0, -30.0), (10.0, -60.0), 30.0), UE), (_path((150.0, 190.0), (250.0, 230.0), 20.0), (120.0, 180.0, 1.5))),
        "edge_cells": _runs(
            (_path((50.0, 60.0), (80.0, 90.0), 40.0), (199.99, 0.0, 1.5)),
            (_path((100.0, 100.0), (130.0, 60.0), 40.0), (0.0, 199.99, 1.5)),
        ),
        "zero_length": _runs((with_ue, UE)),
        "short_runs": _runs(
            (_path((20.0, 30.0), (20.4, 30.0), 60.0), UE),
            (_path((90.0, 20.0), (90.0, 20.0), 35.0), (92.0, 95.0, 1.5)),
            (_path((10.0, 190.0), (11.0, 190.0), 50.0, spacing=0.5), (180.0, 20.0, 1.5)),
        ),
        # One ray per 8 m map cell along a row: 4 cells apart, a bundle
        # spans 256 cells, so it keeps the global ceiling.
        "map_like": _runs(*[(_path((0.0, y), (196.0, y), 25.0, spacing=8.0), UE) for y in (20.0, 92.0)]),
    }


class TestBundleBound:
    """The bundle bound narrows each ray's interval and moves no bit."""

    @pytest.mark.parametrize("cpus", [1, 2], ids=["serial", "helper"])
    @pytest.mark.parametrize("case", sorted(_bundle_cases()))
    def test_matches_full_trace(self, monkeypatch, case, cpus):
        monkeypatch.setattr(raytrace_mod, "_CHUNK_SAMPLES", SMALL_CHUNK)
        monkeypatch.setattr(_rowblocks, "_cpu_count", lambda: cpus)
        terrain = _bundle_terrain()
        tx, rx = _bundle_cases()[case]
        want, samples = obstructed_lengths_full(terrain, tx, rx)
        before = perf.counters()
        got = obstructed_lengths(terrain, tx, rx)
        counted = perf.counters_since(before)
        np.testing.assert_array_equal(got, want)
        assert counted["raytrace.samples"] == samples
        bound = counted.get("raytrace.bound_samples", 0)
        assert counted.get("raytrace.samples_traced", 0) >= bound
        if case == "map_like":
            assert bound == 0
        elif case != "zero_length":
            assert bound > 0

    def test_cases_block_and_clear(self):
        terrain = _bundle_terrain()
        for case in ("flight", "uav_below_max_height", "short_runs"):
            want, _ = obstructed_lengths_full(terrain, *_bundle_cases()[case])
            assert (want > 0).any() and (want == 0).any(), case

    def test_all_cases_in_one_batch(self, monkeypatch):
        monkeypatch.setattr(raytrace_mod, "_CHUNK_SAMPLES", SMALL_CHUNK)
        terrain = _bundle_terrain()
        cases = _bundle_cases()
        tx = np.concatenate([cases[c][0] for c in sorted(cases)])
        rx = np.concatenate([cases[c][1] for c in sorted(cases)])
        want, _ = obstructed_lengths_full(terrain, tx, rx)
        np.testing.assert_array_equal(obstructed_lengths(terrain, tx, rx), want)

    def test_random_bundles(self):
        # Receivers shared by runs of 1-150 rays whose transmitters wander
        # up to 10 m around a walk: any spread, any order.
        terrain = _rough_terrain(seed=7)
        rng = np.random.default_rng(21)
        runs = []
        for _ in range(40):
            k = int(rng.integers(1, 150))
            walk = rng.uniform(-20.0, 120.0, 2) + np.cumsum(rng.normal(0.0, 0.3, (k, 2)), axis=0)
            xy = walk + rng.uniform(-10.0, 10.0, (k, 2)) * rng.uniform(0.0, 1.0)
            z = rng.uniform(0.0, 60.0) + rng.uniform(-3.0, 3.0, k)
            ue = np.append(rng.uniform(-10.0, 110.0, 2), rng.uniform(0.5, 40.0))
            runs.append((np.column_stack([xy, z]), ue))
        tx, rx = _runs(*runs)
        want, _ = obstructed_lengths_full(terrain, tx, rx)
        before = perf.counters()
        np.testing.assert_array_equal(obstructed_lengths(terrain, tx, rx), want)
        assert perf.counters_since(before)["raytrace.bound_samples"] > 0
        assert (want > 0).sum() > 100

    def test_bound_reads_fewer_samples_than_the_ceiling(self, monkeypatch):
        # A flight leg clear of the box: only the samples by the UE can
        # be blocked, while the 35 m box keeps half of every ray under
        # the global ceiling.
        terrain = _bundle_terrain()
        tx, rx = _runs((_path((160.0, 20.0), (190.0, 70.0), 60.0), UE))

        def traced():
            before = perf.counters()
            got = obstructed_lengths(terrain, tx, rx)
            return got, perf.counters_since(before)

        bounded, with_bound = traced()
        monkeypatch.setattr(raytrace_mod, "_MIN_BUNDLE", len(tx) + 1)
        ceiling, ceiling_only = traced()
        np.testing.assert_array_equal(bounded, ceiling)
        assert "raytrace.bound_samples" not in ceiling_only
        assert 0 < with_bound["raytrace.bound_samples"] < with_bound["raytrace.samples_traced"]
        assert with_bound["raytrace.samples_traced"] < ceiling_only["raytrace.samples_traced"] / 2
