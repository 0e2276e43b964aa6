"""Unit tests for the ray/terrain intersection."""

import hashlib
import multiprocessing
import sys
import threading

import numpy as np
import pytest

import repro.channel.raytrace as raytrace_mod
from repro import _rowblocks
from repro.channel.raytrace import _bucket_steps, obstructed_lengths
from repro.perf import perf
from repro.terrain.heightmap import Terrain


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
            # Batched rays share one sampling density (set by the
            # longest ray), so results agree to sampling tolerance.
            assert batch[i] == pytest.approx(single, abs=1.5)

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
#: 1,200-ray batch makes dozens of (bucket, chunk) work items.
SMALL_CHUNK = 4096


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
        # A process forked after the parent ran the helper thread (as the
        # experiments' process pool does) traces to the same bits.
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
