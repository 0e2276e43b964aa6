"""Batched SRS/ToF localization kernels vs. their one-at-a-time oracles.

Each batched kernel of paper Steps 1-4 must be *bit-identical* to the
plain loop in :mod:`tests.localization_oracles` under the documented
RNG draw schedule; these tests hold them to it, end to end: channel,
Eq. 1-3 estimator, flight collection (including fault injection and
quality gating), ToF-to-GPS aggregation, MAD filtering, and the joint
solve's residuals, with its analytic Jacobian checked against central
differences.
"""

import hashlib
import multiprocessing
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultInjector, FaultPlan
from repro.flight.sampler import collect_gps_ranges
from repro.flight.uav import UAV
from repro.localization.joint import _joint_model, _stack_observations
from repro.localization.ranging import GpsRange, aggregate_tof_to_gps, mad_filter
from repro import _rowblocks
from repro.lte import tof as tof_module
from repro.lte.srs import (
    _SRS_SYMBOL_CACHE,
    SRSConfig,
    _largest_prime_at_most,
    apply_channel_batch,
    make_srs_symbol,
    pack_taps,
)
from repro.lte.tof import ToFEstimator, correlation_quality_batch, estimate_delays_batch
from repro.perf import perf
from repro.sim.scenario import Scenario
from repro.trajectory.random_flight import random_flight
from tests import localization_oracles as oracle

pytestmark = pytest.mark.localization

CFG = SRSConfig()

# A representative mix of per-symbol channels: LOS (single weak tap),
# NLOS (two strong excess-delay taps), and a clean no-multipath row.
TAP_SETS = [
    [(0.1, -9.0)],
    [(0.5, -3.0), (1.2, -6.0)],
    [],
    [(0.3, -4.0), (2.0, -8.0)],
    [],
    [(0.1, -9.0)],
]
DELAYS = np.array([20.4, 33.1, 5.0, 47.9, 12.25, 28.0])
SNRS = np.array([18.0, 6.0, 25.0, 3.5, 15.0, 10.0])


def _batch_vs_loop(symbol, delays, snrs, tap_sets, seed=3):
    """Run the batch kernel and the per-symbol oracle off twin RNGs."""
    excess, power, mask = pack_taps(tap_sets)
    rng_a = np.random.default_rng(seed)
    rng_b = np.random.default_rng(seed)
    batched = apply_channel_batch(symbol, CFG, delays, snrs, rng_a, excess, power, mask)
    looped = np.stack(
        [
            oracle.apply_channel(symbol, CFG, d, s, rng_b, taps)
            for d, s, taps in zip(delays, snrs, tap_sets)
        ]
    )
    return batched, looped, rng_a, rng_b


class TestChannelBatch:
    def test_bit_identical_to_loop(self):
        symbol = make_srs_symbol(CFG)
        batched, looped, rng_a, rng_b = _batch_vs_loop(symbol, DELAYS, SNRS, TAP_SETS)
        assert np.array_equal(batched, looped)
        # Same draw count: the generators end in the same state, so a
        # caller interleaving other draws stays reproducible.
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_no_taps_bit_identical(self):
        symbol = make_srs_symbol(CFG)
        rng_a = np.random.default_rng(11)
        rng_b = np.random.default_rng(11)
        batched = apply_channel_batch(symbol, CFG, DELAYS, SNRS, rng_a)
        looped = np.stack(
            [oracle.apply_channel(symbol, CFG, d, s, rng_b) for d, s in zip(DELAYS, SNRS)]
        )
        assert np.array_equal(batched, looped)

    def test_dropped_symbols_consume_no_draws(self):
        # Fault-dropping symbol i from the batch must reproduce the
        # loop that never receives symbol i.
        symbol = make_srs_symbol(CFG)
        keep = np.array([True, False, True, True, False, True])
        kept_taps = [t for t, k in zip(TAP_SETS, keep) if k]
        batched, looped, _, _ = _batch_vs_loop(
            symbol, DELAYS[keep], SNRS[keep], kept_taps, seed=5
        )
        assert np.array_equal(batched, looped)

    def test_left_pack_enforced(self):
        symbol = make_srs_symbol(CFG)
        mask = np.array([[False, True]])  # active tap not left-packed
        with pytest.raises(ValueError, match="left-packed"):
            apply_channel_batch(
                symbol,
                CFG,
                np.array([10.0]),
                np.array([10.0]),
                np.random.default_rng(0),
                np.zeros((1, 2)),
                np.zeros((1, 2)),
                mask,
            )


class TestEstimatorBatch:
    def test_bit_identical_to_scalar(self):
        symbol = make_srs_symbol(CFG)
        batched_rx, _, _, _ = _batch_vs_loop(symbol, DELAYS, SNRS, TAP_SETS, seed=9)
        delays, qualities = estimate_delays_batch(batched_rx, symbol, 4)
        for i, row in enumerate(batched_rx):
            d, q = oracle.estimate_delay_and_quality(row, symbol, 4)
            assert delays[i] == d
            assert qualities[i] == q

    def test_empty_batch(self):
        symbol = make_srs_symbol(CFG)
        delays, qualities = estimate_delays_batch(np.zeros((0, CFG.n_fft)), symbol)
        assert delays.shape == (0,) and qualities.shape == (0,)

    def test_shape_validation(self):
        symbol = make_srs_symbol(CFG)
        with pytest.raises(ValueError):
            estimate_delays_batch(np.zeros((2, 7), dtype=complex), symbol)
        with pytest.raises(ValueError):
            estimate_delays_batch(
                np.zeros((2, CFG.n_fft), dtype=complex), symbol, upsampling=0
            )


#: A flight-sized batch: mixed LOS / NLOS / no-tap rows, long enough to
#: run many row blocks, a partial tail block and (on two CPUs) a helper.
N_LARGE = 1000


@pytest.fixture(scope="module")
def large_case():
    """A ~1,000-row batch and its per-symbol oracle results."""
    rng = np.random.default_rng(2024)
    delays = rng.uniform(2.0, 60.0, N_LARGE)
    snrs = rng.uniform(-5.0, 30.0, N_LARGE)
    kinds = [[(0.1, -9.0)], [(0.5, -3.0), (1.2, -6.0)], []]
    tap_sets = [kinds[k] for k in rng.integers(0, 3, N_LARGE)]
    symbol = make_srs_symbol(CFG)
    rng_b = np.random.default_rng(17)
    rx = np.stack(
        [
            oracle.apply_channel(symbol, CFG, d, s, rng_b, taps)
            for d, s, taps in zip(delays, snrs, tap_sets)
        ]
    )
    est = [oracle.estimate_delay_and_quality(row, symbol, 4) for row in rx]
    return {
        "args": (symbol, CFG, delays, snrs) + pack_taps(tap_sets),
        "rx": rx,
        "state": rng_b.bit_generator.state,
        "delays": np.array([d for d, _ in est]),
        "qualities": np.array([q for _, q in est]),
    }


def _run_kernels(case):
    """Both kernels on the large case, from a fresh generator."""
    symbol, cfg, delays, snrs, excess, power, mask = case["args"]
    rng = np.random.default_rng(17)
    rx = apply_channel_batch(symbol, cfg, delays, snrs, rng, excess, power, mask)
    d_q, q = estimate_delays_batch(rx, symbol, 4, quality=True)
    d, no_q = estimate_delays_batch(rx, symbol, 4, quality=False)
    assert no_q is None
    return rx, rng.bit_generator.state, d_q, q, d


def _digest(outputs) -> str:
    rx, state, d_q, q, d = outputs
    h = hashlib.sha256(repr(state).encode())
    for a in (rx, d_q, q, d):
        h.update(a.tobytes())
    return h.hexdigest()


@pytest.fixture(params=[1, 2], ids=["serial", "helper"])
def cpus(request, monkeypatch):
    """Force the kernels' helper thread off (1 CPU) or on (2 CPUs)."""
    monkeypatch.setattr(_rowblocks, "_cpu_count", lambda: request.param)
    assert _rowblocks.use_helper(N_LARGE) == (request.param == 2)
    return request.param


class TestLargeBatch:
    def test_bit_identical_to_loop(self, large_case, cpus):
        # Serial and helper runs both match the oracle, hence each other.
        rx, state, d_q, q, d = _run_kernels(large_case)
        assert np.array_equal(rx, large_case["rx"])
        assert state == large_case["state"]
        assert np.array_equal(d_q, large_case["delays"])
        assert np.array_equal(d, large_case["delays"])
        assert np.array_equal(q, large_case["qualities"])

    def test_helper_exception_reaches_caller(self, large_case, monkeypatch):
        monkeypatch.setattr(_rowblocks, "_cpu_count", lambda: 2)
        real = tof_module.correlation_quality_batch

        def fails_off_main_thread(*args):
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError("helper failed")
            return real(*args)

        monkeypatch.setattr(tof_module, "correlation_quality_batch", fails_off_main_thread)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="helper failed"):
            estimate_delays_batch(large_case["rx"], large_case["args"][0], 4)
        with pytest.raises(ZeroDivisionError):
            _rowblocks.pipeline(N_LARGE, lambda lo, hi: None, lambda lo, hi: 1 / (lo - 64))
        assert threading.active_count() == before

    def test_concurrent_calls_under_fast_thread_switching(self, large_case, monkeypatch):
        # Four callers at once, each with its own helper (eight threads
        # on however many CPUs), switching often enough to interleave
        # every block handoff: each call still returns the oracle's bits.
        monkeypatch.setattr(_rowblocks, "_cpu_count", lambda: 2)
        want = _digest(
            (
                large_case["rx"],
                large_case["state"],
                large_case["delays"],
                large_case["qualities"],
                large_case["delays"],
            )
        )
        got = [None] * 4

        def call(i):
            got[i] = _digest(_run_kernels(large_case))

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
        assert got == [want] * 4

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork"
    )
    def test_fork_child_after_threaded_call(self, large_case, monkeypatch):
        # A process forked after the parent ran the helper thread (as the
        # experiments' process pool does) runs the kernels to the same bits.
        monkeypatch.setattr(_rowblocks, "_cpu_count", lambda: 2)
        parent = _digest(_run_kernels(large_case))
        ctx = multiprocessing.get_context("fork")
        reader, writer = ctx.Pipe(duplex=False)

        def child():
            writer.send(_digest(_run_kernels(large_case)))

        proc = ctx.Process(target=child)
        proc.start()
        try:
            assert reader.poll(120), "forked child produced no result"
            assert reader.recv() == parent
        finally:
            proc.join(30)
        assert proc.exitcode == 0


def _quality(mag, peak, guard=None):
    """The production quality of one profile, as a one-row batch."""
    return float(correlation_quality_batch(mag[None, :], np.array([peak]), guard)[0])


class TestCorrelationQuality:
    def test_sharp_peak_guard_excludes_main_lobe(self):
        # A sinc-like peak whose main lobe spans several bins: without
        # the guard the lobe shoulders would inflate the background
        # median and depress the ratio.
        total = 4096
        mag = np.full(total, 0.01)
        peak = 137
        lobe = np.array([0.2, 0.6, 1.0, 0.6, 0.2])
        mag[peak - 2 : peak + 3] = lobe
        q = _quality(mag, peak)
        assert q == pytest.approx(1.0 / 0.01)
        # Shrinking the guard to zero leaves the shoulders in the
        # background window; the ratio must not *increase*.
        assert _quality(mag, peak, guard=0) <= q

    def test_flat_profile_near_one(self):
        mag = np.full(1024, 0.5)
        assert _quality(mag, 10) == pytest.approx(1.0)

    @pytest.mark.parametrize("total", [4096, 4095], ids=["odd-L", "even-L"])
    def test_batch_matches_median_oracle(self, total):
        # 4096 bins (the paper's numerology) leave an odd background
        # count, 4095 an even one (np.median's mean of the middle pair).
        rng = np.random.default_rng(total)
        mag = np.abs(rng.normal(size=(150, total)) + 1j * rng.normal(size=(150, total)))
        mag[:10] = np.round(mag[:10], 1)  # ties at the median
        peaks = np.argmax(mag, axis=1)
        peaks[:20] = rng.integers(0, total, 20)  # guard windows that wrap
        peaks[20:22] = [0, total - 1]
        got = correlation_quality_batch(mag, peaks)
        want = [oracle.correlation_quality(row, p) for row, p in zip(mag, peaks)]
        np.testing.assert_array_equal(got, want)

    def test_wraps_circularly(self):
        mag = np.full(1024, 0.01)
        mag[0] = 1.0  # peak at the wrap point
        mag[-1] = mag[1] = 0.5  # lobe shoulders straddle the boundary
        q = _quality(mag, 0, guard=1)
        assert q == pytest.approx(1.0 / 0.01)


class TestSRSSymbolCache:
    def test_memoized_per_config_and_root(self):
        perf.reset()
        a = make_srs_symbol(CFG, 25)
        hits0 = perf.counters().get("srs.symbol_cache.hit", 0)
        b = make_srs_symbol(CFG, 25)
        assert b is a  # shared array, not a copy
        assert perf.counters().get("srs.symbol_cache.hit", 0) == hits0 + 1
        assert not a.flags.writeable
        with pytest.raises((ValueError, RuntimeError)):
            a[0] = 0
        assert make_srs_symbol(CFG, 29) is not a
        # A fresh synthesis (cache dropped) has the same values.
        _SRS_SYMBOL_CACHE.pop((CFG, 25))
        fresh = make_srs_symbol(CFG, 25)
        assert fresh is not a and np.array_equal(fresh, a)

    def test_prime_search_cached(self):
        _largest_prime_at_most.cache_clear()
        assert _largest_prime_at_most(CFG.n_subcarriers) == 571
        info = _largest_prime_at_most.cache_info()
        assert info.misses == 1
        _largest_prime_at_most(CFG.n_subcarriers)
        assert _largest_prime_at_most.cache_info().hits == info.hits + 1


@pytest.fixture(scope="module")
def campus_flight():
    scenario = Scenario.create("campus", n_ues=5, seed=0)
    grid = scenario.grid
    start = np.array(
        [grid.origin_x + grid.width / 2, grid.origin_y + grid.height / 2]
    )
    fly_rng = np.random.default_rng(0)
    uav = UAV(position=np.array([start[0], start[1], 100.0]), speed_mps=3.0)
    traj = random_flight(grid, start, 20.0, 100.0, fly_rng)
    log = uav.fly(traj, fly_rng)
    estimator = ToFEstimator(scenario.enodeb.srs_config, 4)
    margin = 20.0
    bounds = (
        (grid.origin_x - margin, grid.max_x + margin),
        (grid.origin_y - margin, grid.max_y + margin),
    )
    return scenario, log, estimator, bounds


def _obs_equal(a, b):
    return len(a) == len(b) and all(
        x.range_m == y.range_m
        and x.t_s == y.t_s
        and np.array_equal(x.gps_xyz, y.gps_xyz)
        for x, y in zip(a, b)
    )


class TestCollectEquivalence:
    def _compare(self, campus_flight, **kw):
        scenario, log, estimator, _ = campus_flight
        ref_kw = dict(kw)
        if "faults" in kw:
            # Fresh injectors with the same plan: the injector draws
            # from its own streams, so each side must start cold.
            plan = kw["faults"]
            kw = dict(kw, faults=FaultInjector(plan))
            ref_kw = dict(ref_kw, faults=FaultInjector(plan))
        for ue in scenario.ues[:2]:
            a = collect_gps_ranges(
                log,
                ue,
                scenario.channel,
                scenario.enodeb,
                estimator,
                np.random.default_rng(1),
                **kw,
            )
            b = oracle.collect_gps_ranges(
                log,
                ue,
                scenario.channel,
                scenario.enodeb,
                estimator,
                np.random.default_rng(1),
                **ref_kw,
            )
            assert _obs_equal(a, b)
            assert len(a) > 0

    def test_plain(self, campus_flight):
        self._compare(campus_flight)

    def test_quality_gated(self, campus_flight):
        # Campus receptions score ~370-420; a 405 floor rejects a share
        # of them, so the gate's bookkeeping is compared too.
        perf.reset()
        self._compare(campus_flight, min_quality=405.0)
        assert perf.counters().get("fallback.srs_quality_reject", 0) > 0

    def test_faulted(self, campus_flight):
        self._compare(
            campus_flight,
            faults=FaultPlan(seed=7, srs_drop_rate=0.1, tof_outlier_rate=0.05),
        )


def _central_jacobian(residuals, theta, h=1e-6):
    cols = []
    for j in range(len(theta)):
        step = np.zeros_like(theta)
        step[j] = h
        cols.append((residuals(theta + step) - residuals(theta - step)) / (2 * h))
    return np.column_stack(cols)


class TestJointSolver:
    @pytest.fixture()
    def campus_data(self, campus_flight):
        scenario, log, estimator, _ = campus_flight
        data = {}
        for ue in scenario.ues:
            o = mad_filter(
                collect_gps_ranges(
                    log,
                    ue,
                    scenario.channel,
                    scenario.enodeb,
                    estimator,
                    np.random.default_rng(1),
                )
            )
            if len(o) >= 3:
                data[ue.ue_id] = _stack_observations(o)
        assert len(data) >= 3
        return data

    @staticmethod
    def _thetas(data, rng, n=4):
        """Parameter vectors scattered around each UE's anchor centroid."""
        centre = np.concatenate([data[u][0][:, :2].mean(axis=0) for u in sorted(data)])
        return [
            np.append(centre + rng.normal(0.0, 40.0, len(centre)), rng.uniform(100, 180))
            for _ in range(n)
        ]

    def test_analytic_matches_finite_difference(self, campus_data, rng):
        # The analytic Jacobian of the joint residuals (with and without
        # an offset-prior row) against central differences on a real
        # campus flight.
        for prior_w in (0.0, 4.0):
            residuals, jac = _joint_model(campus_data, 1.5, 137.0, prior_w)
            for theta in self._thetas(campus_data, rng):
                np.testing.assert_allclose(
                    jac(theta), _central_jacobian(residuals, theta), rtol=0, atol=1e-6
                )

    def test_reference_model_matches_vectorized(self, campus_data, rng):
        # The flat residual pass is bit-identical to the per-UE loop.
        for prior_w in (0.0, 4.0):
            residuals, _ = _joint_model(campus_data, 1.5, 137.0, prior_w)
            for theta in self._thetas(campus_data, rng):
                want = oracle.joint_residuals(campus_data, theta, 1.5, 137.0, prior_w)
                assert np.array_equal(residuals(theta), want)

    def test_single_ue_jac_modes_agree(self, rng):
        ue = np.array([30.0, -20.0, 1.5])
        data = {7: _stack_observations(_circle_obs(ue, 100.0, 60, 50.0, 137.0, 0.0, rng))}
        residuals, jac = _joint_model(data, 1.5, 0.0, 0.0)
        for theta in self._thetas(data, rng):
            assert np.array_equal(
                residuals(theta), oracle.joint_residuals(data, theta, 1.5, 0.0, 0.0)
            )
            np.testing.assert_allclose(
                jac(theta), _central_jacobian(residuals, theta), rtol=0, atol=1e-6
            )


def _circle_obs(ue, radius, n, alt, offset, noise, rng):
    angles = np.linspace(0, 2 * np.pi, n, endpoint=False)
    anchors = np.column_stack(
        [
            ue[0] + radius * np.cos(angles),
            ue[1] + radius * np.sin(angles),
            np.full(n, alt),
        ]
    )
    d = np.linalg.norm(anchors - ue, axis=1)
    r = d + offset + rng.normal(0, noise, n)
    return [GpsRange(a, float(ri), float(i)) for i, (a, ri) in enumerate(zip(anchors, r))]


ranges_lists = st.lists(
    st.floats(min_value=0.0, max_value=1e3, allow_nan=False), min_size=0, max_size=40
)


class TestAggregationProperties:
    @given(
        st.lists(st.floats(0.0, 100.0, allow_nan=False), min_size=0, max_size=25),
        st.lists(st.floats(-5.0, 105.0, allow_nan=False), min_size=0, max_size=60),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_vectorized_aggregate_matches_loop(self, gps_t, tof_t, pyrandom):
        gps_t = sorted(gps_t)
        gps_xyz = np.array(
            [[pyrandom.uniform(-50, 50) for _ in range(3)] for _ in gps_t]
        ).reshape(len(gps_t), 3)
        ranges = [pyrandom.uniform(50.0, 500.0) for _ in tof_t]
        fast = aggregate_tof_to_gps(gps_t, gps_xyz, tof_t, ranges)
        slow = oracle.aggregate_tof_to_gps(gps_t, gps_xyz, tof_t, ranges)
        assert _obs_equal(fast, slow)

    @given(ranges_lists, st.integers(0, 2**31 - 1), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_vectorized_mad_filter_matches_loop(self, base, seed, noisy):
        if noisy:
            noise = np.random.default_rng(seed).normal(0, 1.0, len(base))
        else:
            # Coarse steps and no noise: tied ranges, so the MAD is often
            # zero and the scale floor decides.
            base = [100.0 * round(r / 250.0) for r in base]
            noise = np.zeros(len(base))
        obs = [
            GpsRange(np.array([float(i), 0.0, 50.0]), float(r + dn), float(i))
            for i, (r, dn) in enumerate(zip(base, noise))
        ]
        fast = mad_filter(obs)
        slow = oracle.mad_filter(obs)
        assert _obs_equal(fast, slow)

    def test_dense_windows_match_loop(self):
        # Windows of 8+ reports, where a sequential sum and NumPy's
        # pairwise mean round differently.
        rng = np.random.default_rng(4)
        gps_t = np.array([0.0, 1.0, 2.5])
        gps_xyz = rng.uniform(-50, 50, (3, 3))
        tof_t = np.sort(rng.uniform(0.0, 4.0, 90))
        ranges = rng.uniform(50.0, 500.0, 90)
        fast = aggregate_tof_to_gps(gps_t, gps_xyz, tof_t, ranges)
        slow = oracle.aggregate_tof_to_gps(gps_t, gps_xyz, tof_t, ranges)
        assert _obs_equal(fast, slow)

    def test_aggregate_rejects_non_monotone_times(self):
        xyz = np.zeros((2, 3))
        for fn in (aggregate_tof_to_gps, oracle.aggregate_tof_to_gps):
            with pytest.raises(ValueError, match="non-decreasing"):
                fn([1.0, 0.0], xyz, [0.5], [10.0])
