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
from repro.localization._trf import _normal_decomposition, _solve_lsq_trust_region
from repro.localization.joint import _joint_model, _stack_observations, solve_joint_multilateration
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
        # The oracle's dense analytic Jacobian of the joint residuals
        # (with and without an offset-prior row) against central
        # differences on a real campus flight.
        for prior_w in (0.0, 4.0):
            residuals, jac = oracle.joint_model(campus_data, 1.5, 137.0, prior_w)
            for theta in self._thetas(campus_data, rng):
                np.testing.assert_allclose(
                    jac(theta), _central_jacobian(residuals, theta), rtol=0, atol=1e-6
                )

    @staticmethod
    def _assert_structured_matches_dense(data, theta, prior_w, rng):
        # The solver's structured Jacobian, scaled by row weights (the
        # Huber reweighting) and column scales (the Coleman-Li ``d``),
        # against the dense products: J_h p, J_h^T f and J_h^T J_h.
        residuals, jac = _joint_model(data, 1.5, 137.0, prior_w)
        _, dense_jac = oracle.joint_model(data, 1.5, 137.0, prior_w)
        f = residuals(theta)
        w = rng.uniform(1e-4, 1.0, len(f))
        d = rng.uniform(0.1, 2.0, len(theta))
        J = jac(theta).scale_rows(w)
        Jh = dense_jac(theta) * w[:, None] * d[None, :]
        g, gram = J.normal(f)
        np.testing.assert_allclose(d * g, Jh.T @ f, rtol=0, atol=1e-9)
        np.testing.assert_allclose(gram * np.outer(d, d), Jh.T @ Jh, rtol=0, atol=1e-9)
        p = rng.normal(size=len(theta))
        np.testing.assert_allclose(J.matvec(d * p), Jh @ p, rtol=0, atol=1e-9)

    def test_structured_normal_matches_dense(self, campus_data, rng):
        for prior_w in (0.0, 4.0):
            for theta in self._thetas(campus_data, rng):
                self._assert_structured_matches_dense(campus_data, theta, prior_w, rng)

    def test_normal_decomposition_steps_like_svd(self, campus_data, rng):
        # (s, V, uf) from eigh of the normal matrix give the trust-region
        # steps the SVD of the dense augmented Jacobian gives.
        residuals, jac = _joint_model(campus_data, 1.5, 137.0, 4.0)
        _, dense_jac = oracle.joint_model(campus_data, 1.5, 137.0, 4.0)
        for theta in self._thetas(campus_data, rng, n=2):
            f = residuals(theta)
            n, m = len(theta), len(f)
            g, gram = jac(theta).normal(f)
            d = rng.uniform(0.5, 1.5, n)
            diag_h = np.where(rng.random(n) < 0.5, rng.uniform(0.0, 2.0, n), 0.0)
            s, V, uf = _normal_decomposition(gram, d, diag_h, d * g)
            aug = np.vstack([dense_jac(theta) * d, np.diag(diag_h**0.5)])
            U2, s2, VT2 = np.linalg.svd(aug, full_matrices=False)
            uf2 = U2.T @ np.append(f, np.zeros(n))
            np.testing.assert_allclose(s, s2, rtol=0, atol=1e-7 * s2[0])
            for delta in (0.1, 1.0, 10.0, 1e3):
                p = _solve_lsq_trust_region(m, uf, s, V, delta)[0]
                p2 = _solve_lsq_trust_region(m, uf2, s2, VT2.T, delta)[0]
                np.testing.assert_allclose(p, p2, rtol=0, atol=1e-6 * max(1.0, np.linalg.norm(p2)))

    def test_normal_decomposition_zero_singular_values(self):
        # Where the normal matrix is singular, uf is exactly 0, not NaN.
        s, V, uf = _normal_decomposition(np.zeros((3, 3)), np.ones(3), np.zeros(3), np.zeros(3))
        assert np.array_equal(s, np.zeros(3)) and np.array_equal(uf, np.zeros(3))
        s, V, uf = _normal_decomposition(
            np.diag([4.0, 0.0, 1.0]), np.ones(3), np.zeros(3), np.array([2.0, 0.0, 1.0])
        )
        np.testing.assert_allclose(s, [2.0, 1.0, 0.0])
        np.testing.assert_allclose(np.abs(uf), [1.0, 1.0, 0.0])
        assert uf[2] == 0.0

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
        residuals, jac = oracle.joint_model(data, 1.5, 0.0, 0.0)
        for theta in self._thetas(data, rng):
            assert np.array_equal(
                _joint_model(data, 1.5, 0.0, 0.0)[0](theta),
                oracle.joint_residuals(data, theta, 1.5, 0.0, 0.0),
            )
            np.testing.assert_allclose(
                jac(theta), _central_jacobian(residuals, theta), rtol=0, atol=1e-6
            )
            for prior_w in (0.0, 4.0):
                self._assert_structured_matches_dense(data, theta, prior_w, rng)


def _as_observations(data):
    return {
        u: [GpsRange(a, float(r), float(i)) for i, (a, r) in enumerate(zip(*data[u]))]
        for u in data
    }


def _assert_matches_scipy(obs, **kw):
    """The structured solve lands where the SciPy oracle does."""
    want = oracle.joint_solve_scipy(obs, **kw)
    got = solve_joint_multilateration(obs, **kw)
    assert sorted(got.per_ue) == sorted(want.per_ue)
    for u, w in want.per_ue.items():
        g = got.per_ue[u]
        assert np.all(np.isfinite(g.position))
        np.testing.assert_allclose(g.position, w.position, rtol=0, atol=0.05)
        assert g.inlier_fraction == w.inlier_fraction
        assert g.converged == w.converged
    assert abs(got.offset_m - want.offset_m) < 0.05
    assert got.converged == want.converged
    return got


def _stall_case():
    """A bounded 7-UE solve whose two jittered restarts stop at ``max_iter``.

    A 23 m flight at 100 m altitude ranges seven UEs in a 340 m box;
    two of them are half NLOS.  The unjittered start converges; the
    jittered starts land near the box edges and crawl toward a phantom
    optimum until ``max_iter`` stops them, as the second-epoch solves of
    three-UAV campus fleets do.
    """
    rng = np.random.default_rng(38)
    n = 120
    t = np.linspace(0.0, 1.0, n)
    anchors = np.column_stack(
        [33.0 + 20.0 * t, 113.0 + 12.0 * np.sin(np.pi * t), np.full(n, 100.0)]
    )
    ues = {1: (85, 138), 3: (208, 16), 5: (17, 305), 6: (240, 195), 7: (23, 226),
           9: (111, 119), 10: (123, 118)}
    obs = {}
    for u, (x, y) in ues.items():
        r = np.linalg.norm(anchors - np.array([x, y, 1.5]), axis=1) + 134.5
        r += rng.normal(0.0, 1.0, n)
        if u in (5, 6):
            hit = rng.random(n) < 0.5
            r[hit] += rng.exponential(30.0, hit.sum())
        obs[u] = [GpsRange(a, float(ri), float(i)) for i, (a, ri) in enumerate(zip(anchors, r))]
    return obs, dict(bounds_xy=((-20.0, 320.0), (-20.0, 320.0)), offset_prior=(134.5, 200.0))


class TestJointSolverMatchesScipy:
    """The structured trust-region solve against SciPy's ``least_squares``.

    Bits may differ at rounding level (the steps come from ``eigh`` of
    the normal matrix, not the SVD of the dense Jacobian); every answer
    the epoch reads must not.
    """

    @pytest.fixture()
    def campus_obs(self, campus_flight):
        scenario, log, estimator, bounds = campus_flight
        obs = {}
        for ue in scenario.ues:
            o = mad_filter(
                collect_gps_ranges(
                    log, ue, scenario.channel, scenario.enodeb, estimator,
                    np.random.default_rng(1),
                )
            )
            if len(o) >= 3:
                obs[ue.ue_id] = o
        assert len(obs) >= 3
        return obs, bounds

    def test_campus(self, campus_obs):
        obs, bounds = campus_obs
        _assert_matches_scipy(obs)
        _assert_matches_scipy(obs, bounds_xy=bounds)

    def test_offset_prior(self, campus_obs):
        obs, bounds = campus_obs
        _assert_matches_scipy(obs, bounds_xy=bounds, offset_prior=(137.0, 200.0))

    def test_one_ue(self, rng):
        ue = np.array([30.0, -20.0, 1.5])
        obs = {4: _circle_obs(ue, 20.0, 80, 60.0, 137.0, 1.0, rng)}
        _assert_matches_scipy(obs)
        _assert_matches_scipy(obs, bounds_xy=((-100.0, 100.0), (-100.0, 100.0)))

    def test_nlos_trim_resolves(self):
        # One UE's ranges fall 40 m short of the fit on every fourth
        # row: large positive residuals, which the one-sided trim drops
        # before it re-solves.  Both solvers must trim the same rows.
        rng = np.random.default_rng(5)
        obs = {}
        for u, xy in enumerate([(40.0, 10.0), (-30.0, 25.0), (5.0, -45.0)]):
            rows = _circle_obs(np.array([*xy, 1.5]), 30.0, 60, 80.0, 137.0, 0.5, rng)
            if u == 1:
                rows = [
                    GpsRange(o.gps_xyz, o.range_m - (40.0 if i % 4 == 0 else 0.0), o.t_s)
                    for i, o in enumerate(rows)
                ]
            obs[u] = rows
        got = _assert_matches_scipy(obs)
        assert got.per_ue[1].inlier_fraction < 1.0

    def test_stalled_restarts(self):
        obs, kw = _stall_case()
        before = perf.counters()
        _assert_matches_scipy(obs, **kw)
        counted = perf.counters_since(before)
        assert counted.get("loc.joint.max_nfev_stops", 0) == 2

    def test_rank_deficient_single_ue_line(self):
        # One UE under a straight flight: at the anchor centroid the
        # cross-track column of the Jacobian is exactly zero, so the
        # normal matrix is singular.  The unjittered solve stays on the
        # flight line, converged, where SciPy's does; no solve returns
        # NaN.
        n = 40
        anchors = np.column_stack(
            [np.linspace(-20.0, 20.0, n), np.zeros(n), np.full(n, 60.0)]
        )
        ue = np.array([5.0, 30.0, 1.5])
        ranges = np.linalg.norm(anchors - ue, axis=1) + 137.0
        obs = {0: [GpsRange(a, float(r), float(i)) for i, (a, r) in enumerate(zip(anchors, ranges))]}
        _assert_matches_scipy(obs, restarts=1)
        for kw in ({}, {"bounds_xy": ((-100.0, 100.0), (-100.0, 100.0))}):
            for restarts in (1, 3):
                res = solve_joint_multilateration(obs, restarts=restarts, **kw)
                assert res.converged
                assert np.all(np.isfinite(res.per_ue[0].position))
                assert np.isfinite(res.offset_m)
                assert np.isfinite(res.per_ue[0].residual_rms_m)


class TestJointSolverWork:
    def test_counts_evaluations_and_max_nfev_stops(self, rng):
        ue = np.array([30.0, -20.0, 1.5])
        obs = {7: _circle_obs(ue, 40.0, 60, 50.0, 137.0, 0.5, rng)}
        before = perf.counters()
        res = solve_joint_multilateration(obs, restarts=3)
        counted = perf.counters_since(before)
        assert res.converged
        assert counted["loc.joint.nfev"] >= 3 * 2
        assert counted["loc.joint.nfev"] >= res.per_ue[7].n_iter
        assert "loc.joint.max_nfev_stops" not in counted
        # With a budget of 4 evaluations every solve of the 7-UE case
        # stops at max_iter: each counts one stop and exactly 4
        # evaluations.
        obs, kw = _stall_case()
        before = perf.counters()
        res = solve_joint_multilateration(obs, restarts=3, max_iter=4, **kw)
        counted = perf.counters_since(before)
        assert not res.converged
        stops = counted["loc.joint.max_nfev_stops"]
        assert stops >= 3
        assert counted["loc.joint.nfev"] == 4 * stops


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
