"""Unit tests for the Eq. 1-3 ToF estimator.

The estimator cases run on one-row batches of the production kernel;
``TestUpsample`` pins the Eq. 2 zero-pad of the scalar oracle the
kernel is held to bit for bit in ``test_localization_batch.py``.
"""

import numpy as np
import pytest

from repro.lte.srs import SRSConfig, apply_channel_batch, make_srs_symbol
from repro.lte.tof import ToFEstimator, estimate_delays_batch
from tests.localization_oracles import upsample_freq


def _delayed(cfg, sym, delay):
    freqs = np.fft.fftfreq(cfg.n_fft) * cfg.n_fft
    return sym * np.exp(-2j * np.pi * freqs * delay / cfg.n_fft)


def estimate_delay_samples(received, known, upsampling=4, refine=True):
    """Delay of one reception, through the batch kernel."""
    delays, _ = estimate_delays_batch(
        np.atleast_2d(received), known, upsampling, refine=refine, quality=False
    )
    return float(delays[0])


def _receive(cfg, sym, delay, snr_db, rng):
    """One noisy reception (no multipath) through the batch channel."""
    return apply_channel_batch(sym, cfg, np.array([delay]), np.array([snr_db]), rng)[0]


class TestUpsample:
    def test_factor_one_is_copy(self):
        x = np.arange(8, dtype=complex)
        out = upsample_freq(x, 1)
        np.testing.assert_array_equal(out, x)
        assert out is not x

    def test_length_scales(self):
        x = np.ones(16, dtype=complex)
        assert len(upsample_freq(x, 4)) == 64

    def test_zeros_in_middle(self):
        x = np.ones(8, dtype=complex)
        out = upsample_freq(x, 2)
        np.testing.assert_array_equal(out[:4], 1.0)
        np.testing.assert_array_equal(out[4:12], 0.0)
        np.testing.assert_array_equal(out[12:], 1.0)

    def test_interpolates_time_domain(self):
        # Upsampling the spectrum of a delta reproduces a sinc whose
        # every K-th sample matches the original IFFT.
        rng = np.random.default_rng(0)
        x = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        orig = np.fft.ifft(x)
        up = np.fft.ifft(upsample_freq(x, 4))
        np.testing.assert_allclose(up[::4] * 4, orig, atol=1e-9)

    def test_rejects_bad_factor(self):
        with pytest.raises(ValueError):
            upsample_freq(np.ones(4, dtype=complex), 0)


class TestDelayEstimation:
    def test_integer_delay_exact(self):
        cfg = SRSConfig()
        sym = make_srs_symbol(cfg)
        for d in (0.0, 3.0, 17.0):
            rx = _delayed(cfg, sym, d)
            assert estimate_delay_samples(rx, sym, 4) == pytest.approx(d, abs=0.05)

    def test_fractional_delay_with_refinement(self):
        cfg = SRSConfig()
        sym = make_srs_symbol(cfg)
        for d in (2.3, 5.55, 9.8):
            rx = _delayed(cfg, sym, d)
            est = estimate_delay_samples(rx, sym, 4, refine=True)
            assert est == pytest.approx(d, abs=0.05)

    def test_raw_argmax_quantizes(self):
        cfg = SRSConfig()
        sym = make_srs_symbol(cfg)
        rx = _delayed(cfg, sym, 5.1)
        est = estimate_delay_samples(rx, sym, 4, refine=False)
        assert est == pytest.approx(round(5.1 * 4) / 4, abs=1e-9)

    def test_upsampling_improves_resolution(self):
        cfg = SRSConfig()
        sym = make_srs_symbol(cfg)
        rx = _delayed(cfg, sym, 4.4)
        coarse = estimate_delay_samples(rx, sym, 1, refine=False)
        fine = estimate_delay_samples(rx, sym, 8, refine=False)
        assert abs(fine - 4.4) < abs(coarse - 4.4) + 1e-9

    def test_negative_delay_wraps(self):
        cfg = SRSConfig()
        sym = make_srs_symbol(cfg)
        rx = _delayed(cfg, sym, -3.0)
        assert estimate_delay_samples(rx, sym, 4) == pytest.approx(-3.0, abs=0.05)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            estimate_delay_samples(np.ones(8, dtype=complex), np.ones(4, dtype=complex))

    def test_robust_to_noise(self, rng):
        cfg = SRSConfig()
        sym = make_srs_symbol(cfg)
        errs = []
        for d in np.linspace(2, 20, 12):
            rx = _receive(cfg, sym, d, 5.0, rng)
            errs.append(abs(estimate_delay_samples(rx, sym, 4) - d))
        assert np.median(errs) < 0.15  # ~3 m at 10 MHz


class TestEstimatorWrapper:
    def test_range_resolution(self):
        est = ToFEstimator(SRSConfig(), upsampling=4)
        assert est.range_resolution_m == pytest.approx(19.5 / 4, abs=0.05)

    def test_range_conversion(self, rng):
        cfg = SRSConfig()
        est = ToFEstimator(cfg, upsampling=4)
        sym = make_srs_symbol(cfg)
        true_range = 150.0
        rx = _receive(cfg, sym, true_range / cfg.meters_per_sample, 20.0, rng)
        ranges, qualities = est.ranges_batch_m(rx[None, :], sym)
        assert ranges[0] == pytest.approx(true_range, abs=3.0)
        assert qualities[0] > 10.0

    def test_invalid_upsampling(self):
        with pytest.raises(ValueError):
            ToFEstimator(SRSConfig(), upsampling=0)
