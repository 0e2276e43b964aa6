"""Unit tests for SRS synthesis and the synthetic channel.

Channel cases run one-row batches of :func:`apply_channel_batch`.
"""

import numpy as np
import pytest

from repro.lte.srs import (
    SRSConfig,
    apply_channel_batch,
    make_srs_symbol,
    pack_taps,
    zadoff_chu,
    _largest_prime_at_most,
)


def apply_channel(symbol, cfg, delay_samples, snr_db, rng, multipath=()):
    """One reception through the batch channel."""
    return apply_channel_batch(
        symbol,
        cfg,
        np.array([delay_samples]),
        np.array([snr_db]),
        rng,
        *pack_taps([multipath]),
    )[0]


class TestZadoffChu:
    def test_constant_amplitude(self):
        zc = zadoff_chu(25, 839)
        np.testing.assert_allclose(np.abs(zc), 1.0, atol=1e-12)

    def test_ideal_autocorrelation(self):
        zc = zadoff_chu(7, 139)
        # Circular autocorrelation: delta at zero lag.
        corr = np.fft.ifft(np.fft.fft(zc) * np.conj(np.fft.fft(zc)))
        peak = np.abs(corr[0])
        sidelobes = np.abs(corr[1:])
        assert peak == pytest.approx(139.0, rel=1e-9)
        assert sidelobes.max() < 1e-9 * peak

    def test_rejects_bad_root(self):
        with pytest.raises(ValueError):
            zadoff_chu(0, 139)
        with pytest.raises(ValueError):
            zadoff_chu(139, 139)

    def test_rejects_non_coprime(self):
        with pytest.raises(ValueError):
            zadoff_chu(10, 100)

    def test_largest_prime(self):
        assert _largest_prime_at_most(576) == 571
        assert _largest_prime_at_most(2) == 2
        assert _largest_prime_at_most(10) == 7


class TestSRSConfig:
    def test_defaults_are_10mhz_lte(self):
        cfg = SRSConfig()
        assert cfg.n_fft == 1024
        assert cfg.sample_rate_hz == pytest.approx(15.36e6)
        assert cfg.meters_per_sample == pytest.approx(19.5, abs=0.1)

    def test_subcarrier_bins_avoid_dc(self):
        cfg = SRSConfig(n_fft=64, n_subcarriers=32)
        bins = cfg.subcarrier_bins()
        assert 0 not in bins
        assert len(bins) == 32
        assert np.all((bins >= 0) & (bins < 64))

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            SRSConfig(n_fft=1000)  # not a power of two
        with pytest.raises(ValueError):
            SRSConfig(n_subcarriers=0)
        with pytest.raises(ValueError):
            SRSConfig(sample_rate_hz=0.0)


class TestSymbolAndChannel:
    def test_symbol_occupies_configured_bins(self):
        cfg = SRSConfig()
        sym = make_srs_symbol(cfg)
        active = np.abs(sym) > 0
        assert active.sum() == cfg.n_subcarriers

    def test_different_roots_low_cross_correlation(self):
        cfg = SRSConfig()
        a = make_srs_symbol(cfg, root=25)
        b = make_srs_symbol(cfg, root=29)
        cross = np.abs(np.fft.ifft(a * np.conj(b))).max()
        auto = np.abs(np.fft.ifft(a * np.conj(a))).max()
        assert cross < 0.3 * auto

    def test_integer_delay_shifts_peak(self, rng):
        cfg = SRSConfig()
        sym = make_srs_symbol(cfg)
        rx = apply_channel(sym, cfg, delay_samples=12.0, snr_db=40.0, rng=rng)
        corr = np.abs(np.fft.ifft(rx * np.conj(sym)))
        assert int(np.argmax(corr)) == 12

    def test_noise_scales_with_snr(self, rng):
        cfg = SRSConfig()
        sym = make_srs_symbol(cfg)
        quiet = apply_channel(sym, cfg, 0.0, snr_db=40.0, rng=rng)
        loud = apply_channel(sym, cfg, 0.0, snr_db=-10.0, rng=rng)
        err_quiet = np.abs(quiet - sym).mean()
        err_loud = np.abs(loud - sym).mean()
        assert err_loud > 10 * err_quiet

    def test_multipath_negative_excess_rejected(self, rng):
        cfg = SRSConfig()
        sym = make_srs_symbol(cfg)
        with pytest.raises(ValueError):
            apply_channel(sym, cfg, 0.0, 10.0, rng, multipath=((-1.0, -3.0),))

    def test_wrong_symbol_shape_rejected(self, rng):
        cfg = SRSConfig()
        with pytest.raises(ValueError):
            apply_channel(np.zeros(10, dtype=complex), cfg, 0.0, 10.0, rng)
