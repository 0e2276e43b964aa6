"""Uplink Sounding Reference Signal (SRS) synthesis and channel.

The SRS is a known PHY-layer signal the UE sends so the eNodeB can
sound the uplink channel; LTE builds it from Zadoff-Chu sequences,
whose constant amplitude and ideal cyclic autocorrelation are exactly
what a correlation-based ToF estimator wants.  We synthesize
frequency-domain SRS symbols on the 10 MHz LTE numerology the paper
uses (1024-point FFT, 15.36 MS/s) and push them through a delay +
multipath + AWGN channel, so the ToF estimator downstream faces the
same physics as the real system.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.channel.fspl import SPEED_OF_LIGHT
from repro._rowblocks import pipeline
from repro.perf import perf


def zadoff_chu(root: int, length: int) -> np.ndarray:
    """Zadoff-Chu sequence of a given root and length.

    ``length`` should be coprime with ``root`` for the ideal constant
    -amplitude zero-autocorrelation property; LTE uses prime lengths.
    """
    if length <= 0:
        raise ValueError(f"length must be positive, got {length}")
    if not 0 < root < length:
        raise ValueError(f"root must satisfy 0 < root < length, got {root}")
    if gcd(root, length) != 1:
        raise ValueError(f"root {root} must be coprime with length {length}")
    n = np.arange(length)
    if length % 2 == 0:
        phase = -np.pi * root * n * n / length
    else:
        phase = -np.pi * root * n * (n + 1) / length
    return np.exp(1j * phase)


@dataclass(frozen=True)
class SRSConfig:
    """Numerology for SRS symbols.

    Defaults model the paper's setup: 10 MHz LTE carrier, 1024-point
    FFT sampled at 15.36 MS/s, SRS sounding 576 subcarriers (48 RBs).

    Attributes
    ----------
    n_fft:
        FFT size (number of OFDM samples per symbol).
    n_subcarriers:
        Number of subcarriers the SRS occupies (centered on DC).
    sample_rate_hz:
        Baseband sampling rate.
    zc_root:
        Zadoff-Chu root for the base sequence.
    """

    n_fft: int = 1024
    n_subcarriers: int = 576
    sample_rate_hz: float = 15.36e6
    zc_root: int = 25

    def __post_init__(self) -> None:
        if self.n_fft <= 0 or self.n_fft & (self.n_fft - 1):
            raise ValueError(f"n_fft must be a positive power of two, got {self.n_fft}")
        if not 0 < self.n_subcarriers <= self.n_fft:
            raise ValueError(
                f"n_subcarriers must be in (0, n_fft], got {self.n_subcarriers}"
            )
        if self.sample_rate_hz <= 0:
            raise ValueError(f"sample_rate_hz must be positive, got {self.sample_rate_hz}")

    @property
    def meters_per_sample(self) -> float:
        """Real-world distance per time-domain sample (19.5 m at 10 MHz)."""
        return SPEED_OF_LIGHT / self.sample_rate_hz

    def subcarrier_bins(self) -> np.ndarray:
        """FFT bin indices the SRS occupies (centered on DC).

        Uses the standard FFT layout: positive frequencies in bins
        ``1 .. n/2``, negative frequencies at the top.  DC is skipped,
        as LTE leaves the DC subcarrier unused.
        """
        half = self.n_subcarriers // 2
        pos = np.arange(1, half + 1)
        neg = np.arange(self.n_fft - (self.n_subcarriers - half), self.n_fft)
        return np.concatenate([pos, neg])


#: Memoized SRS symbols per (config, root).  The symbol depends only on
#: the numerology and the ZC root, so every SRS reception of a flight
#: (and the correlator's reference copy) shares one array.
_SRS_SYMBOL_CACHE: Dict[Tuple[SRSConfig, int], np.ndarray] = {}


def make_srs_symbol(config: SRSConfig, root: Optional[int] = None) -> np.ndarray:
    """Frequency-domain SRS symbol: a Zadoff-Chu sequence on the SRS bins.

    Returns a complex ``(n_fft,)`` vector; bins outside the sounding
    bandwidth are zero.  Memoized per ``(config, root)`` — the returned
    array is shared and marked read-only, so copy before mutating.
    Cache traffic is observable as ``srs.symbol_cache.hit/miss`` in
    :data:`repro.perf.perf`.
    """
    root = config.zc_root if root is None else root
    key = (config, root)
    symbol = _SRS_SYMBOL_CACHE.get(key)
    if symbol is not None:
        perf.count("srs.symbol_cache.hit")
        return symbol
    perf.count("srs.symbol_cache.miss")
    # Largest prime <= n_subcarriers keeps the ZC property; repeat-pad
    # the tail as the LTE spec does for sequence length mismatches.
    length = _largest_prime_at_most(config.n_subcarriers)
    seq = np.resize(zadoff_chu(root, length), config.n_subcarriers)
    symbol = np.zeros(config.n_fft, dtype=complex)
    symbol[config.subcarrier_bins()] = seq
    symbol.setflags(write=False)
    _SRS_SYMBOL_CACHE[key] = symbol
    return symbol


@lru_cache(maxsize=None)
def _largest_prime_at_most(n: int) -> int:
    """Largest prime <= n (n >= 2)."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    for candidate in range(n, 1, -1):
        if candidate < 4:
            return candidate
        if candidate % 2 == 0:
            continue
        is_prime = True
        for d in range(3, int(candidate**0.5) + 1, 2):
            if candidate % d == 0:
                is_prime = False
                break
        if is_prime:
            return candidate
    return 2


def _pow10(x: np.ndarray, div: float) -> np.ndarray:
    """Elementwise ``10.0 ** (x / div)`` via CPython float pow.

    NumPy's vectorized pow and CPython's libm pow disagree in the last
    ulp for a few percent of inputs; the channel's noise sigma and tap
    amplitudes are defined by Python-float pow (the per-symbol channel
    the batch kernel is pinned to in the tests), so the batch kernel
    evaluates them that way.  Evaluated once per distinct value.
    """
    vals, inv = np.unique(np.asarray(x, dtype=float), return_inverse=True)
    table = np.array([10.0 ** (float(v) / div) for v in vals], dtype=float)
    return table[inv].reshape(np.shape(x))


def pack_taps(
    taps_per_symbol: Sequence[Sequence[Tuple[float, float]]],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pack per-symbol multipath tap lists into masked arrays.

    Turns ``n`` variable-length ``[(excess_delay, power_db), ...]``
    tap lists into the left-packed ``(excess, power_db, mask)`` arrays
    :func:`apply_channel_batch` consumes, padding with inactive taps.
    """
    n = len(taps_per_symbol)
    width = max((len(t) for t in taps_per_symbol), default=0)
    excess = np.zeros((n, width), dtype=float)
    power = np.zeros((n, width), dtype=float)
    mask = np.zeros((n, width), dtype=bool)
    for i, taps in enumerate(taps_per_symbol):
        for j, (e, p) in enumerate(taps):
            excess[i, j] = e
            power[i, j] = p
            mask[i, j] = True
    return excess, power, mask


def apply_channel_batch(
    symbol: np.ndarray,
    config: SRSConfig,
    delays_samples: np.ndarray,
    snrs_db: np.ndarray,
    rng: np.random.Generator,
    tap_excess: Optional[np.ndarray] = None,
    tap_power_db: Optional[np.ndarray] = None,
    tap_mask: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Propagate SRS symbols through per-symbol channels in one shot.

    Row ``i`` of the result is the reception of ``symbol`` (the
    transmitted ``(n_fft,)`` frequency-domain SRS) after a direct path
    of ``delays_samples[i]`` (fractional) samples — a per-bin phase
    ramp ``exp(-2j pi f_k d / N)`` over the signed bin frequencies,
    the band-limited interpolation of the delay — plus the row-``i``
    multipath taps and AWGN at per-subcarrier SNR ``snrs_db[i]``
    (scaled against the mean active-subcarrier signal power).  Each tap
    ``(excess_delay_samples, relative_power_db)`` adds a delayed,
    attenuated copy with a uniformly random phase; NLOS links put most
    energy into positive-excess-delay taps, which is what biases ToF
    high in obstructed environments.  Tap sets are masked arrays — rows
    of ``(tap_excess, tap_power_db)`` with ``tap_mask`` marking the
    active taps, **left-packed** (active taps occupy the leading
    columns, in the order their random phases are drawn); see
    :func:`pack_taps`.

    **RNG draw schedule (the reproducibility contract).**  Draws are
    consumed per symbol, in row (time) order; for each symbol, first
    the tap phases — one uniform per *active* tap, in tap-column
    order — then the ``(n_fft, 2)`` Gaussian noise block.  A
    one-symbol-at-a-time channel consuming draws in that order is
    bit-identical to the batch, and a symbol that is absent from the
    batch (e.g. dropped by fault injection before reaching the eNodeB)
    consumes no draws, leaving every later symbol's channel unchanged.

    Returns the received frequency-domain symbols, ``(n, n_fft)``.
    """
    symbol = np.asarray(symbol, dtype=complex)
    if symbol.shape != (config.n_fft,):
        raise ValueError(f"symbol must be ({config.n_fft},), got {symbol.shape}")
    delays = np.atleast_1d(np.asarray(delays_samples, dtype=float))
    snrs = np.atleast_1d(np.asarray(snrs_db, dtype=float))
    n = len(delays)
    if snrs.shape != (n,):
        raise ValueError(f"snrs_db must be ({n},), got {snrs.shape}")
    if tap_mask is None:
        tap_excess = np.zeros((n, 0))
        tap_power_db = np.zeros((n, 0))
        tap_mask = np.zeros((n, 0), dtype=bool)
    else:
        tap_excess = np.asarray(tap_excess, dtype=float)
        tap_power_db = np.asarray(tap_power_db, dtype=float)
        tap_mask = np.asarray(tap_mask, dtype=bool)
        if tap_excess.shape != (n, tap_mask.shape[1]) or tap_excess.shape != tap_mask.shape:
            raise ValueError("tap arrays must share one (n, n_taps) shape")
        if tap_power_db.shape != tap_mask.shape:
            raise ValueError("tap arrays must share one (n, n_taps) shape")
        if (tap_excess[tap_mask] < 0).any():
            raise ValueError("multipath excess delay must be >= 0")
        counts = tap_mask.sum(axis=1)
        if tap_mask.shape[1] and not np.array_equal(
            tap_mask, np.arange(tap_mask.shape[1])[None, :] < counts[:, None]
        ):
            raise ValueError("tap_mask must be left-packed (active taps first)")
    n_taps = tap_mask.shape[1]
    counts = tap_mask.sum(axis=1).tolist()
    n_fft = config.n_fft

    active = np.abs(symbol) > 0
    sig_power = float(np.mean(np.abs(symbol[active]) ** 2)) if active.any() else 1.0
    noise_power = sig_power / _pow10(snrs, 10.0)
    noise_sigma = np.sqrt(noise_power / 2.0)
    tap_amp = _pow10(tap_power_db, 20.0)
    phase_u = np.zeros((n, n_taps), dtype=float)
    rx = np.empty((n, n_fft), dtype=complex)
    float_rows = rx.view(np.float64)
    uniform = rng.random
    normal = rng.standard_normal

    def draw(lo: int, hi: int) -> None:
        """RNG draws of rows ``[lo, hi)``, per symbol in time order.

        The noise normals are drawn straight into the output buffer
        (the interleaved re/im float view of a complex row IS the
        ``(n_fft, 2)`` block of one symbol's draws) and scaled by sigma
        in :func:`propagate` — ``rng.normal(0, s, size)`` is
        bit-identical to ``s * rng.standard_normal(size)`` and consumes
        the same stream.
        """
        for i in range(lo, hi):
            k = counts[i]
            if k:
                uniform(out=phase_u[i, :k])
            normal(out=float_rows[i])

    # Only the active subcarriers carry signal: inactive bins are zero
    # until the noise lands on them, and adding noise to a zero washes
    # out the +-0.0 sign the per-symbol path leaves there — so the
    # phase ramps (the bulk of the kernel) are evaluated on the active
    # bins only, each tap column only on the rows where that tap is
    # live, and the signal is added into the noise at the end over the
    # active bins alone (float addition commutes bit-for-bit).
    freqs = np.fft.fftfreq(n_fft) * n_fft
    bins = np.flatnonzero(active)
    f_act = freqs[bins]
    sym_act = symbol[bins]
    w = len(bins)
    # -2j*pi*f scalar-by-array products leave the imaginary component
    # exactly (-2.0*pi)*f, so the phase angle can be carried in a real
    # array and exponentiated via cos/sin, which numpy evaluates with
    # the same libm routines npy_cexp uses for a purely imaginary
    # argument (exp(+-0.0) == 1.0 exactly) — bit-identical to the
    # complex exp of the per-symbol path at a fraction of the cost.
    fa = (-2.0 * np.pi) * f_act
    # The SRS occupies symmetric +-f pairs (DC unused): cos is even and
    # sin is odd bit-for-bit, so the ramp on the negative-frequency
    # half is the conjugate mirror of the positive half.
    half = w // 2 if w % 2 == 0 and np.array_equal(
        f_act[w // 2 :], -f_act[: w // 2][::-1]
    ) else None
    # The sounded bins form a few contiguous runs (two for the standard
    # DC-straddling layout), so the scatter of signal into noise is
    # sliced adds rather than fancy indexing.
    splits = np.flatnonzero(np.diff(bins) != 1) + 1
    runs = [
        (bins[a], bins[b - 1] + 1, a, b)
        for a, b in zip([0, *splits], [*splits, w])
    ] if w else []

    def ramp_for(scaled_delays: np.ndarray) -> np.ndarray:
        """Phase ramp exp(-2j pi f d / N) over the active bins."""
        cols = half if half is not None else w
        theta = (fa[:cols][None, :] * scaled_delays[:, None]) / n_fft
        out = np.empty((len(scaled_delays), w), dtype=complex)
        front = out[:, :cols]
        front.real = np.cos(theta)
        front.imag = np.sin(theta)
        if half is not None:
            out[:, half:] = np.conj(front[:, ::-1])
        return out

    def propagate(lo: int, hi: int) -> None:
        """Draw-free channel math of rows ``[lo, hi)``, in place in ``rx``."""
        block = rx[lo:hi]
        block *= noise_sigma[lo:hi, None]
        d = delays[lo:hi]
        # symbol * ramp, in the per-symbol operand order (complex
        # multiply is not bitwise commutative under FMA contraction).
        work = ramp_for(d)
        np.multiply(sym_act[None, :], work, out=work)
        for j in range(n_taps):
            live = np.flatnonzero(tap_mask[lo:hi, j])
            if not len(live):
                continue
            phase = np.exp(2j * np.pi * phase_u[lo:hi, j][live])
            contrib = (tap_amp[lo:hi, j][live] * phase)[:, None] * sym_act[None, :]
            contrib *= ramp_for(d[live] + tap_excess[lo:hi, j][live])
            if len(live) == hi - lo:
                work += contrib
            else:
                work[live] += contrib
        for b_lo, b_hi, a, b in runs:
            block[:, b_lo:b_hi] += work[:, a:b]

    # The caller draws every block in row order while a helper thread
    # (two CPUs, a large batch) propagates the block before it; every
    # step is row-wise, so the bits do not depend on the split.
    pipeline(n, draw, propagate)
    return rx
