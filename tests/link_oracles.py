"""One-link-at-a-time oracles for the channel oracle's batched link path.

``src/repro`` traces each batch of UAV–UE links once and composes its
loss in one place (:meth:`repro.channel.model.ChannelModel.
_loss_from_obstructed`).  The functions here restate that path term
by term for one UE, kept beside the tests that hold the kernels to it:

* :func:`path_loss_and_los` — FSPL + obstruction excess + the UE's own
  shadowing field + the common field, in that order
  (:meth:`~repro.channel.model.ChannelModel.path_loss_to_many`,
  :meth:`~repro.channel.model.ChannelModel.snr_to_many`);
* :func:`collect_snr_samples` — one UE's measurement flight with its
  fading drawn before its instrument noise
  (:func:`repro.flight.sampler.collect_snr_samples`);
* :func:`obstructed_lengths_full` — the tracer with every sample of
  every ray traced, one ray at a time, no column pruning
  (:func:`repro.channel.raytrace.obstructed_lengths`).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.channel.fading import sample_fading_db
from repro.channel.fspl import fspl_db
from repro.channel.raytrace import (
    _ENDPOINT_MARGIN,
    DEFAULT_STEP_M,
    _bucket_steps,
    obstructed_lengths,
)
from repro.flight.sampler import SRS_RATE_HZ

#: The PHY instrument noise of :meth:`ChannelModel.sample_snr_db`.
MEASUREMENT_NOISE_DB = 0.5


def path_loss_and_los(channel, uav_xyz, ue_xyz) -> Tuple[np.ndarray, np.ndarray]:
    """Mean path loss and LOS state from UAV positions to one UE."""
    uav = np.atleast_2d(np.asarray(uav_xyz, dtype=float))
    ue = np.asarray(ue_xyz, dtype=float).reshape(3)
    obstructed = obstructed_lengths(channel.terrain, uav, ue, channel.ray_step_m)
    loss = fspl_db(np.linalg.norm(uav - ue[None, :], axis=1), channel.freq_hz)
    excess = np.minimum(
        channel.diffraction_db + channel.excess_db_per_m * obstructed,
        channel.excess_cap_db,
    )
    loss = loss + np.where(obstructed > 0.0, excess, 0.0)
    if channel.shadowing_sigma_db > 0:
        loss = loss + channel._shadowing_for(ue).at_many(uav[:, :2])
    if channel.common_sigma_db > 0:
        loss = loss + channel._common_shadowing().at_many(uav[:, :2])
    return loss, obstructed <= 0.0


def _positions_at(log, times: np.ndarray, src: np.ndarray) -> np.ndarray:
    return np.column_stack([np.interp(times, log.t_s, src[:, i]) for i in range(3)])


def collect_snr_samples(
    log, ue, channel, rng, rate_hz: float = SRS_RATE_HZ, faults=None
) -> Tuple[np.ndarray, np.ndarray]:
    """One UE's ``(gps_xy, snr_db)`` reports along a measurement flight."""
    n = max(2, int(log.duration_s * rate_hz) + 1)
    times = np.linspace(log.t_s[0], log.t_s[-1], n)
    true_pos = _positions_at(log, times, log.true_xyz)
    gps_pos = _positions_at(log, times, log.gps_xyz)
    loss, los = path_loss_and_los(channel, true_pos, ue.xyz)
    mean = channel.link.snr_db(loss)
    fading = sample_fading_db(los, rng)
    noise = rng.normal(0.0, MEASUREMENT_NOISE_DB, size=mean.shape)
    snr = mean + fading + noise
    if faults is None:
        return gps_pos[:, :2], snr
    keep, snr = faults.snr_faults(snr)
    if log.gps_valid is not None:
        valid = np.interp(times, log.t_s, log.gps_valid.astype(float)) > 0.999
        keep = keep & valid
    return gps_pos[keep][:, :2], snr[keep]


def obstructed_lengths_full(
    terrain, tx_xyz, rx_xyz, step: float = DEFAULT_STEP_M
) -> Tuple[np.ndarray, int]:
    """Obstructed lengths with every sample traced: ``(lengths, samples)``.

    Each ray gets its own bucketed sample count and its own surface
    gather over all of its samples; ``samples`` is the total the
    tracer's ``raytrace.samples`` counter reports.
    """
    tx = np.atleast_2d(np.asarray(tx_xyz, dtype=float))
    rx = np.atleast_2d(np.asarray(rx_xyz, dtype=float))
    tx, rx = np.broadcast_arrays(tx, rx)
    n = tx.shape[0]
    dist = np.linalg.norm(rx - tx, axis=1)
    horiz = np.linalg.norm((rx - tx)[:, :2], axis=1)
    if n == 0 or float(dist.max()) == 0.0:
        return np.zeros(n), 0
    n_steps = _bucket_steps(np.ceil(dist / step))
    frac = np.zeros(n)
    for i in range(n):
        t = np.linspace(_ENDPOINT_MARGIN, 1.0 - _ENDPOINT_MARGIN, int(n_steps[i]))
        zs = tx[i, 2] + t * (rx[i, 2] - tx[i, 2])
        xs = tx[i, 0] + t * (rx[i, 0] - tx[i, 0])
        ys = tx[i, 1] + t * (rx[i, 1] - tx[i, 1])
        surface = terrain.heights_at_xy(xs, ys)
        frac[i] = np.count_nonzero(zs < surface) / int(n_steps[i])
    effective = np.maximum(horiz, 0.15 * dist)
    return frac * effective * (1.0 - 2 * _ENDPOINT_MARGIN), int(n_steps.sum())
