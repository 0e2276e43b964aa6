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
  (:func:`repro.channel.raytrace.obstructed_lengths`);
* :func:`path_loss_map` / :func:`snr_map` — one UE's map over a grid
  through :func:`path_loss_and_los`, no cache
  (:meth:`~repro.channel.model.ChannelModel.path_loss_maps`,
  :meth:`~repro.channel.model.ChannelModel.snr_maps`);
* :func:`sinr_db` / :func:`fleet_sinr_db_reference` — co-channel SINR
  with one path-loss query per (UAV, UE) pair and interference summed
  over UAV index in ascending order
  (:func:`repro.channel.interference.fleet_sinr_db_stack`,
  :func:`repro.channel.interference.fleet_sinr_db`);
* :class:`OuterLoopLinkAdaptation` / :func:`simulate_link` — per-UE
  outer-loop link adaptation, one HARQ report at a time
  (:class:`repro.lte.linkadapt.OLLABank`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

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
from repro.geo.grid import GridSpec
from repro.lte.throughput import _THRESHOLDS, cqi_from_snr, throughput_mbps

#: The PHY instrument noise of :meth:`ChannelModel.sample_snr_many`.
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


def path_loss_map(
    channel, ue_xyz, altitude: float, grid: Optional[GridSpec] = None
) -> np.ndarray:
    """Mean path loss from every grid cell (at ``altitude``) to one UE.

    ``grid`` defaults to the terrain grid.
    """
    g = grid or channel.terrain.grid
    centers = g.centers_flat()
    uav = np.column_stack([centers, np.full(len(centers), float(altitude))])
    loss, _ = path_loss_and_los(channel, uav, ue_xyz)
    return loss.reshape(g.shape)


def snr_map(
    channel, ue_xyz, altitude: float, grid: Optional[GridSpec] = None
) -> np.ndarray:
    """Mean SNR map over the grid at ``altitude`` for one UE."""
    return channel.link.snr_db(path_loss_map(channel, ue_xyz, altitude, grid))


def _positions_at(log, times: np.ndarray, src: np.ndarray) -> np.ndarray:
    return np.column_stack([np.interp(times, log.t_s, src[:, i]) for i in range(3)])


def collect_snr_samples(
    log, ue, channel, rng, rate_hz: float = SRS_RATE_HZ, faults=None
) -> Tuple[np.ndarray, np.ndarray]:
    """One UE's ``(gps_xy, snr_db)`` reports along a measurement flight."""
    n = max(2, int(log.duration_s * rate_hz + 1e-6) + 1)
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


def sinr_db(
    channel,
    uav_positions: Sequence[np.ndarray],
    ue_xyz: np.ndarray,
    serving_index: int,
    carriers: Optional[Sequence[int]] = None,
) -> float:
    """SINR (dB) of one UE served by UAV ``serving_index`` amid the fleet.

    Every interferer transmits at full load; only UAVs on the serving
    cell's carrier (default all on one) interfere.
    """
    n = len(uav_positions)
    carr = np.zeros(n, dtype=int) if carriers is None else np.asarray(carriers, dtype=int)
    link = channel.link
    rx_dbm = np.array(
        [
            link.rx_power_dbm(float(channel.path_loss_db(np.asarray(p, dtype=float), ue_xyz)))
            for p in uav_positions
        ]
    )
    # dBm -> mW through the array kernel: numpy's scalar ``**`` can
    # differ from the array ufunc by one ulp.
    rx_mw = 10.0 ** (rx_dbm / 10.0)
    noise_mw = 10.0 ** (link.noise_floor_dbm / 10.0)
    interf_mw = 0.0
    for j in range(n):
        if j != serving_index and carr[j] == carr[serving_index]:
            interf_mw += rx_mw[j]
    return float(10.0 * np.log10(rx_mw[serving_index] / (noise_mw + interf_mw)))


def fleet_sinr_db_reference(
    channel,
    uav_positions: Sequence[np.ndarray],
    ue_positions: Dict[int, np.ndarray],
    serving: Dict[int, int],
    carriers: Optional[Sequence[int]] = None,
) -> Dict[int, float]:
    """:func:`sinr_db` for every UE of a fleet assignment (dict API)."""
    return {
        ue_id: sinr_db(channel, uav_positions, ue_xyz, serving[ue_id], carriers)
        for ue_id, ue_xyz in ue_positions.items()
    }


@dataclass
class OuterLoopLinkAdaptation:
    """Per-UE SNR-offset controller targeting a BLER.

    On a NACK the offset drops by ``step_db``; on an ACK it rises by
    ``step_db * target / (1 - target)``; then it is clamped to
    ``[min_offset_db, max_offset_db]``.
    """

    target_bler: float = 0.1
    step_db: float = 0.5
    min_offset_db: float = -10.0
    max_offset_db: float = 10.0
    _offsets: Dict[int, float] = field(default_factory=dict)
    _acks: Dict[int, int] = field(default_factory=dict)
    _nacks: Dict[int, int] = field(default_factory=dict)

    def offset_db(self, ue_id: int) -> float:
        """Current SNR correction for a UE (0 until feedback arrives)."""
        return self._offsets.get(ue_id, 0.0)

    def effective_snr_db(self, ue_id: int, reported_snr_db: float) -> float:
        """Reported SNR plus the learned correction."""
        return reported_snr_db + self.offset_db(ue_id)

    def report(self, ue_id: int, ack: bool) -> float:
        """Fold one HARQ outcome in; returns the new offset."""
        up = self.step_db * self.target_bler / (1.0 - self.target_bler)
        offset = self._offsets.get(ue_id, 0.0)
        if ack:
            offset += up
            self._acks[ue_id] = self._acks.get(ue_id, 0) + 1
        else:
            offset -= self.step_db
            self._nacks[ue_id] = self._nacks.get(ue_id, 0) + 1
        offset = float(np.clip(offset, self.min_offset_db, self.max_offset_db))
        self._offsets[ue_id] = offset
        return offset

    def realized_bler(self, ue_id: int) -> Optional[float]:
        """Observed BLER so far for a UE (None before any feedback)."""
        acks = self._acks.get(ue_id, 0)
        nacks = self._nacks.get(ue_id, 0)
        total = acks + nacks
        if total == 0:
            return None
        return nacks / total


def simulate_link(
    olla: OuterLoopLinkAdaptation,
    ue_id: int,
    mean_snr_db: float,
    n_tti: int,
    rng: np.random.Generator,
    fading_std_db: float = 3.0,
    decode_margin_db: float = 1.0,
) -> Dict[str, float]:
    """Drive a fading link through the outer loop for ``n_tti`` TTIs.

    Per TTI: the UE reports a (stale, noisy) SNR; the eNodeB schedules
    at the OLLA-corrected CQI; the transport block decodes iff the
    *actual* SNR covers the scheduled CQI's threshold minus a margin.
    Returns realized BLER, mean goodput and the final offset.
    """
    goodput = 0.0
    for _ in range(n_tti):
        actual = mean_snr_db + rng.normal(0.0, fading_std_db)
        reported = mean_snr_db + rng.normal(0.0, fading_std_db)  # stale sample
        scheduled_snr = olla.effective_snr_db(ue_id, reported)
        cqi = cqi_from_snr(scheduled_snr)
        if cqi == 0:
            continue  # nothing scheduled this TTI
        ack = actual >= _THRESHOLDS[cqi - 1] - decode_margin_db
        olla.report(ue_id, ack)
        if ack:
            goodput += throughput_mbps(scheduled_snr)
    return {
        "bler": olla.realized_bler(ue_id) or 0.0,
        "mean_goodput_mbps": goodput / n_tti,
        "final_offset_db": olla.offset_db(ue_id),
    }
