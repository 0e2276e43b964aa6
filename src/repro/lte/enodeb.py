"""The airborne eNodeB.

It does two things the reproduction needs: (1) maintain the set of
attached UEs, the one record of attachment (a UE is attached exactly
while it is registered here), and (2) expose the SRS receive path the
localization flight consumes.  Serving — PRB sharing under a
scheduler — runs in :class:`repro.traffic.simulate.MACSimulation`;
full-cell (unshared) throughput — what the paper's "average
throughput per UE" figures report — comes straight from
:func:`repro.lte.throughput.throughput_mbps`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (mobility uses lte.ue)
    from repro.mobility.models import MobilityModel

from repro.lte.srs import SRSConfig, apply_channel_batch, make_srs_symbol
from repro.lte.throughput import PRB_PER_10MHZ
from repro.lte.ue import UE


@dataclass
class ENodeB:
    """The airborne LTE base station.

    Attributes
    ----------
    srs_config:
        Numerology for the SRS receive path.
    n_prb:
        PRBs in the carrier (50 for 10 MHz).
    mobility:
        Optional mobility model moving this cell's UEs; when present
        its per-UE state (waypoints, route progress, dwell timers) is
        forgotten on detach — detached and churned UEs must not leak
        state.
    """

    srs_config: SRSConfig = field(default_factory=SRSConfig)
    n_prb: int = PRB_PER_10MHZ
    mobility: Optional["MobilityModel"] = None
    _ues: Dict[int, UE] = field(default_factory=dict)

    # -- attachment ---------------------------------------------------------------

    def register_ue(self, ue: UE) -> None:
        """Attach a UE to this cell."""
        if ue.ue_id in self._ues:
            raise ValueError(f"UE id {ue.ue_id} already registered")
        self._ues[ue.ue_id] = ue

    def deregister_ue(self, ue_id: int) -> None:
        if self._ues.pop(ue_id, None) is not None and self.mobility is not None:
            self.mobility.forget(ue_id)

    def deregister_all(self) -> None:
        """Detach every UE (the fleet and the event layer take over
        attachment this way)."""
        for ue_id in sorted(self._ues):
            self.deregister_ue(ue_id)

    def connected_ues(self) -> List[UE]:
        """Attached UEs, ordered by id."""
        return [self._ues[k] for k in sorted(self._ues)]

    # -- SRS receive path --------------------------------------------------------------

    def receive_srs_batch(
        self,
        ue: UE,
        delays_samples: np.ndarray,
        snrs_db: np.ndarray,
        rng: np.random.Generator,
        tap_excess: Optional[np.ndarray] = None,
        tap_power_db: Optional[np.ndarray] = None,
        tap_mask: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Receive a flight's worth of SRS symbols from one UE at once.

        The localization flight sends one symbol per 10 ms SRS report;
        the returned ``(n, n_fft)`` frequency-domain symbols feed the
        ToF estimator.  One (cached) symbol synthesis and one
        :func:`repro.lte.srs.apply_channel_batch` call cover every kept
        reception, with per-symbol tap sets as masked arrays.
        """
        tx = make_srs_symbol(self.srs_config, root=ue.srs_root)
        return apply_channel_batch(
            tx,
            self.srs_config,
            delays_samples,
            snrs_db,
            rng,
            tap_excess,
            tap_power_db,
            tap_mask,
        )

    def known_srs_symbol(self, ue: UE) -> np.ndarray:
        """The reference symbol the correlator uses for a UE."""
        return make_srs_symbol(self.srs_config, root=ue.srs_root)
