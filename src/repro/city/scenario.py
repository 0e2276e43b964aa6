"""City-scale scenario: one SkyRAN controller epoch at 10⁵ UEs.

Ties the three city layers together into one epoch:

* **Placement** is the real :class:`~repro.core.controller.
  SkyRANController` epoch over one registered representative per
  occupied REM key cell (not all UEs), so localization, REM state and
  the streamed Step-8 fold saturate at the key-grid size as the
  population grows.
* **Serving SNR** for the whole population comes from one vectorized
  one-Tx-many-Rx ray batch
  (:meth:`~repro.channel.model.ChannelModel.snr_to_many`).
* **OLLA + MAC** run on the flat population blocks, shard by shard.

The city channel disables per-UE shadowing fields (each frozen field
is O(grid) — 10⁵ of them cannot exist) and keeps the common
UAV-position field, which is the component placement can exploit
anyway; the ray step defaults to the terrain cell size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.channel.model import ChannelModel
from repro.city.mac import run_city_mac
from repro.city.population import UEPopulation
from repro.core.config import SkyRANConfig
from repro.core.controller import SkyRANController
from repro.geo.grid import GridSpec
from repro.lte.enodeb import ENodeB
from repro.lte.linkadapt import OLLABank
from repro.lte.throughput import PRB_PER_10MHZ, _THRESHOLDS, cqi_from_snr, throughput_mbps
from repro.lte.ue import UE
from repro.perf import perf
from repro.terrain.generators import make_terrain
from repro.traffic.generators import BYTES_PER_TTI_PER_MBPS


@dataclass
class CityScenario:
    """A terrain, a channel tuned for scale, and a flat UE population."""

    terrain: object
    channel: ChannelModel
    population: UEPopulation
    eval_grid: GridSpec
    olla: OLLABank = field(init=False)

    def __post_init__(self) -> None:
        self.olla = OLLABank(n_ues=self.population.n_ues)
        self._controllers: Dict[Tuple, SkyRANController] = {}

    @classmethod
    def create(
        cls,
        *,
        terrain_name: str = "large",
        cell_size_m: float = 4.0,
        n_ues: int = 1000,
        seed: int = 0,
        eval_cell_m: float = 16.0,
        rem_cell_m: float = 32.0,
        full_buffer_fraction: float = 0.5,
        cbr_rate_mbps: float = 2.0,
    ) -> "CityScenario":
        """Build a city scenario on a named terrain.

        ``eval_cell_m`` sets the placement-surface (REM grid)
        resolution and ``rem_cell_m`` the population's REM key pitch
        (coarser keys → fewer registered representatives → a cheaper
        controller epoch).
        """
        terrain = make_terrain(terrain_name, cell_size=cell_size_m, seed=seed)
        channel = ChannelModel(
            terrain=terrain,
            shadowing_sigma_db=0.0,
            ray_step_m=cell_size_m,
            seed=seed,
        )
        population = UEPopulation.sample(
            terrain,
            n_ues,
            seed=seed,
            full_buffer_fraction=full_buffer_fraction,
            cbr_rate_mbps=cbr_rate_mbps,
            rem_cell_m=rem_cell_m,
        )
        factor = max(1, int(round(eval_cell_m / cell_size_m)))
        eval_grid = terrain.grid.coarsen(factor)
        return cls(
            terrain=terrain,
            channel=channel,
            population=population,
            eval_grid=eval_grid,
        )

    # -- link adaptation ---------------------------------------------------------

    def serving_snr_db(self, uav_xyz: np.ndarray) -> np.ndarray:
        """Mean serving SNR of every UE from the given UAV position."""
        with perf.span("city.serving_snr"):
            return self.channel.snr_to_many(uav_xyz, self.population.xyz)

    def olla_round(self, snr_db: np.ndarray) -> np.ndarray:
        """One deterministic HARQ feedback round through the OLLA bank.

        The eNodeB schedules at the OLLA-corrected SNR; the block
        decodes iff the true mean SNR covers the scheduled CQI's
        switching threshold.  UEs scheduled at CQI 0 get no transport
        block and report nothing.  Returns the effective (corrected)
        SNR used this round.
        """
        effective = self.olla.effective_snr_db(snr_db)
        cqi = cqi_from_snr(effective)
        sel = np.flatnonzero(cqi > 0)
        if len(sel):
            acked = np.asarray(snr_db)[sel] >= _THRESHOLDS[cqi[sel] - 1]
            self.olla.report_batch(acked, sel=sel)
        self.population.olla_offset_db[:] = self.olla.offsets_db
        return effective

    # -- the city epoch ----------------------------------------------------------

    def _controller_for(
        self, *, per_ue: bool, loc_sample: int, seed: int
    ) -> SkyRANController:
        """Build (and cache) a SkyRAN controller over this population.

        ``per_ue=False`` registers one representative UE per occupied
        REM key cell and dedups at the key-grid pitch — the city path,
        whose work saturates at the key-grid size.  ``per_ue=True``
        registers the *whole* population with dedup off (every UE its
        own REM group) — the per-UE reference the epoch bench measures
        speedups against.

        Representative positions are ground truth (the generator knows
        them), so they enter through ``known_positions`` except for a
        deterministic ``loc_sample``-sized subset that is actually
        flown for and localized, keeping the localization subsystem in
        the measured loop without making it O(population).
        """
        key = (per_ue, int(loc_sample), int(seed))
        cached = self._controllers.get(key)
        if cached is not None:
            return cached

        if per_ue:
            ids = self.population.ue_ids
            xyz = self.population.xyz
        else:
            _keys, first, xyz, _inverse = self.population.unique_rem_cells()
            ids = self.population.ue_ids[first]

        enodeb = ENodeB()
        for i, ue_id in enumerate(ids):
            ue = UE(ue_id=int(ue_id), srs_root=(25 + int(ue_id)) % 100 or 25)
            ue.move_to(float(xyz[i, 0]), float(xyz[i, 1]), float(xyz[i, 2]))
            enodeb.register_ue(ue)

        n_sample = max(0, min(int(loc_sample), len(ids)))
        if n_sample:
            sample = set(
                int(ids[j])
                for j in np.unique(
                    np.round(np.linspace(0, len(ids) - 1, n_sample)).astype(int)
                )
            )
        else:
            sample = set()
        known = {
            int(ue_id): xyz[i].copy()
            for i, ue_id in enumerate(ids)
            if int(ue_id) not in sample
        }

        cfg = SkyRANConfig(
            rem_key_pitch_m=(
                None if per_ue else float(self.population.rem_key_grid.cell_size)
            ),
        )
        controller = SkyRANController(
            self.channel,
            enodeb,
            cfg,
            rem_grid=self.eval_grid,
            seed=seed,
            known_positions=known or None,
        )
        self._controllers[key] = controller
        return controller

    def run_controller_epoch(
        self,
        *,
        budget_m: float = 240.0,
        n_tti: int = 200,
        n_prb: int = PRB_PER_10MHZ,
        olla_rounds: int = 4,
        shard_ues: Optional[int] = None,
        loc_sample: int = 8,
        per_ue: bool = False,
        seed: int = 0,
    ) -> dict:
        """One SkyRAN controller epoch over the city population.

        Drives the real :class:`~repro.core.controller.SkyRANController`
        end to end — localization on a deduped sample, first-epoch
        altitude search, REM seeding/measurement, trajectory planning
        over dedup waypoints, streamed uncertainty-discounted placement
        — then serves the whole population at the chosen position:
        serving SNR, ``olla_rounds`` OLLA rounds and the city MAC.
        ``per_ue=True`` runs the per-UE reference instead (bench
        baseline; dedup off, O(population) REM state).
        """
        controller = self._controller_for(
            per_ue=per_ue, loc_sample=loc_sample, seed=seed
        )
        with perf.span("city.controller_epoch"):
            result = controller.run_epoch(budget_m)
            snr = self.serving_snr_db(result.placement.position.as_array())
            effective = snr
            for _ in range(int(olla_rounds)):
                effective = self.olla_round(snr)
            rates = throughput_mbps(effective, n_prb=1) * BYTES_PER_TTI_PER_MBPS
            mac = run_city_mac(
                self.population, rates, n_tti, n_prb=n_prb, shard_ues=shard_ues
            )
        return {
            "placement": result.placement,
            "epoch": result,
            "n_rem_groups": result.n_rem_groups,
            "altitude_m": result.altitude_m,
            "min_snr_db": result.placement.min_snr_db,
            "mean_snr_db": float(snr.mean()),
            "aggregate_served_mbps": mac.aggregate_served_mbps(),
            "mac": mac,
        }
