"""City-scale scenario: placement, link adaptation and MAC at 10⁵ UEs.

Ties the three city layers together into one steady-state epoch:

* **Placement** streams map tiles for the population's *unique REM
  cells* (not all UEs) through the max–min fold, so the placement
  surface costs O(unique cells × grid-band), and unique cells saturate
  at the key-grid size as the population grows.
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

from repro.channel.interference import (
    fleet_rx_power_dbm,
    interference_penalty_db,
    sinr_db_from_rx_stack,
)
from repro.channel.model import ChannelModel
from repro.city.mac import CityMACResult, run_city_mac
from repro.city.population import UEPopulation
from repro.core.placement import PlacementResult
from repro.geo.grid import GridSpec
from repro.lte.linkadapt import OLLABank
from repro.lte.throughput import PRB_PER_10MHZ, _THRESHOLDS, cqi_from_snr, throughput_mbps
from repro.perf import perf
from repro.rem.streaming import (
    streamed_interference_max_min_placement,
    streamed_max_min_placement,
)
from repro.terrain.generators import make_terrain
from repro.traffic.generators import BYTES_PER_TTI_PER_MBPS


@dataclass
class CityScenario:
    """A terrain, a channel tuned for scale, and a flat UE population."""

    terrain: object
    channel: ChannelModel
    population: UEPopulation
    altitude_m: float
    eval_grid: GridSpec
    olla: OLLABank = field(init=False)

    def __post_init__(self) -> None:
        self.olla = OLLABank(n_ues=self.population.n_ues)
        self._controllers: Dict[Tuple, object] = {}

    @classmethod
    def create(
        cls,
        *,
        terrain_name: str = "large",
        cell_size_m: float = 4.0,
        n_ues: int = 1000,
        seed: int = 0,
        altitude_m: float = 60.0,
        eval_cell_m: float = 16.0,
        rem_cell_m: float = 32.0,
        full_buffer_fraction: float = 0.5,
        cbr_rate_mbps: float = 2.0,
    ) -> "CityScenario":
        """Build a city scenario on a named terrain.

        ``eval_cell_m`` sets the placement-surface resolution and
        ``rem_cell_m`` the population's REM key pitch (coarser keys →
        fewer unique map cells → cheaper placement).
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
            altitude_m=float(altitude_m),
            eval_grid=eval_grid,
        )

    # -- placement ---------------------------------------------------------------

    def place(
        self,
        *,
        tile_rows: int = 16,
        interferer_positions=(),
        activity=None,
    ) -> PlacementResult:
        """Max–min placement over the population's unique REM cells.

        Streams SNR-map tiles for one representative UE per occupied
        REM key cell and folds them into the placement surface — peak
        memory O(unique cells × band), never O(population × grid).

        With ``interferer_positions`` (other fleet UAVs, fixed for the
        fold) each representative's rows are debited by its
        interference penalty before the max–min fold, so the argmax is
        SINR-aware; an empty list takes the exact SNR path.
        """
        interferers = [np.asarray(p, dtype=float) for p in interferer_positions]
        _keys, reps, _inverse = self.population.unique_rem_cells()
        perf.count("city.placement_rem_cells", len(reps))
        with perf.span("city.place"):
            tiles = self.channel.iter_snr_map_tiles(
                list(reps), self.altitude_m, self.eval_grid, tile_rows=tile_rows
            )
            if not interferers:
                return streamed_max_min_placement(
                    self.eval_grid, tiles, self.altitude_m
                )
            penalty = interference_penalty_db(
                self.channel, list(reps), interferers, activity
            )
            return streamed_interference_max_min_placement(
                self.eval_grid, tiles, self.altitude_m, penalty
            )

    # -- link adaptation ---------------------------------------------------------

    def serving_snr_db(self, uav_xyz: np.ndarray) -> np.ndarray:
        """Mean serving SNR of every UE from the given UAV position."""
        with perf.span("city.serving_snr"):
            return self.channel.snr_to_many(uav_xyz, self.population.xyz)

    def fleet_sinr_db(
        self,
        uav_positions,
        serving: np.ndarray,
        *,
        activity=None,
        carriers=None,
    ) -> np.ndarray:
        """Per-UE SINR under a fleet of co-channel sky cells.

        Ray-traces the (n_uav, n_rep) rx-power stack only at one
        representative per occupied REM key cell, broadcasts it onto
        the full population through the inverse index, and runs the
        exact batched SINR kernel with the per-UE ``serving`` array.
        Links are evaluated at REM-key resolution — the same
        approximation the placement surface already makes — so at a
        fine key pitch (one UE per cell) this is bit-identical to
        tracing every UE.
        """
        uavs = [np.asarray(p, dtype=float) for p in uav_positions]
        serving = np.asarray(serving, dtype=np.int64)
        if serving.shape != (self.population.n_ues,):
            raise ValueError(
                f"serving must have one entry per UE "
                f"({self.population.n_ues}), got shape {serving.shape}"
            )
        if len(uavs) and (serving.min() < 0 or serving.max() >= len(uavs)):
            raise ValueError("serving indices out of range for the fleet")
        _keys, reps, inverse = self.population.unique_rem_cells()
        perf.count("city.fleet_rem_cells", len(reps))
        with perf.span("city.fleet_sinr"):
            rx = fleet_rx_power_dbm(self.channel, uavs, list(reps))
            return sinr_db_from_rx_stack(
                self.channel.link,
                rx[:, inverse],
                serving,
                activity=activity,
                carriers=carriers,
            )

    def olla_round(
        self, snr_db: np.ndarray, *, fading_margin_db: float = 0.0
    ) -> np.ndarray:
        """One deterministic HARQ feedback round through the OLLA bank.

        The eNodeB schedules at the OLLA-corrected SNR; the block
        decodes iff the true mean SNR covers the scheduled CQI's
        switching threshold minus ``fading_margin_db``.  UEs scheduled
        at CQI 0 get no transport block and report nothing — matching
        the scalar :func:`~repro.lte.linkadapt.simulate_link` loop.
        Returns the effective (corrected) SNR used this round.
        """
        effective = self.olla.effective_snr_db(snr_db)
        cqi = cqi_from_snr(effective)
        sel = np.flatnonzero(cqi > 0)
        if len(sel):
            needed = _THRESHOLDS[cqi[sel] - 1] - fading_margin_db
            self.olla.report_batch(np.asarray(snr_db)[sel] >= needed, sel=sel)
        self.population.olla_offset_db[:] = self.olla.offsets_db
        return effective

    # -- one epoch ---------------------------------------------------------------

    def run_epoch(
        self,
        *,
        n_tti: int = 200,
        n_prb: int = PRB_PER_10MHZ,
        olla_rounds: int = 4,
        shard_ues: Optional[int] = None,
    ) -> dict:
        """Place, adapt and serve one epoch; returns summary metrics."""
        placement = self.place()
        snr = self.serving_snr_db(placement.position.as_array())
        effective = snr
        for _ in range(int(olla_rounds)):
            effective = self.olla_round(snr)
        rates = throughput_mbps(effective, n_prb=1) * BYTES_PER_TTI_PER_MBPS
        mac = run_city_mac(
            self.population, rates, n_tti, n_prb=n_prb, shard_ues=shard_ues
        )
        return {
            "placement": placement,
            "min_snr_db": placement.min_snr_db,
            "mean_snr_db": float(snr.mean()),
            "aggregate_served_mbps": mac.aggregate_served_mbps(),
            "mac": mac,
        }

    # -- the full controller epoch ------------------------------------------------

    def _controller_for(self, *, per_ue: bool, loc_sample: int, seed: int):
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
        from repro.core.config import SkyRANConfig
        from repro.core.controller import SkyRANController
        from repro.lte.enodeb import ENodeB
        from repro.lte.ue import UE

        key = (per_ue, int(loc_sample), int(seed))
        cached = self._controllers.get(key)
        if cached is not None:
            return cached

        if per_ue:
            ids = self.population.ue_ids
            xyz = self.population.xyz
        else:
            _keys, first, _inverse = np.unique(
                self.population.rem_key, return_index=True, return_inverse=True
            )
            ids = self.population.ue_ids[first]
            xyz = self.population.xyz[first]

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
        """One *full* SkyRAN controller epoch over the city population.

        Unlike :meth:`run_epoch` (steady-state placement + MAC only),
        this drives the real :class:`~repro.core.controller.
        SkyRANController` end to end — localization on a deduped
        sample, first-epoch altitude search, REM seeding/measurement,
        trajectory planning over dedup waypoints, streamed
        uncertainty-discounted placement — then serves the whole
        population through OLLA and the city MAC at the chosen
        position.  ``per_ue=True`` runs the per-UE reference instead
        (bench baseline; dedup off, O(population) REM state).
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
