"""Shared helpers for the per-figure experiments.

The experiments run at two fidelities: ``quick`` (coarse grids, few
seeds — the CLI default, on which the paper claims are checked; the
whole set finishes in minutes) and full (closer to the paper's
scale).  All knobs funnel through :func:`scenario_for` and
:func:`config_for` so the figures stay consistent with each other:
runs go through :func:`repro.sim.runner.run_simulation` with those
two, and the few points that read controller state after an epoch
build the controller from ``config_for(...)`` directly.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional

import numpy as np

from repro.core.config import SkyRANConfig
from repro.channel.model import ChannelModel
from repro.perf import perf
from repro.sim.scenario import Scenario
from repro.terrain.generators import make_terrain

#: Measurement-flight ground speed (paper: 30 km/h).
UAV_SPEED_MPS = 30.0 / 3.6

#: Terrain raster pitch for quick runs (paper: 1 m; 2 m keeps the
#: whole experiment set tractable while preserving building-scale
#: features).
QUICK_CELL_M = 2.0

#: REM grid pitch for quick runs.
QUICK_REM_CELL_M = 4.0

#: Per-process memo of channel oracles keyed on (terrain, cell,
#: channel kwargs).  The channel — and therefore its LRU truth-map and
#: prior caches — never depends on the scenario seed (only UE
#: placement does), so every grid point of an experiment sweep that
#: revisits a terrain shares one oracle instead of re-tracing the same
#: maps from scratch.  Cached maps are deterministic functions of
#: their key, so sharing never changes results.
_CHANNEL_MEMO: "OrderedDict[tuple, ChannelModel]" = OrderedDict()
_CHANNEL_MEMO_MAX = 6


def shared_channel(terrain: str, cell_size: float, **channel_kwargs) -> ChannelModel:
    """The per-process shared channel oracle for a terrain spec."""
    key = (terrain, float(cell_size), tuple(sorted(channel_kwargs.items())))
    model = _CHANNEL_MEMO.get(key)
    if model is None:
        perf.count("experiments.channel_memo.miss")
        model = ChannelModel(
            make_terrain(terrain, cell_size=cell_size), **channel_kwargs
        )
        _CHANNEL_MEMO[key] = model
        while len(_CHANNEL_MEMO) > _CHANNEL_MEMO_MAX:
            _CHANNEL_MEMO.popitem(last=False)
    else:
        perf.count("experiments.channel_memo.hit")
        _CHANNEL_MEMO.move_to_end(key)
    return model


def scenario_for(
    terrain: str,
    n_ues: int,
    layout: str = "uniform",
    seed: int = 0,
    quick: bool = True,
) -> Scenario:
    """Standard scenario for an experiment.

    Scenarios are fresh (controllers mutate UE state), but the channel
    oracle underneath is shared per process via :func:`shared_channel`
    so repeated grid points on the same terrain keep its LRU map
    caches warm.
    """
    if terrain == "large":
        # 1 km x 1 km: coarser raster and lighter ray sampling.
        cell = 8.0 if quick else 2.0
        kwargs = {"ray_step_m": 2.0 * cell}
    else:
        cell = QUICK_CELL_M if quick else 1.0
        kwargs = {}
    return Scenario.create(
        terrain,
        n_ues=n_ues,
        layout=layout,
        cell_size=cell,
        seed=seed,
        channel=shared_channel(terrain, cell, **kwargs),
    )


def config_for(quick: bool = True, **overrides) -> SkyRANConfig:
    """Standard SkyRAN configuration for an experiment."""
    params = {"rem_cell_size_m": QUICK_REM_CELL_M if quick else 1.0}
    params.update(overrides)
    return SkyRANConfig(**params)


def print_rows(title: str, rows: List[Dict], paper_note: Optional[str] = None) -> None:
    """Uniform experiment printout: a header, rows, and the paper claim."""
    print(f"\n== {title} ==")
    if paper_note:
        print(f"   paper: {paper_note}")
    if not rows:
        print("   (no rows)")
        return
    keys = list(rows[0].keys())
    header = " | ".join(f"{k:>16s}" for k in keys)
    print("   " + header)
    for row in rows:
        cells = []
        for k in keys:
            v = row[k]
            if isinstance(v, float):
                cells.append(f"{v:16.3f}")
            else:
                cells.append(f"{str(v):>16s}")
        print("   " + " | ".join(cells))


def print_claims(report) -> None:
    """The claims table under an experiment's rows: status, name, value, bound."""
    if report:
        print("   claims:")
    for claim, status in report:
        print(
            f"   {status:>13s} | {claim.name:<56s} | "
            f"{claim.value:10.3f} | {claim.bound:10.3f}"
        )


def empirical_cdf(values) -> Dict[str, np.ndarray]:
    """Sorted values and CDF levels for CDF-style figures."""
    v = np.sort(np.asarray(list(values), dtype=float))
    if v.size == 0:
        raise ValueError("cannot build a CDF from no samples")
    levels = np.arange(1, v.size + 1) / v.size
    return {"values": v, "cdf": levels}
