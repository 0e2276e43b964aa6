"""Section 2.3 — why REMs rather than throughput maps.

The paper argues REMs (SNR maps) give a "lower-level, higher fidelity
view of the actual channel conditions... without incorporating
MAC-layer artifacts like rate adaptation".  We quantify that: build
both map types from the same sparse measurements and compare how well
each, after interpolation, predicts the *other* quantity.  SNR
interpolates smoothly and converts to throughput cleanly; throughput
maps lose information at the CQI plateaus (many SNRs map to the same
rate), so the SNR->interpolate->convert path wins.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.experiments.common import scenario_for
from repro.experiments.registry import Claim, check, register
from repro.lte.throughput import throughput_mbps
from repro.rem.idw import idw_interpolate

ALTITUDE_M = 60.0

PAPER = "REMs give a higher-fidelity substrate than throughput maps (Section 2.3)"


def grid(quick: bool = True, seed: int = 0) -> List[Dict]:
    return [{"seed": int(seed)}]


def point(params: Dict, quick: bool = True) -> Dict:
    """Throughput-prediction error: REM-first vs throughput-map-first."""
    seed = params["seed"]
    scenario = scenario_for("campus", n_ues=1, seed=seed, quick=quick)
    grid_ = scenario.grid.coarsen(2)
    ue = scenario.ues[0]
    snr_truth = scenario.channel.snr_map(ue.xyz, ALTITUDE_M, grid_)
    tput_truth = throughput_mbps(snr_truth)

    rng = np.random.default_rng(seed)
    rows = []
    for frac in (0.02, 0.05, 0.1):
        n = max(4, int(frac * grid_.num_cells))
        idx = rng.choice(grid_.num_cells, n, replace=False)

        snr_sparse = np.full(grid_.shape, np.nan)
        snr_sparse.flat[idx] = snr_truth.flat[idx]
        rem_path = throughput_mbps(idw_interpolate(grid_, snr_sparse))

        tput_sparse = np.full(grid_.shape, np.nan)
        tput_sparse.flat[idx] = tput_truth.flat[idx]
        tput_path = idw_interpolate(grid_, tput_sparse)

        rem_err = float(np.nanmedian(np.abs(rem_path - tput_truth)))
        tput_err = float(np.nanmedian(np.abs(tput_path - tput_truth)))
        rows.append(
            {
                "measured_frac": frac,
                "rem_path_err_mbps": rem_err,
                "tputmap_path_err_mbps": tput_err,
            }
        )
    return {"rows": rows}


def aggregate(records: List[Dict], quick: bool = True) -> Dict:
    return {"rows": records[0]["rows"], "paper": PAPER}


def claims(result: Dict) -> List[Claim]:
    """Predicting throughput through the SNR map beats interpolating it directly."""
    return [
        check(
            f"{row['measured_frac']:g} rem_path_err_mbps", row["rem_path_err_mbps"], "<=",
            row["tputmap_path_err_mbps"] + 1e-9, "tputmap_path_err_mbps + 1e-9",
        )
        for row in result["rows"]
    ]


EXPERIMENT = register(
    "rem-vs-tputmap",
    title="Section 2.3 — REM vs throughput-map fidelity",
    grid=grid,
    point=point,
    aggregate=aggregate,
    claims=claims,
)
