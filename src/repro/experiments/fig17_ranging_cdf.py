"""Fig. 17 — ToF ranging error CDF.

Ranging errors for UEs in open / building-adjacent / forested spots
over 20 m localization flights.  Paper: median 4-5 m with K = 4
upsampling at 10 MHz, roughly independent of the UE's environment.

Each flight's SRS receptions run through the batched channel/Eq. 1-3
kernels (via :func:`repro.flight.sampler.collect_gps_ranges`), which
are bit-identical to the retained per-symbol reference under the
documented RNG draw schedule — so cached artifacts regenerate
unchanged.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.experiments.common import empirical_cdf
from repro.experiments.loc_common import campus_scenario, localization_trial
from repro.experiments.registry import Claim, check, register

FLIGHT_M = 20.0

PAPER = "median ranging error ~4-5 m over a 20 m flight, across environments"


def grid(quick: bool = True, seeds=(0, 1, 2, 3, 4)) -> List[Dict]:
    return [{"seed": int(s)} for s in seeds]


def point(params: Dict, quick: bool = True) -> Dict:
    """Per-UE ranging errors from one localization flight."""
    scenario = campus_scenario(seed=0, quick=quick)
    ranging, _ = localization_trial(scenario, FLIGHT_M, params["seed"])
    return {"ranging": {str(ue_id): list(errs) for ue_id, errs in ranging.items()}}


def aggregate(records: List[Dict], quick: bool = True) -> Dict:
    pooled: Dict[int, list] = {}
    for rec in records:
        for ue_id, errs in rec["ranging"].items():
            pooled.setdefault(int(ue_id), []).extend(errs)
    rows = []
    cdfs = {}
    for ue_id in sorted(pooled):
        errs = np.asarray(pooled[ue_id])
        cdfs[ue_id] = empirical_cdf(errs)
        rows.append(
            {
                "ue": ue_id,
                "median_m": float(np.median(errs)),
                "p90_m": float(np.percentile(errs, 90)),
                "n_samples": len(errs),
            }
        )
    all_errs = np.concatenate([np.asarray(v) for v in pooled.values()])
    rows.append(
        {
            "ue": "all",
            "median_m": float(np.median(all_errs)),
            "p90_m": float(np.percentile(all_errs, 90)),
            "n_samples": len(all_errs),
        }
    )
    return {"rows": rows, "cdfs": cdfs, "paper": PAPER}


def claims(result: Dict) -> List[Claim]:
    """Metre-scale ranging from a 20 m flight (paper: 4-5 m median)."""
    all_row = next(r for r in result["rows"] if r["ue"] == "all")
    return [
        check("all median_m", all_row["median_m"], "<", 6.0),
        check("all p90_m", all_row["p90_m"], "<", 25.0),
    ]


EXPERIMENT = register(
    "fig17",
    title="Fig. 17 — ToF ranging error CDF",
    grid=grid,
    point=point,
    aggregate=aggregate,
    claims=claims,
)
