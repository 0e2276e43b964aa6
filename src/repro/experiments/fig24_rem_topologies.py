"""Fig. 24 — median REM accuracy at a 1000 m budget, two topologies.

The REM-quality counterpart of Fig. 23: at the full 1000 m budget,
SkyRAN's maps are under ~3 dB while Uniform's stay several dB worse,
especially in the clustered topology.
"""

from __future__ import annotations

from typing import Dict, List

from repro.experiments.placement_common import mean_of_records, scheme_point
from repro.experiments.registry import Claim, check, register

BUDGET_M = 1000.0

TOPOLOGIES = (("A-uniform", "uniform"), ("B-clustered", "clustered"))

PAPER = "SkyRAN under ~3 dB at 1000 m; Uniform several dB worse, more so when clustered"


def grid(quick: bool = True, seeds=(0, 1, 2)) -> List[Dict]:
    return [
        {"topology": topo_name, "layout": layout, "scheme": scheme, "seed": int(seed)}
        for topo_name, layout in TOPOLOGIES
        for scheme in ("skyran", "uniform")
        for seed in seeds
    ]


def point(params: Dict, quick: bool = True) -> Dict:
    """One scheme epoch at the full 1000 m budget."""
    out = scheme_point(
        "campus", 7, params["layout"], params["scheme"], BUDGET_M, params["seed"], quick
    )
    out["topology"] = params["topology"]
    return out


def aggregate(records: List[Dict], quick: bool = True) -> Dict:
    topologies = []
    for rec in records:
        if rec["topology"] not in topologies:
            topologies.append(rec["topology"])
    rows = []
    for topo_name in topologies:
        sky = mean_of_records(
            [r for r in records if r["topology"] == topo_name and r["scheme"] == "skyran"]
        )
        uni = mean_of_records(
            [r for r in records if r["topology"] == topo_name and r["scheme"] == "uniform"]
        )
        rows.append(
            {
                "topology": topo_name,
                "skyran_err_db": sky["rem_error_db"],
                "uniform_err_db": uni["rem_error_db"],
            }
        )
    return {"rows": rows, "paper": PAPER}


def claims(result: Dict) -> List[Claim]:
    """SkyRAN's maps at least as accurate as Uniform's, under a loose absolute bound.

    The paper shows < 3 dB on its testbed; the synthetic shadowing
    floor sits higher (see EXPERIMENTS.md), hence the 9 dB sanity bound.
    """
    out = []
    for row in result["rows"]:
        label = f"{row['topology']} skyran_err_db"
        out.append(
            check(label, row["skyran_err_db"], "<=", row["uniform_err_db"] + 0.5,
                  "uniform_err_db + 0.5")
        )
        out.append(check(label, row["skyran_err_db"], "<", 9.0))
    return out


EXPERIMENT = register(
    "fig24",
    title="Fig. 24 — median REM accuracy at 1000 m budget",
    grid=grid,
    point=point,
    aggregate=aggregate,
    claims=claims,
)
