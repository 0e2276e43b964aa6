"""Fig. 20 — REM error vs measurement flight time.

SkyRAN vs Uniform on the campus testbed with the same growing flight
-time budget.  Paper: SkyRAN reaches its ~3 dB floor in ~82 s while
Uniform is still at ~7 dB after 120 s.
"""

from __future__ import annotations

from typing import Dict, List

from repro.experiments.common import UAV_SPEED_MPS
from repro.experiments.placement_common import mean_of_records, scheme_point
from repro.experiments.registry import Claim, check, register

PAPER = "SkyRAN ~3 dB by ~82 s; Uniform still ~7 dB at 120 s"


def grid(
    quick: bool = True,
    times_s=(20.0, 40.0, 60.0, 80.0, 100.0, 120.0),
    seeds=(0, 1, 2),
) -> List[Dict]:
    return [
        {"flight_time_s": float(t), "scheme": scheme, "seed": int(seed)}
        for t in times_s
        for scheme in ("skyran", "uniform")
        for seed in seeds
    ]


def point(params: Dict, quick: bool = True) -> Dict:
    """One scheme epoch at one flight-time budget."""
    budget = params["flight_time_s"] * UAV_SPEED_MPS
    out = scheme_point(
        "campus", 7, "uniform", params["scheme"], budget, params["seed"], quick
    )
    out["time_budget_s"] = params["flight_time_s"]
    return out


def aggregate(records: List[Dict], quick: bool = True) -> Dict:
    times = []
    for rec in records:
        if rec["time_budget_s"] not in times:
            times.append(rec["time_budget_s"])
    rows = []
    for t in times:
        sky = mean_of_records(
            [r for r in records if r["time_budget_s"] == t and r["scheme"] == "skyran"]
        )
        uni = mean_of_records(
            [r for r in records if r["time_budget_s"] == t and r["scheme"] == "uniform"]
        )
        rows.append(
            {
                "flight_time_s": t,
                "skyran_err_db": sky["rem_error_db"],
                "uniform_err_db": uni["rem_error_db"],
            }
        )
    return {"rows": rows, "paper": PAPER}


def claims(result: Dict) -> List[Claim]:
    """Both schemes improve with time; SkyRAN sits below Uniform throughout."""
    rows = result["rows"]
    first, last = rows[0], rows[-1]
    out = [
        check(
            f"{last['flight_time_s']:g} s skyran_err_db", last["skyran_err_db"], "<=",
            first["skyran_err_db"], f"{first['flight_time_s']:g} s skyran_err_db",
        )
    ]
    out += [
        check(
            f"{row['flight_time_s']:g} s skyran_err_db", row["skyran_err_db"], "<=",
            row["uniform_err_db"] + 0.5, "uniform_err_db + 0.5",
        )
        for row in rows
    ]
    out.append(
        check(
            f"{first['flight_time_s']:g} s skyran_err_db", first["skyran_err_db"], "<",
            first["uniform_err_db"], "uniform_err_db",
        )
    )
    return out


EXPERIMENT = register(
    "fig20",
    title="Fig. 20 — REM error vs measurement time",
    grid=grid,
    point=point,
    aggregate=aggregate,
    claims=claims,
)
