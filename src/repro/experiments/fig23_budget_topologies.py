"""Fig. 23 — relative throughput vs measurement budget, two topologies.

SkyRAN vs Uniform at budgets 200-1000 m for (a) a uniform UE topology
and (b) a clustered one.  Paper: SkyRAN ~2x Uniform at small budgets;
in the clustered topology SkyRAN hits ~95% while Uniform struggles to
70% even at 1000 m, and SkyRAN needs less than half the budget (400 m)
to match Uniform at 1000 m.
"""

from __future__ import annotations

from typing import Dict, List

from repro.experiments.placement_common import mean_of_records, scheme_point
from repro.experiments.registry import Claim, check, register

TOPOLOGIES = (("A-uniform", "uniform"), ("B-clustered", "clustered"))

PAPER = (
    "SkyRAN ~2x Uniform at small budgets; clustered topology widens the gap "
    "(SkyRAN ~0.95 vs Uniform ~0.7 at 1000 m)"
)


def grid(
    quick: bool = True,
    budgets=(200.0, 400.0, 600.0, 800.0, 1000.0),
    seeds=(0, 1, 2),
) -> List[Dict]:
    return [
        {
            "topology": topo_name,
            "layout": layout,
            "budget_m": float(budget),
            "scheme": scheme,
            "seed": int(seed),
        }
        for topo_name, layout in TOPOLOGIES
        for budget in budgets
        for scheme in ("skyran", "uniform")
        for seed in seeds
    ]


def point(params: Dict, quick: bool = True) -> Dict:
    """One scheme epoch for one (topology, budget, seed)."""
    out = scheme_point(
        "campus",
        7,
        params["layout"],
        params["scheme"],
        params["budget_m"],
        params["seed"],
        quick,
    )
    out["topology"] = params["topology"]
    return out


def aggregate(records: List[Dict], quick: bool = True) -> Dict:
    combos = []
    for rec in records:
        combo = (rec["topology"], rec["budget_m"])
        if combo not in combos:
            combos.append(combo)
    rows = []
    curves: Dict[str, list] = {}
    for topo_name, budget in combos:
        sky = mean_of_records(
            [
                r
                for r in records
                if r["topology"] == topo_name
                and r["budget_m"] == budget
                and r["scheme"] == "skyran"
            ]
        )
        uni = mean_of_records(
            [
                r
                for r in records
                if r["topology"] == topo_name
                and r["budget_m"] == budget
                and r["scheme"] == "uniform"
            ]
        )
        rows.append(
            {
                "topology": topo_name,
                "budget_m": budget,
                "skyran_rel": sky["relative_throughput"],
                "uniform_rel": uni["relative_throughput"],
            }
        )
        curves.setdefault(topo_name, []).append(
            (budget, sky["relative_throughput"], uni["relative_throughput"])
        )
    return {"rows": rows, "curves": curves, "paper": PAPER}


def claims(result: Dict) -> List[Claim]:
    """SkyRAN dominates Uniform when clustered and holds or improves with budget."""
    rows = result["rows"]
    clustered = [r for r in rows if r["topology"] == "B-clustered"]
    uniform_topo = [r for r in rows if r["topology"] == "A-uniform"]
    out = [
        check(
            f"B-clustered {row['budget_m']:g} m skyran_rel", row["skyran_rel"], ">",
            row["uniform_rel"], "uniform_rel",
        )
        for row in clustered
    ]
    first, last = uniform_topo[0], uniform_topo[-1]
    out.append(
        check(
            f"A-uniform {last['budget_m']:g} m skyran_rel", last["skyran_rel"], ">=",
            first["skyran_rel"] - 0.05, f"A-uniform {first['budget_m']:g} m skyran_rel - 0.05",
        )
    )
    out.append(
        check(
            f"B-clustered {clustered[-1]['budget_m']:g} m skyran_rel",
            clustered[-1]["skyran_rel"], ">=", 0.7,
        )
    )
    return out


EXPERIMENT = register(
    "fig23",
    title="Fig. 23 — relative throughput vs budget, topologies A/B",
    grid=grid,
    point=point,
    aggregate=aggregate,
    claims=claims,
)
