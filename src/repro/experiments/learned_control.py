"""The ``learned_control`` ablation: do the learned components earn it?

Not a paper figure — the reproduction's evaluation of the
:mod:`repro.learn` subsystem against the paper's analytic baselines,
with the same train/test hygiene a learned result needs:

* models are trained inside the point function on *training seeds*
  only, from the deterministic dataset factory;
* every metric is measured on a *held-out* seed the model never saw;
* the zero-model learned interpolator rides along as the degeneration
  anchor — its REM-error row must equal plain IDW's exactly, or the
  residual plumbing is leaking;
* one chaos column re-runs the learned trigger with an active fault
  injector, where the trust gate must hand control back to the
  reactive rule (equal fire step and endured minimum, nonzero
  ``learn.fallback.*`` counts).

Train + eval per point stays in-process and deterministic, so cached
artifact records regenerate bit-identically like every other figure.
The point ignores ``quick``: the dataset factory and the evaluators
run at their default (quick) cell size, so quick and full rows are
identical.

On every held-out seed (2-6, campus and NYC) the learned interpolator
is never worse than IDW and the learned trigger endures no lower a
minimum than the reactive rule, so the subsystem stays; the claims pin
both, plus the zero-model anchor.
"""

from __future__ import annotations

import tempfile
from typing import Dict, List

from repro.experiments.registry import Claim, check, register

#: Seeds the models train on; evaluation seeds must avoid these.
TRAIN_SEEDS = (0, 1)


def grid(quick: bool = True, seeds=(2, 3, 4, 5, 6), terrains=("campus", "nyc")) -> List[Dict]:
    return [
        {"terrain": str(t), "eval_seed": int(s)} for t in terrains for s in seeds
    ]


def point(params: Dict, quick: bool = True) -> Dict:
    """Train on TRAIN_SEEDS, evaluate everything on the held-out seed."""
    from repro.faults.injector import as_injector
    from repro.faults.plan import FaultPlan
    from repro.learn.dataset import build_epoch_kpi, build_rem_residual
    from repro.learn.evaluate import rem_error_rows, save_trained, train_on, trigger_eval

    terrain = params["terrain"]
    eval_seed = int(params["eval_seed"])
    if eval_seed in TRAIN_SEEDS:
        raise ValueError(f"eval seed {eval_seed} is a training seed")

    rem_table = build_rem_residual(terrains=(terrain,), seeds=TRAIN_SEEDS)
    rem_model = train_on(rem_table, "mlp")
    kpi_table = build_epoch_kpi(terrains=(terrain,), seeds=TRAIN_SEEDS)
    trig_model = train_on(kpi_table, "ridge")

    with tempfile.TemporaryDirectory() as td:
        model_path = save_trained(rem_model, rem_table, f"{td}/rem.npz")
        rem_rows = rem_error_rows(terrain, eval_seed, str(model_path))

    clean = trigger_eval(terrain, eval_seed, trig_model)
    chaos_injector = as_injector(FaultPlan(snr_corrupt_rate=0.2, seed=eval_seed))
    chaos = trigger_eval(terrain, eval_seed, trig_model, faults=chaos_injector)

    return {
        "terrain": terrain,
        "eval_seed": eval_seed,
        "rem": rem_rows,
        "trigger": clean,
        "trigger_chaos": chaos,
    }


def aggregate(records: List[Dict], quick: bool = True) -> Dict:
    rows = []
    for rec in records:
        errs = {r["interp"]: r["median_err_db"] for r in rec["rem"]}
        trig, chaos = rec["trigger"], rec["trigger_chaos"]
        rows.append(
            {
                "terrain": rec["terrain"],
                "eval_seed": rec["eval_seed"],
                "idw_err_db": errs["idw"],
                "learned_err_db": errs["learned"],
                "zero_err_db": errs["learned-zero"],
                "reactive_fire": trig["reactive_fire"],
                "learned_fire": trig["learned_fire"],
                "reactive_min": trig["reactive_min"],
                "learned_min": trig["learned_min"],
                "chaos_fallbacks": sum(
                    v
                    for k, v in chaos["learn_counters"].items()
                    if k.startswith("learn.fallback.")
                ),
                "chaos_min": chaos["learned_min"],
            }
        )
    return {
        "rows": rows,
        "paper": (
            "not a paper figure: the reproduction's ablation of learned "
            "RAN control vs the paper's analytic IDW + reactive trigger"
        ),
    }


def claims(result: Dict) -> List[Claim]:
    """Per held-out row: learned REMs no worse than IDW, the zero model
    equal to IDW, and the learned trigger enduring no lower a minimum."""
    out = []
    for row in result["rows"]:
        where = f"{row['terrain']} seed {row['eval_seed']}"
        out += [
            check(f"{where} learned_err_db", row["learned_err_db"], "<=",
                  row["idw_err_db"], "idw_err_db"),
            check(f"{where} zero_err_db", row["zero_err_db"], "==",
                  row["idw_err_db"], "idw_err_db"),
            check(f"{where} learned_min", row["learned_min"], ">=",
                  row["reactive_min"], "reactive_min"),
        ]
    return out


EXPERIMENT = register(
    name="learned-control",
    title="Learned control vs analytic baselines (held-out seeds)",
    grid=grid,
    point=point,
    aggregate=aggregate,
    claims=claims,
)
