"""Training and evaluation harnesses for the learned components.

Thin, deterministic glue between the dataset factory and the adapters:
fit a model on exported (or freshly built) tables, then measure it the
way the paper measures things — REM accuracy in median |error| dB
against held-out truth maps, and trigger quality as (fire step, minimum
KPI ratio endured) on held-out KPI traces.  The ``learned_control``
experiment and the ``python -m repro.learn`` CLI both call these.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.learn.constants import MODEL_DEFAULTS
from repro.learn.dataset import (
    DATASET_ALTITUDE_M,
    QUICK_CELL_M,
    QUICK_REM_FACTOR,
    Dataset,
    kpi_trace,
)
from repro.learn.models import make_model


def train_on(dataset: Dataset, kind: str = "ridge", **hyper):
    """Fit a model of ``kind`` on a dataset; returns the fitted model.

    Hyperparameters default to ``MODEL_DEFAULTS[kind]``; training is
    deterministic (see :mod:`repro.learn.models`).
    """
    params = dict(MODEL_DEFAULTS.get(kind, {}))
    params.update(hyper)
    model = make_model(kind, **params)
    model.fit(dataset.X, dataset.y)
    return model


def save_trained(model, dataset: Dataset, path: "Path | str") -> Path:
    """Serialize a model trained on ``dataset`` with full provenance."""
    from repro.experiments.artifacts import code_fingerprint
    from repro.learn.models import save_model

    return save_model(
        model,
        path,
        feature_names=dataset.feature_names,
        target_name=dataset.target_name,
        fingerprint=code_fingerprint(),
    )


def rem_error_rows(
    terrain: str,
    seed: int,
    model_path: Optional[str],
    n_ues: int = 3,
    cell_size_m: float = QUICK_CELL_M,
    measured_frac: float = 0.06,
) -> List[Dict]:
    """Median REM |error| of idw / learned / zero-learned on held-out truth.

    Builds one held-out scenario (a seed the model never trained on),
    reveals ``measured_frac`` of each truth map, and interpolates the
    rest with plain IDW, the learned interpolator pointed at
    ``model_path``, and the learned interpolator with no model (the
    degeneration anchor — its row must equal IDW's exactly).  Every
    variant gets the FSPL prior as ``fallback``, matching how
    :meth:`repro.rem.map.REM.interpolated` interpolates in the
    controller (and how the training tables were built — the
    ``prior_gap_db`` feature must mean the same thing at train and
    serve time).
    """
    from repro.learn.adapters import clear_model_cache
    from repro.rem.accuracy import median_abs_error_db
    from repro.rem.interpolate import make_interpolator
    from repro.sim.scenario import Scenario

    import repro.learn  # noqa: F401  (registers the "learned" interpolator)

    scenario = Scenario.create(
        terrain, n_ues=n_ues, cell_size=cell_size_m, seed=seed
    )
    grid = scenario.terrain.grid.coarsen(QUICK_REM_FACTOR)
    truth = scenario.truth_maps(DATASET_ALTITUDE_M, grid)
    rng = np.random.default_rng(seed)
    variants = [
        ("idw", make_interpolator("idw")),
        ("learned", make_interpolator("learned", model_path=model_path)),
        ("learned-zero", make_interpolator("learned")),
    ]
    errs: Dict[str, List[float]] = {label: [] for label, _ in variants}
    clear_model_cache()
    for ue_idx, ue in enumerate(scenario.ues):
        prior = scenario.channel.link.snr_db(
            scenario.channel.fspl_prior_map(ue.xyz, DATASET_ALTITUDE_M, grid)
        )
        values = np.full(grid.shape, np.nan)
        idx = rng.choice(
            grid.num_cells,
            size=max(4, int(grid.num_cells * measured_frac)),
            replace=False,
        )
        values.flat[idx] = truth[ue_idx].flat[idx]
        for label, interp in variants:
            est = interp.interpolate(grid, values, fallback=prior)
            errs[label].append(median_abs_error_db(est, truth[ue_idx]))
    clear_model_cache()
    return [
        {"interp": label, "median_err_db": float(np.median(errs[label]))}
        for label, _ in variants
    ]


def trigger_trace_metrics(
    ratios: np.ndarray,
    margin: float = 0.1,
    debounce: int = 1,
    predictor=None,
) -> Tuple[Optional[int], float]:
    """Feed one normalized KPI trace through an epoch trigger.

    Returns ``(fire_step, min_ratio_endured)`` — the step index at
    which the trigger fired (None if it never did) and the lowest
    ratio served through up to and including that step.  A learned
    trigger that fires earlier endures a higher (or equal) minimum
    than the reactive rule on the same trace; it can never endure a
    lower one, because the predictor is only consulted on samples the
    reactive rule declined.
    """
    from repro.core.epoch import EpochTrigger

    trig = EpochTrigger(margin, debounce=debounce, predictor=predictor)
    trig.reset(1.0)
    ratios = np.asarray(ratios, dtype=float)
    for i, r in enumerate(ratios):
        if trig.update(float(r), t_s=float(i)):
            return i, float(ratios[: i + 1].min())
    return None, float(ratios.min()) if len(ratios) else 1.0


def trigger_eval(
    terrain: str,
    eval_seed: int,
    model,
    margin: float = 0.1,
    n_ues: int = 6,
    n_steps: int = 64,
    faults=None,
) -> Dict:
    """Reactive vs learned trigger on one held-out KPI trace.

    Returns a row with both fire steps and both endured minima, plus
    the ``learn.*`` counter deltas the learned pass produced (so
    callers can assert fallbacks actually fired under chaos).
    """
    from repro.learn.trigger import CollapsePredictor
    from repro.perf import perf
    from repro.sim.scenario import Scenario

    scenario = Scenario.create(
        terrain, n_ues=n_ues, cell_size=QUICK_CELL_M, seed=eval_seed
    )
    ratios = kpi_trace(scenario, eval_seed, n_steps=n_steps)
    reactive_fire, reactive_min = trigger_trace_metrics(ratios, margin=margin)
    predictor = CollapsePredictor(
        model=model, threshold=1.0 - margin, faults=faults
    )
    before = perf.counters()
    learned_fire, learned_min = trigger_trace_metrics(
        ratios, margin=margin, predictor=predictor
    )
    deltas = perf.counters_since(before)
    return {
        "terrain": terrain,
        "eval_seed": int(eval_seed),
        "reactive_fire": reactive_fire,
        "reactive_min": reactive_min,
        "learned_fire": learned_fire,
        "learned_min": learned_min,
        "learn_counters": {
            k: v for k, v in deltas.items() if k.startswith("learn.")
        },
    }
