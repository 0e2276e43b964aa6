"""Pinned constants of the learned-control subsystem.

Everything that determines the *meaning* of a training table or a
serialized model lives here — feature schemas, the RNG spawn key, model
hyperparameter defaults — so that
:func:`repro.experiments.artifacts.code_fingerprint` can fold it into
the experiment cache key (stale cached points invalidate when learned
components change) and so that model/dataset artifacts can refuse to
load across incompatible schema versions instead of silently predicting
garbage.

This module must stay import-light (stdlib only): the experiment
artifact store imports it on every run, and nothing here may register
anything or touch numpy state.
"""

from __future__ import annotations

#: Version of the feature schemas below.  Bump whenever a feature's
#: definition (not just its name) changes; serialized models and
#: exported datasets carry it and refuse to mix versions.
FEATURE_SCHEMA_VERSION = 1

#: SeedSequence spawn key under which ALL learn-side randomness lives
#: (dataset synthesis streams, model weight init).  The RNG contract:
#: streams are ``SeedSequence(seed, spawn_key=(LEARN_SPAWN_KEY, lane,
#: ...))`` with lane 0 = REM-residual masks, lane 2 = epoch-KPI
#: mobility, lane 3 = model init; *zero* draws happen at inference
#: time.  Lane 1 is unused: it fed the deleted scheduler-state table,
#: and renumbering lanes 2-3 would change every exported epoch-KPI
#: table and every trained MLP.
LEARN_SPAWN_KEY = 0x4C52  # "LR"

#: Features of the REM-residual table (one row per unmeasured REM
#: cell), in column order.  All are computable from REM state alone at
#: inference time — no ground truth, no RNG:
#:
#: ``idw_db``         the IDW estimate at the cell
#: ``d_nearest_m``    distance to the nearest measured cell
#: ``d_mean_k_m``     mean distance of the FEATURE_K nearest measured cells
#: ``spread_k_db``    std-dev of the FEATURE_K nearest measured values
#: ``prior_gap_db``   prior (FSPL seed) minus IDW estimate; 0 with no prior
#: ``measured_frac``  fraction of the grid with at least one measurement
REM_FEATURE_NAMES = (
    "idw_db",
    "d_nearest_m",
    "d_mean_k_m",
    "spread_k_db",
    "prior_gap_db",
    "measured_frac",
)

#: Regression target of the REM-residual table: truth minus IDW, in dB.
REM_TARGET_NAME = "residual_db"

#: Neighbour count the REM feature extractor queries (independent of
#: the interpolator's own ``k_neighbors`` so feature meaning is stable
#: across interpolator configs).
FEATURE_K = 8

#: Cap on the residual correction a learned interpolator may apply per
#: cell, in dB.  Bounds the damage of a bad model: learned REM error is
#: at most IDW error plus this.
RESIDUAL_CAP_DB = 12.0

#: Soft-threshold (dead-band) on residual corrections, in dB: the
#: applied correction is ``sign(p) * max(0, |p| - deadband)``.  Small
#: predictions are mostly the model's learned bias plus noise —
#: applying them degrades maps IDW already handles well — while large
#: predictions (deep-shadow cells flagged by a big prior gap) carry
#: real signal.  The dead-band keeps the wins and drops the noise.
RESIDUAL_DEADBAND_DB = 2.0

#: KPI-trigger feature window: the predictor sees the last
#: TRIGGER_WINDOW KPI samples (as ratios to the epoch reference).
TRIGGER_WINDOW = 8

#: Prediction horizon: the trigger model predicts the *minimum* KPI
#: ratio over the next TRIGGER_HORIZON samples.
TRIGGER_HORIZON = 4

#: Features of the epoch-KPI table (one row per sliding window over a
#: serving-time KPI trace), in column order.  ``r`` = KPI / reference:
#:
#: ``r_last``      most recent ratio
#: ``r_mean``      window mean
#: ``r_min``       window minimum
#: ``r_slope``     least-squares slope per sample over the window
#: ``r_drop``      newest minus oldest ratio
TRIGGER_FEATURE_NAMES = ("r_last", "r_mean", "r_min", "r_slope", "r_drop")

#: Regression target of the epoch-KPI table.
TRIGGER_TARGET_NAME = "min_ratio_ahead"

#: Ratio band outside which a KPI window is considered corrupted (the
#: quality flag of the trigger's trust gate): any sample ratio above
#: this, below zero, or non-finite falls back to the reactive rule.
TRIGGER_TRUST_RATIO = 4.0

#: Model-zoo hyperparameter defaults; part of the fingerprint because
#: a trained-with-different-defaults model is a different model.
MODEL_DEFAULTS = {
    "ridge": {"l2": 1e-3},
    "mlp": {"hidden": 16, "lr": 0.05, "n_iter": 300, "seed": 0},
}

#: Schema tags of the on-disk artifacts.
DATASET_SCHEMA = "repro.learn.dataset/v1"
MODEL_SCHEMA = "repro.learn.model/v1"


def fingerprint_payload() -> dict:
    """The JSON-able constants block folded into ``code_fingerprint``.

    Changing anything here invalidates every cached experiment point —
    which is exactly right: learned components feed experiment records.
    """
    return {
        "feature_schema_version": FEATURE_SCHEMA_VERSION,
        "spawn_key": LEARN_SPAWN_KEY,
        "rem_features": list(REM_FEATURE_NAMES),
        "feature_k": FEATURE_K,
        "residual_cap_db": RESIDUAL_CAP_DB,
        "residual_deadband_db": RESIDUAL_DEADBAND_DB,
        "trigger_features": list(TRIGGER_FEATURE_NAMES),
        "trigger_window": TRIGGER_WINDOW,
        "trigger_horizon": TRIGGER_HORIZON,
        "trigger_trust_ratio": TRIGGER_TRUST_RATIO,
        "model_defaults": MODEL_DEFAULTS,
    }
