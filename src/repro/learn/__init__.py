"""Learned RAN control: training, inference, and evaluation.

Importing this package is the opt-in switch: it registers the
``"learned"`` interpolator in the REM registry (nothing else touches
global state).  The default simulation path never imports
``repro.learn``, so default-config runs are byte-identical with or
without this subsystem installed — the experiment harness and the CLI
import it; ``repro.sim`` does not.

Layers:

- :mod:`repro.learn.dataset` — deterministic training-table exports
- :mod:`repro.learn.models` — the pure-numpy model zoo
- :mod:`repro.learn.adapters` / :mod:`repro.learn.trigger` — inference
  adapters behind the existing registries
- :mod:`repro.learn.evaluate` — the ablation/eval harness behind
  ``python -m repro.learn``
"""

from __future__ import annotations

from repro.learn.adapters import LearnedInterpolator, clear_model_cache
from repro.learn.constants import FEATURE_SCHEMA_VERSION, LEARN_SPAWN_KEY
from repro.learn.models import load_model, make_model, save_model, zero_model
from repro.learn.trigger import CollapsePredictor
from repro.rem.interpolate import available_interpolators, register_interpolator

if "learned" not in available_interpolators():
    register_interpolator("learned", LearnedInterpolator)

__all__ = [
    "CollapsePredictor",
    "FEATURE_SCHEMA_VERSION",
    "LEARN_SPAWN_KEY",
    "LearnedInterpolator",
    "clear_model_cache",
    "load_model",
    "make_model",
    "save_model",
    "zero_model",
]
