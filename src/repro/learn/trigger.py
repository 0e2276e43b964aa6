"""The learned epoch trigger: predict the collapse before it happens.

The reactive Section 3.5 rule re-plans only *after* aggregate
performance has already fallen 10% below the epoch reference.  The
:class:`CollapsePredictor` watches the same KPI-ratio history the
trigger keeps and fires early when a trained model projects the
*minimum* ratio over the next ``TRIGGER_HORIZON`` samples below the
reactive threshold — trading a slightly earlier (never later) re-plan
for the throughput trough the reactive rule would have served through.

Trust gates — the predictor refuses (and the reactive rule stands
alone) whenever its input cannot be trusted, each refusal counted under
``learn.fallback.*``:

``fault_gate``     a fault injector is active: corrupted KPI samples in,
                   garbage predictions out, so chaos runs degrade to
                   exactly the reactive baseline (bit-identical — the
                   predictor touches nothing on this path)
``no_model``       no model given
``cold_start``     fewer than ``TRIGGER_WINDOW`` samples this epoch
``untrusted``      a window ratio is non-finite, negative, or above
                   ``TRIGGER_TRUST_RATIO``
``nonfinite_pred`` the model returned a non-finite projection

A consulted-and-declined window counts ``learn.trigger.quiet``; a fire
counts ``learn.trigger.predictive_fire``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.learn.constants import TRIGGER_TRUST_RATIO, TRIGGER_WINDOW
from repro.learn.features import trigger_features
from repro.perf import perf


@dataclass
class CollapsePredictor:
    """Consulted by :class:`~repro.core.epoch.EpochTrigger` each sample
    the reactive rule declines; ``True`` from :meth:`should_fire` means
    re-plan now.

    Attributes
    ----------
    model:
        A fitted epoch-KPI model (``predict`` over
        ``TRIGGER_FEATURE_NAMES`` rows), or None (always refuses).
    threshold:
        Fire when the projected minimum ratio falls below this —
        wired to the trigger's own ``1 - margin`` so the learned and
        reactive rules share one definition of "collapsed".
    faults:
        The run's fault injector (or None).  Checked live on every
        call: the predictor refuses while ``faults.active`` is true.
    """

    model: Optional[object] = None
    threshold: float = 0.9
    faults: Optional[object] = field(default=None, repr=False)

    def should_fire(self, ratios: Sequence[float]) -> bool:
        """Project the KPI window; True to trigger a new epoch early.

        ``ratios`` is the trigger's recent history divided by the epoch
        reference, oldest first (any length; only the last
        ``TRIGGER_WINDOW`` samples are read).
        """
        if self.faults is not None and getattr(self.faults, "active", False):
            perf.count("learn.fallback.fault_gate")
            return False
        if self.model is None:
            perf.count("learn.fallback.no_model")
            return False
        if len(ratios) < TRIGGER_WINDOW:
            perf.count("learn.fallback.cold_start")
            return False
        window = np.asarray(ratios[-TRIGGER_WINDOW:], dtype=float)
        if (
            not np.isfinite(window).all()
            or (window < 0.0).any()
            or (window > TRIGGER_TRUST_RATIO).any()
        ):
            perf.count("learn.fallback.untrusted")
            return False
        pred = float(np.asarray(self.model.predict(trigger_features(window))).ravel()[0])
        if not np.isfinite(pred):
            perf.count("learn.fallback.nonfinite_pred")
            return False
        if pred < self.threshold:
            perf.count("learn.trigger.predictive_fire")
            return True
        perf.count("learn.trigger.quiet")
        return False

