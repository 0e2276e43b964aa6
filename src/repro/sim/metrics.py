"""Metric helpers shared by benches and tests."""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

import numpy as np

from repro.rem.accuracy import median_abs_error_db


def median_rem_error(
    estimated_maps: Mapping[int, np.ndarray],
    truth_stack: np.ndarray,
    ue_order: Optional[Sequence[int]] = None,
) -> float:
    """Median REM error over UEs, in dB.

    ``truth_stack`` rows must correspond to ``ue_order`` (or the sorted
    keys of ``estimated_maps`` when omitted).  The per-UE error is the
    median absolute per-cell error; the reported value is the median of
    those across UEs — matching the "Median REM Accuracy (dB)" axis of
    Figs. 4, 20, 24, 28 and 30.
    """
    keys = list(ue_order) if ue_order is not None else sorted(estimated_maps)
    if len(keys) != len(truth_stack):
        raise ValueError(
            f"{len(keys)} estimated maps vs {len(truth_stack)} truth maps"
        )
    errors = [
        median_abs_error_db(estimated_maps[k], truth_stack[i])
        for i, k in enumerate(keys)
    ]
    return float(np.median(errors))


def jain_fairness(values: Sequence[float]) -> float:
    """Jain's fairness index ``(sum x)^2 / (n * sum x^2)``.

    1.0 means perfectly equal allocation; ``1/n`` means one user gets
    everything.  Defined as 1.0 for an empty or all-zero allocation
    (nothing is unfairly shared).
    """
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        return 1.0
    denom = float(arr.size * np.sum(arr * arr))
    if denom == 0.0:
        return 1.0
    return float(np.sum(arr) ** 2 / denom)

