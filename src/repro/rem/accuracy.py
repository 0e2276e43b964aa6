"""REM accuracy metrics.

The paper scores an estimated REM by the *median* absolute error in dB
against the exhaustively measured ground truth (Figs. 4, 6, 20, 24,
28, 30).
"""

from __future__ import annotations

import numpy as np


def rem_error_map(estimated: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Per-cell absolute error in dB; NaN where either map is NaN."""
    est = np.asarray(estimated, dtype=float)
    tru = np.asarray(truth, dtype=float)
    if est.shape != tru.shape:
        raise ValueError(f"shape mismatch: {est.shape} vs {tru.shape}")
    return np.abs(est - tru)


def median_abs_error_db(estimated: np.ndarray, truth: np.ndarray) -> float:
    """Median absolute per-cell error in dB, ignoring NaN cells.

    Returns ``inf`` if no cell is comparable (an estimate with no
    information is infinitely wrong, which keeps optimizers honest).
    """
    err = rem_error_map(estimated, truth)
    finite = err[np.isfinite(err)]
    if finite.size == 0:
        return float("inf")
    return float(np.median(finite))
