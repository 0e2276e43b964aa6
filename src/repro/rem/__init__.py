"""Radio Environment Maps (paper Sections 3.3-3.4).

A REM is a per-UE 2D grid of SNR at the operating altitude.  SkyRAN
builds REMs from sparse flight measurements: samples are averaged into
the 1 m grid cells they fall in (Step 7), unvisited cells are filled by
inverse-distance-weighted interpolation (the paper's deliberate choice
over Kriging/GPR, footnote 3), and the per-UE maps combine into the
aggregate map (for trajectory planning, Step 6.1) and the min-SNR map
(for max-min placement, Section 3.4).
"""

from repro.rem.map import REM
from repro.rem.idw import idw_interpolate
from repro.rem.kriging import kriging_interpolate
from repro.rem.interpolate import (
    IDWInterpolator,
    Interpolator,
    KrigingInterpolator,
    available_interpolators,
    make_interpolator,
    register_interpolator,
)
from repro.rem.gradient import gradient_map, high_gradient_cells
from repro.rem.aggregate import aggregate_rem_running, min_snr_map
from repro.rem.accuracy import median_abs_error_db, rem_error_map

__all__ = [
    "REM",
    "idw_interpolate",
    "kriging_interpolate",
    "Interpolator",
    "IDWInterpolator",
    "KrigingInterpolator",
    "make_interpolator",
    "register_interpolator",
    "available_interpolators",
    "gradient_map",
    "high_gradient_cells",
    "aggregate_rem_running",
    "min_snr_map",
    "median_abs_error_db",
    "rem_error_map",
]
