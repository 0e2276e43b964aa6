"""SkyRAN's measurement-trajectory planner (paper Steps 6.1-6.4).

Pipeline per candidate ``K``:

1. **Aggregate** the current per-UE REM estimates (cell-wise sum,
   folded by the caller).
2. **Gradient map**: per-cell max difference to adjacent cells.
3. **Threshold** at the median gradient; keep high-gradient cells.
4. **K-means** the high-gradient cells into ``K`` spatial clusters.
5. **TSP** over the ``K`` cluster heads (open tour from the head
   nearest the UAV), truncated to the measurement budget.
6. Score by **information gain / cost** using the per-UE trajectory
   history; the best-ratio candidate wins.

Because early-epoch REMs are FSPL-seeded around the *localized* UE
positions, the gradient concentrates near UEs and terrain features —
this is precisely how UE location-awareness steers the probing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.geo.grid import GridSpec
from repro.geo.kmeans import kmeans
from repro.geo.tsp import solve_tsp
from repro.rem.gradient import gradient_map, high_gradient_cells
from repro.trajectory.base import Trajectory
from repro.trajectory.information import TrajectoryHistory


@dataclass(frozen=True)
class PlanResult:
    """A planned measurement trajectory plus its planning diagnostics.

    Attributes
    ----------
    trajectory:
        The winning (budget-truncated) flight path.
    k:
        Number of clusters behind the winning path.
    info_gain:
        Mean per-UE information gain of the winning path.
    ratio:
        Information-to-cost ratio that won.
    candidates:
        ``(k, length, gain, ratio)`` rows for every evaluated K.
    """

    trajectory: Trajectory
    k: int
    info_gain: float
    ratio: float
    candidates: List[tuple]


@dataclass
class SkyRANPlanner:
    """The Step-6 planner.

    Attributes
    ----------
    k_min, k_max:
        Range of cluster counts to evaluate (paper: K in
        {Kmin..Kmax}).
    gradient_quantile:
        Gradient threshold quantile (0.5 = the paper's median).
    max_cluster_cells:
        Upper bound on high-gradient cells fed to K-means; beyond it
        cells are subsampled by gradient-weighted probability (pure
        speed knob, keeps planning O(10k) points).
    seed:
        RNG seed for K-means and subsampling.
    """

    k_min: int = 3
    k_max: int = 24
    k_window: int = 8
    gradient_quantile: float = 0.5
    max_cluster_cells: int = 4000
    seed: int = 0

    def __post_init__(self) -> None:
        if not 1 <= self.k_min <= self.k_max:
            raise ValueError(
                f"need 1 <= k_min <= k_max, got {self.k_min}..{self.k_max}"
            )
        if self.k_window < 1:
            raise ValueError(f"k_window must be >= 1, got {self.k_window}")

    def plan(
        self,
        grid: GridSpec,
        aggregate: np.ndarray,
        ue_positions: Sequence[np.ndarray],
        uav_xy: np.ndarray,
        altitude: float,
        budget_m: float,
        history: Optional[TrajectoryHistory] = None,
    ) -> PlanResult:
        """Compute the epoch's measurement trajectory.

        Parameters
        ----------
        grid:
            Operating-area grid.
        aggregate:
            The Step-6.1 aggregate REM, ``grid.shape``: the cell-wise
            sum of the current per-UE map estimates (interpolated or
            FSPL-seeded), folded by
            :func:`repro.rem.aggregate.aggregate_rem_running`.
        ue_positions:
            Localized UE positions (keys for the trajectory history).
        uav_xy:
            UAV position at planning time; the tour starts near it.
        altitude:
            Operating altitude the trajectory will be flown at.
        budget_m:
            Measurement budget (trajectory length cap).
        history:
            Per-UE trajectory history for information gain; a fresh
            empty history (everything maximally informative) if
            omitted.
        """
        agg = np.asarray(aggregate, dtype=float)
        if agg.shape != grid.shape:
            raise ValueError(
                f"aggregate shape {agg.shape} != grid shape {grid.shape}"
            )
        if budget_m <= 0:
            raise ValueError(f"budget_m must be positive, got {budget_m}")
        history = history or TrajectoryHistory()
        uav_xy = np.asarray(uav_xy, dtype=float).reshape(2)

        grad = gradient_map(agg)
        iy, ix = high_gradient_cells(grad, self.gradient_quantile)
        if len(iy) == 0:
            # Perfectly flat aggregate (e.g. all-NaN): fall back to the
            # whole grid so planning still returns a usable path.
            iy, ix = np.where(np.ones(grid.shape, dtype=bool))
        xs = grid.origin_x + (ix + 0.5) * grid.cell_size
        ys = grid.origin_y + (iy + 0.5) * grid.cell_size
        cells = np.column_stack([xs, ys])
        weights = grad[iy, ix]
        weights = np.where(np.isfinite(weights), weights, 0.0) + 1e-9

        rng = np.random.default_rng(self.seed)
        if len(cells) > self.max_cluster_cells:
            probs = weights / weights.sum()
            pick = rng.choice(len(cells), self.max_cluster_cells, replace=False, p=probs)
            cells = cells[pick]
            weights = weights[pick]

        # Build tours for growing K until they no longer fit the
        # measurement budget: the candidate set is the K-window of the
        # *richest* tours the budget affords.  (With an empty history
        # every gain is Imax, so a fixed K range would degenerate to
        # "always fly the shortest tour" and leave the budget unused;
        # anchoring the window at the budget keeps the paper's
        # ratio rule meaningful at every budget.)
        tours: List[tuple] = []  # (k, trajectory, length)
        for k in range(self.k_min, min(self.k_max, len(cells)) + 1):
            km = kmeans(cells, k, seed=self.seed + k, weights=weights)
            heads = km.centers
            start = int(np.argmin(np.hypot(*(heads - uav_xy).T)))
            order = solve_tsp(heads, start=start)
            path = np.vstack([uav_xy[None, :], heads[order]])
            traj = Trajectory(path, altitude, "skyran")
            tours.append((k, traj, traj.length_m))
            if traj.length_m > budget_m and k >= self.k_min + 1:
                break
        feasible = [t for t in tours if t[2] <= budget_m]
        if feasible:
            window = feasible[-self.k_window :]
        else:
            # Even the smallest tour exceeds the budget: truncate it.
            k0, traj0, _ = tours[0]
            window = [(k0, traj0.truncated(budget_m), budget_m)]

        candidates: List[tuple] = []
        best: Optional[tuple] = None
        for k, traj, length in window:
            length = max(length, 1e-6)
            gain = history.mean_gain(traj, ue_positions)
            ratio = gain / length
            candidates.append((k, length, gain, ratio))
            if best is None or ratio > best[0]:
                best = (ratio, k, gain, traj)

        ratio, k, gain, traj = best
        return PlanResult(
            trajectory=traj, k=k, info_gain=gain, ratio=ratio, candidates=candidates
        )
