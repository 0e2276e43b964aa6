"""Ground-truth REM construction.

The paper scores every scheme against an oracle REM obtained from an
exhaustive measurement flight (testbed, Fig. 15) or full ray tracing
(scale-up study).  Here the oracle is the channel model's mean SNR on
every grid cell — no fading, no measurement noise — which is what an
infinitely long averaging flight would converge to.

The stack builder rides the batched map oracle
(:meth:`~repro.channel.model.ChannelModel.snr_maps`): all UEs are
traced in chunked vectorized batches and per-UE maps are memoized
across calls, so the stack is identical to calling
:meth:`~repro.channel.model.ChannelModel.snr_map` once per UE.
Streaming consumers read the same values tile by tile from
:meth:`~repro.channel.model.ChannelModel.iter_snr_map_tiles`.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.channel.model import ChannelModel
from repro.geo.grid import GridSpec
from repro.perf import perf


def ground_truth_stack(
    model: ChannelModel,
    ue_positions: Sequence,
    altitude: float,
    grid: Optional[GridSpec] = None,
    *,
    use_cache: bool = True,
) -> np.ndarray:
    """Oracle SNR maps for all UEs, stacked ``(n_ue, ny, nx)``."""
    with perf.span("groundtruth.stack"):
        return model.snr_maps(ue_positions, altitude, grid, use_cache=use_cache)
