"""Simulation harness.

:class:`~repro.sim.scenario.Scenario` bundles a terrain, a channel, a
UE deployment and the ground-truth oracle (optimal position, relative
throughput).  :mod:`repro.sim.runner` drives controllers — single-cell or fleet —
through multi-epoch runs with UE dynamics and budget accounting, one
:class:`~repro.sim.runner.EpochRecord` per epoch whatever the scheme —
the engine behind the Section 5 scale-up benches.
"""

from repro.sim.scenario import PlacementEvaluation, Scenario
from repro.sim.runner import (
    EpochRecord,
    RunResult,
    overhead_to_target,
    run_epochs,
    run_simulation,
)
from repro.sim.metrics import median_rem_error

__all__ = [
    "Scenario",
    "PlacementEvaluation",
    "EpochRecord",
    "RunResult",
    "run_epochs",
    "run_simulation",
    "overhead_to_target",
    "median_rem_error",
]
