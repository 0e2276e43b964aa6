"""Traffic workloads, RLC queues and TTI scheduling (see DESIGN.md §10)."""

from repro.traffic.generators import (
    BYTES_PER_TTI_PER_MBPS,
    FullBufferTraffic,
    PoissonTraffic,
    TRAFFIC_SPAWN_KEY,
    TrafficSource,
    available_traffic_models,
    make_traffic_model,
)
from repro.traffic.queueing import QueueBank
from repro.traffic.schedulers import (
    MaxMinScheduler,
    ProportionalFairScheduler,
    RoundRobinScheduler,
    available_schedulers,
    make_scheduler,
)
from repro.traffic.simulate import (
    MACBatchResult,
    MACSimulation,
    draw_offered_bytes,
    rate_per_prb_bytes,
    run_tti_batch,
)

__all__ = [
    "BYTES_PER_TTI_PER_MBPS",
    "FullBufferTraffic",
    "MACBatchResult",
    "MACSimulation",
    "MaxMinScheduler",
    "PoissonTraffic",
    "ProportionalFairScheduler",
    "QueueBank",
    "RoundRobinScheduler",
    "TRAFFIC_SPAWN_KEY",
    "TrafficSource",
    "available_schedulers",
    "available_traffic_models",
    "draw_offered_bytes",
    "make_scheduler",
    "make_traffic_model",
    "rate_per_prb_bytes",
    "run_tti_batch",
]
