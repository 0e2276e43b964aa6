"""The TTI-batch MAC kernel: offered bytes -> grants -> served bytes.

:func:`run_tti_batch` evolves every UE's RLC queue through a batch of
TTIs under a pluggable scheduler, producing full (n_ues, n_tti)
matrices of offered / granted / served bytes.  Each TTI's
admit/grant/drain is elementwise numpy over UEs, one scheduler call
per TTI.

The kernel performs the replay's IEEE-754 operations in the same order
(``avail = backlog + offered``, ``served = min(avail, cap)``,
``backlog = avail - served``; no cumsum/prefix tricks anywhere), so
the outputs are **bit-identical** to a pure-Python per-UE, per-TTI
replay of the recurrence — the oracle in ``tests/traffic_oracles.py``
that the equivalence tests and ``scripts/traffic_smoke.py`` assert
against.

:class:`MACSimulation` wraps sources + queues + scheduler into the
stateful per-epoch object the controller and the experiments drive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Sequence, Tuple

import numpy as np

from repro.lte.throughput import PRB_PER_10MHZ, throughput_mbps
from repro.perf import perf
from repro.traffic.generators import (
    BYTES_PER_TTI_PER_MBPS,
    TrafficSource,
    make_traffic_model,
)
from repro.traffic.queueing import QueueBank
from repro.traffic.schedulers import make_scheduler


def rate_per_prb_bytes(snr_db: Sequence[float]) -> np.ndarray:
    """Per-UE deliverable bytes per PRB per TTI at the given SNRs."""
    snr = np.asarray(snr_db, dtype=float)
    return throughput_mbps(snr, n_prb=1) * BYTES_PER_TTI_PER_MBPS


@dataclass(frozen=True)
class MACBatchResult:
    """Everything one TTI batch did, per UE and per TTI.

    All byte matrices are (n_ues, n_tti) float64 with rows in
    ``ue_ids`` order; ``grants`` is the PRB allocation (int64).
    """

    ue_ids: Tuple[int, ...]
    tti0: int
    n_tti: int
    n_prb: int
    grants: np.ndarray
    offered_bytes: np.ndarray
    served_bytes: np.ndarray
    backlog_end_bytes: np.ndarray

    def offered_mbps(self) -> np.ndarray:
        """Per-UE offered rate over the batch (inf-safe: full buffer offers 0)."""
        return self.offered_bytes.sum(axis=1) / (self.n_tti * BYTES_PER_TTI_PER_MBPS)

    def served_mbps(self) -> np.ndarray:
        """Per-UE served rate over the batch."""
        return self.served_bytes.sum(axis=1) / (self.n_tti * BYTES_PER_TTI_PER_MBPS)

    def aggregate_offered_mbps(self) -> float:
        return float(self.offered_mbps().sum())

    def aggregate_served_mbps(self) -> float:
        return float(self.served_mbps().sum())

    def total_backlog_bytes(self) -> float:
        """End-of-batch aggregate backlog (inf under full buffer)."""
        return float(self.backlog_end_bytes.sum())


def draw_offered_bytes(
    sources: Sequence[TrafficSource],
    n_tti: int,
    faults=None,
) -> np.ndarray:
    """Stack each source's next ``n_tti`` offered bytes into (n_ues, n_tti).

    ``faults`` (a :class:`repro.faults.injector.FaultInjector`) may
    amplify the result through its traffic-burst channel; with no
    injector or a zero burst rate the matrix passes through untouched
    and no RNG is drawn.
    """
    if n_tti < 0:
        raise ValueError(f"n_tti must be >= 0, got {n_tti}")
    with perf.span("traffic.generate"):
        offered = np.stack([s.offered_bytes(n_tti) for s in sources], axis=0)
    if faults is not None:
        offered = faults.traffic_bursts(offered)
    perf.count("traffic.offered_tti", int(n_tti))
    return offered


def run_tti_batch(
    *,
    bytes_per_prb: np.ndarray,
    offered_bytes: np.ndarray,
    scheduler,
    queues: QueueBank,
    n_prb: int = PRB_PER_10MHZ,
    tti0: int = 0,
) -> MACBatchResult:
    """Run one TTI batch and fold the result into ``queues``.

    The per-TTI recurrence:

    1. admit: ``avail = backlog + offered`` (queues are unbounded);
    2. schedulable = (avail > 0) and (rate > 0);
    3. grant: scheduler splits ``n_prb`` PRBs over schedulable UEs;
    4. drain: ``served = min(avail, grants * bytes_per_prb)``;
    5. ``backlog = avail - served``; scheduler observes ``served``.
    """
    rates = np.asarray(bytes_per_prb, dtype=float)
    offered = np.asarray(offered_bytes, dtype=float)
    n = queues.n_ues
    if rates.shape != (n,):
        raise ValueError(f"bytes_per_prb shape {rates.shape} != ({n},)")
    if offered.ndim != 2 or offered.shape[0] != n:
        raise ValueError(f"offered_bytes shape {offered.shape} != ({n}, n_tti)")
    if n_prb < 1:
        raise ValueError(f"n_prb must be >= 1, got {n_prb}")
    n_tti = offered.shape[1]

    with perf.span("sched.kernel"):
        grants, served, backlog = _run_kernel(
            rates, offered, scheduler, queues, int(n_prb), int(tti0)
        )

    queues.backlog_bytes = backlog.copy()
    perf.count("sched.tti", int(n_tti))
    return MACBatchResult(
        ue_ids=queues.ue_ids,
        tti0=int(tti0),
        n_tti=int(n_tti),
        n_prb=int(n_prb),
        grants=grants,
        offered_bytes=offered,
        served_bytes=served,
        backlog_end_bytes=backlog,
    )


def _run_kernel(
    rates: np.ndarray,
    offered: np.ndarray,
    scheduler,
    queues: QueueBank,
    n_prb: int,
    tti0: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    n, n_tti = offered.shape
    if n_tti == 0:
        # No TTI to schedule: the empty batch, no scheduler call.
        return (
            np.zeros((n, 0), dtype=np.int64),
            np.zeros((n, 0), dtype=float),
            queues.backlog_bytes.copy(),
        )
    rate_ok = rates > 0.0
    # TTI-major (n_tti, n) buffers, so each TTI reads and writes one
    # contiguous row.
    offered_rows = np.ascontiguousarray(offered.T)
    grants = np.zeros((n_tti, n), dtype=np.int64)
    served = np.zeros((n_tti, n), dtype=float)
    backlog = queues.backlog_bytes.copy()
    for t in range(n_tti):
        avail = backlog + offered_rows[t]
        schedulable = (avail > 0.0) & rate_ok
        g = scheduler.grants(schedulable, rates, n_prb, tti0 + t)
        served_t = np.minimum(avail, g * rates)
        backlog = avail - served_t
        scheduler.update(served_t)
        grants[t] = g
        served[t] = served_t
    return grants.T.copy(), served.T.copy(), backlog


class MACSimulation:
    """Sources + queues + scheduler for one epoch's serving time.

    Built once per epoch for a fixed UE set; :meth:`run` advances the
    MAC by a batch of TTIs against the epoch's per-UE SNRs.  The TTI
    clock, queue backlogs, generator streams and scheduler state all
    persist across calls, so chunked runs match one long run exactly.
    ``rate_mbps`` is the per-UE mean offered rate of a workload given
    by name (a full buffer has none).
    """

    def __init__(
        self,
        ue_ids: Sequence[int],
        *,
        traffic_model: str | object = "full_buffer",
        scheduler: str | object = "round_robin",
        seed: int = 0,
        n_prb: int = PRB_PER_10MHZ,
        rate_mbps: float = 2.0,
    ) -> None:
        ids = tuple(sorted(int(u) for u in ue_ids))
        if isinstance(traffic_model, str):
            traffic_model = make_traffic_model(traffic_model, rate_mbps)
        if isinstance(scheduler, str):
            scheduler = make_scheduler(scheduler)
        self.sources: List[TrafficSource] = [
            traffic_model.source(u, seed=seed) for u in ids
        ]
        full_buffer = bool(self.sources and self.sources[0].full_buffer)
        self.queues = QueueBank(ids, full_buffer=full_buffer)
        self.scheduler = scheduler
        self.scheduler.reset(len(ids))
        self.n_prb = int(n_prb)
        self.tti = 0

    @property
    def ue_ids(self) -> Tuple[int, ...]:
        return self.queues.ue_ids

    def run(
        self,
        snr_db_per_ue: Mapping[int, float],
        n_tti: int,
        *,
        faults=None,
    ) -> MACBatchResult:
        """Advance the MAC by ``n_tti`` TTIs at the given per-UE SNRs."""
        try:
            snr = [float(snr_db_per_ue[u]) for u in self.queues.ue_ids]
        except KeyError as exc:
            raise KeyError(f"missing SNR for UE {exc.args[0]}") from None
        rates = rate_per_prb_bytes(snr)
        offered = draw_offered_bytes(self.sources, n_tti, faults=faults)
        result = run_tti_batch(
            bytes_per_prb=rates,
            offered_bytes=offered,
            scheduler=self.scheduler,
            queues=self.queues,
            n_prb=self.n_prb,
            tti0=self.tti,
        )
        self.tti += int(n_tti)
        return result
