"""Shard-by-shard MAC over a city population.

The serving MAC (:func:`repro.traffic.simulate.run_tti_batch`)
materializes (UEs × TTIs) matrices, so running 10⁵ UEs through it at
once would peak at O(population × TTI) memory.  :func:`run_city_mac`
instead walks the population one shard at a time and keeps only
per-UE totals, so peak memory is O(shard × TTI).

The catch is the scheduler: round-robin grants depend on a UE's rank
within the **global** schedulable set and on the global active count,
neither of which a shard can see.  With the city workload mix —
full-buffer plus every-TTI CBR — the schedulable set is provably
time-invariant (:func:`city_schedulable`), so both quantities are
computed once per call, and each shard takes its rows of the global
round-robin grant matrix from
:func:`~repro.traffic.schedulers.round_robin_slab`.  Everything
downstream of the grants is elementwise per UE, so the sharded run is
bit-identical to the per-TTI round-robin recurrence over the whole
population, for any shard size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.lte.throughput import PRB_PER_10MHZ
from repro.perf import perf
from repro.traffic.generators import BYTES_PER_TTI_PER_MBPS
from repro.traffic.schedulers import round_robin_slab
from repro.city.population import UEPopulation, shard_size


@dataclass(frozen=True)
class CityMACResult:
    """Per-UE totals of one sharded MAC run (never O(population x TTI))."""

    n_ues: int
    n_tti: int
    n_prb: int
    served_bytes: np.ndarray
    offered_bytes: np.ndarray
    grants: np.ndarray
    backlog_end_bytes: np.ndarray

    def aggregate_served_mbps(self) -> float:
        return float(self.served_bytes.sum()) / (self.n_tti * BYTES_PER_TTI_PER_MBPS)

    def served_mbps(self) -> np.ndarray:
        return self.served_bytes / (self.n_tti * BYTES_PER_TTI_PER_MBPS)


def city_schedulable(pop: UEPopulation, rates: np.ndarray) -> np.ndarray:
    """The (time-invariant) schedulable set of a city population.

    Full-buffer UEs and every-TTI CBR UEs with a usable link are
    schedulable at every TTI; zero-rate UEs and idle UEs (no traffic,
    empty queue) never are.  Any UE outside those classes — a finite
    backlog draining with no arrivals — makes the set time-varying and
    the sharded decomposition unsound, so it is rejected.
    """
    rate_ok = rates > 0.0
    offers = pop.cbr_rate_mbps > 0.0
    finite_backlog = np.where(pop.full_buffer, 0.0, pop.backlog_bytes)
    never = ~pop.full_buffer & ~offers & (finite_backlog == 0.0)
    covered = pop.full_buffer | offers | never | ~rate_ok
    if not bool(covered.all()):
        bad = np.flatnonzero(~covered)[:5]
        raise ValueError(
            "population is not slab-eligible: UEs with a draining backlog "
            f"and no arrivals (first indices: {bad.tolist()})"
        )
    return rate_ok & (pop.full_buffer | offers)


def run_city_mac(
    pop: UEPopulation,
    rates: np.ndarray,
    n_tti: int,
    *,
    n_prb: int = PRB_PER_10MHZ,
    shard_ues: int | None = None,
    tti0: int = 0,
) -> CityMACResult:
    """Run ``n_tti`` round-robin TTIs over a sharded city population.

    ``rates`` is the per-UE deliverable bytes/PRB/TTI (from the serving
    SNR).  Each shard's grants come from :func:`round_robin_slab` with
    the precomputed global ranks; its queues start at ``inf`` on the
    full-buffer rows and at the carried-over population backlog on the
    rest and drain TTI by TTI (``avail = backlog + offered``, ``served
    = min(avail, cap)``, ``backlog = avail - served``).  The shard is
    folded into per-UE totals and the population backlog state, then
    discarded.
    """
    rates = np.asarray(rates, dtype=float)
    n = pop.n_ues
    if rates.shape != (n,):
        raise ValueError(f"rates shape {rates.shape} != ({n},)")
    if n_tti < 0:
        raise ValueError(f"n_tti must be >= 0, got {n_tti}")
    if n_prb < 1:
        raise ValueError(f"n_prb must be >= 1, got {n_prb}")
    n_tti = int(n_tti)

    schedulable = city_schedulable(pop, rates)
    n_active = int(np.count_nonzero(schedulable))
    ranks = np.cumsum(schedulable) - 1  # read only where schedulable
    bytes_per_tti = pop.cbr_rate_mbps * BYTES_PER_TTI_PER_MBPS

    served = np.zeros(n, dtype=float)
    offered_total = np.zeros(n, dtype=float)
    grants = np.zeros(n, dtype=np.int64)
    backlog_end = np.empty(n, dtype=float)

    width = shard_size(shard_ues)
    n_shards = (n + width - 1) // width
    perf.count("city.mac_shards", n_shards)
    with perf.span("city.mac"):
        for sl in pop.iter_shards(width):
            m = sl.stop - sl.start
            idx = np.flatnonzero(schedulable[sl])
            shard_grants = round_robin_slab(
                m, idx, ranks[sl][idx], n_active, n_prb, tti0, n_tti
            )
            caps = shard_grants * rates[sl][:, None]
            offered = np.broadcast_to(bytes_per_tti[sl][:, None], (m, n_tti))
            backlog = np.where(pop.full_buffer[sl], np.inf, pop.backlog_bytes[sl])
            # Finite backlogs couple one TTI to the next (a Lindley
            # recurrence), so the drain walks the shard TTI by TTI.
            shard_served = np.zeros((m, n_tti), dtype=float)
            for t in range(n_tti):
                avail = backlog + offered[:, t]
                served_t = np.minimum(avail, caps[:, t])
                backlog = avail - served_t
                shard_served[:, t] = served_t
            served[sl] = shard_served.sum(axis=1)
            offered_total[sl] = offered.sum(axis=1)
            grants[sl] = shard_grants.sum(axis=1)
            backlog_end[sl] = backlog
            pop.backlog_bytes[sl] = backlog
    perf.count("sched.tti", n_shards * n_tti)
    perf.count("sched.slab_tti", n_shards * n_tti)

    return CityMACResult(
        n_ues=n,
        n_tti=n_tti,
        n_prb=int(n_prb),
        served_bytes=served,
        offered_bytes=offered_total,
        grants=grants,
        backlog_end_bytes=backlog_end,
    )
