"""Shard-by-shard MAC over a city population.

The TTI kernel in :mod:`repro.traffic.simulate` materializes
(UEs × TTIs) matrices, so running 10⁵ UEs through one
:class:`~repro.traffic.queueing.QueueBank` would peak at
O(population × TTI) memory.  :func:`run_city_mac` instead runs the
*identical* kernel once per population shard and keeps only per-UE
totals, so peak memory is O(shard × TTI).

The catch is the scheduler: round-robin grants depend on a UE's rank
within the **global** schedulable set and on the global active count,
neither of which a shard can see.  With the city workload mix —
full-buffer plus every-TTI CBR — the schedulable set is provably
time-invariant (the condition :func:`repro.traffic.simulate` exploits
for grant slabs), so both quantities can be precomputed once and
handed to :class:`ShardRoundRobin`, a rank-parameterized scheduler
whose per-shard grants are bit-identical to the global
``RoundRobinScheduler`` restricted to the shard's rows.  Everything
downstream of the grants is elementwise per UE, so the whole sharded
run matches the unsharded kernel bit-for-bit, for any shard size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.lte.throughput import PRB_PER_10MHZ
from repro.perf import perf
from repro.traffic.generators import BYTES_PER_TTI_PER_MBPS
from repro.traffic.queueing import QueueBank
from repro.traffic.schedulers import round_robin_slab
from repro.traffic.simulate import run_tti_batch
from repro.city.population import UEPopulation, shard_size


@dataclass
class ShardRoundRobin:
    """Global round-robin grants, computed for one shard's rows.

    ``ranks`` holds each shard UE's rank in the global schedulable set
    (ascending UE order; ``-1`` for never-schedulable UEs) and
    ``n_active_global`` the global active count.  The global scheduler
    grants ``base = n_prb // n_active`` to every active UE plus one
    remainder PRB to the UEs whose ``(rank - tti) mod n_active`` falls
    below the remainder — a pure function of (rank, n_active, tti), so
    a shard that knows its global ranks reproduces its rows of the
    global grant matrix exactly.
    """

    ranks: np.ndarray
    n_active_global: int
    name: str = field(default="shard_round_robin", init=False)

    def __post_init__(self) -> None:
        self.ranks = np.asarray(self.ranks, dtype=np.int64)
        if self.n_active_global < 0:
            raise ValueError(f"n_active_global must be >= 0, got {self.n_active_global}")

    def reset(self, n_ues: int) -> None:
        pass

    def _check(self, schedulable: np.ndarray) -> np.ndarray:
        sched = np.asarray(schedulable, dtype=bool)
        if not np.array_equal(sched, self.ranks >= 0):
            raise ValueError(
                "shard schedulable set diverged from the precomputed global "
                "ranks — the population is not slab-eligible"
            )
        return sched

    def grants(
        self,
        schedulable: np.ndarray,
        bytes_per_prb: np.ndarray,
        n_prb: int,
        tti: int,
    ) -> np.ndarray:
        sched = self._check(schedulable)
        out = np.zeros(len(sched), dtype=np.int64)
        n_a = self.n_active_global
        if n_a == 0:
            return out
        base, rem = divmod(int(n_prb), n_a)
        idx = np.flatnonzero(sched)
        out[idx] = base
        if rem:
            rho = int(tti) % n_a
            out[idx[((self.ranks[idx] - rho) % n_a) < rem]] += 1
        return out

    def grants_slab(
        self,
        schedulable: np.ndarray,
        bytes_per_prb: np.ndarray,
        n_prb: int,
        tti0: int,
        n_tti: int,
    ) -> Optional[np.ndarray]:
        sched = self._check(schedulable)
        idx = np.flatnonzero(sched)
        return round_robin_slab(
            len(sched), idx, self.ranks[idx], self.n_active_global, n_prb, tti0, n_tti
        )

    def update(self, served_bytes: np.ndarray) -> None:
        pass


@dataclass(frozen=True)
class CityMACResult:
    """Per-UE totals of one sharded MAC run (never O(population x TTI))."""

    n_ues: int
    n_tti: int
    n_prb: int
    served_bytes: np.ndarray
    offered_bytes: np.ndarray
    dropped_bytes: np.ndarray
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
    limit_bytes: float = 0.0,
) -> CityMACResult:
    """Run the TTI-batch MAC over a sharded city population.

    ``rates`` is the per-UE deliverable bytes/PRB/TTI (from the serving
    SNR).  Each shard gets its own :class:`QueueBank` (full-buffer mask
    and carried-over backlogs from the population blocks) and a
    :class:`ShardRoundRobin` carrying the precomputed global ranks;
    the per-shard batches are folded into per-UE totals and the
    population backlog state, then discarded.  Bit-identical to one
    unsharded :func:`~repro.traffic.simulate.run_tti_batch` over the
    whole population, for any shard size.
    """
    rates = np.asarray(rates, dtype=float)
    n = pop.n_ues
    if rates.shape != (n,):
        raise ValueError(f"rates shape {rates.shape} != ({n},)")
    if n_tti < 0:
        raise ValueError(f"n_tti must be >= 0, got {n_tti}")

    schedulable = city_schedulable(pop, rates)
    n_active = int(np.count_nonzero(schedulable))
    ranks = np.where(schedulable, np.cumsum(schedulable) - 1, -1).astype(np.int64)
    bytes_per_tti = pop.cbr_rate_mbps * BYTES_PER_TTI_PER_MBPS

    served = np.zeros(n, dtype=float)
    offered_total = np.zeros(n, dtype=float)
    dropped = np.zeros(n, dtype=float)
    grants = np.zeros(n, dtype=np.int64)
    backlog_end = np.empty(n, dtype=float)

    width = shard_size(shard_ues)
    perf.count("city.mac_shards", (n + width - 1) // width)
    with perf.span("city.mac"):
        for sl in pop.iter_shards(width):
            ids = tuple(int(u) for u in pop.ue_ids[sl])
            queues = QueueBank(
                ids, limit_bytes=limit_bytes, full_buffer=pop.full_buffer[sl]
            )
            # Carry finite backlogs across batches (full-buffer rows
            # are already seeded with inf by the bank).
            carry = ~pop.full_buffer[sl]
            queues.backlog_bytes[carry] = pop.backlog_bytes[sl][carry]
            offered = np.broadcast_to(
                bytes_per_tti[sl][:, None], (len(ids), int(n_tti))
            )
            scheduler = ShardRoundRobin(ranks=ranks[sl], n_active_global=n_active)
            res = run_tti_batch(
                bytes_per_prb=rates[sl],
                offered_bytes=offered,
                scheduler=scheduler,
                queues=queues,
                n_prb=n_prb,
                tti0=tti0,
            )
            served[sl] = res.served_bytes.sum(axis=1)
            offered_total[sl] = res.offered_bytes.sum(axis=1)
            dropped[sl] = res.dropped_bytes.sum(axis=1)
            grants[sl] = res.grants.sum(axis=1)
            backlog_end[sl] = res.backlog_end_bytes
            pop.backlog_bytes[sl] = res.backlog_end_bytes

    return CityMACResult(
        n_ues=n,
        n_tti=int(n_tti),
        n_prb=int(n_prb),
        served_bytes=served,
        offered_bytes=offered_total,
        dropped_bytes=dropped,
        grants=grants,
        backlog_end_bytes=backlog_end,
    )
